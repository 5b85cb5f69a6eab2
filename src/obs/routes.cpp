#include "obs/routes.hpp"

#include "obs/build_info.hpp"
#include "obs/sinks.hpp"

namespace mfcp::obs {

namespace {

using net::HttpRequest;
using net::HttpResponse;

HttpResponse handle_metrics(const HttpRequest&, const ObsSources& sources) {
  if (sources.registry == nullptr) {
    return net::text_response(404, "no metrics registry\n");
  }
  HttpResponse r =
      net::text_response(200, to_prometheus(sources.registry->snapshot()));
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  return r;
}

HttpResponse handle_healthz(const HttpRequest&, const ObsSources&) {
  return net::text_response(200, "ok\n");
}

HttpResponse handle_flight(const HttpRequest& request,
                           const ObsSources& sources) {
  if (sources.flight == nullptr) {
    return net::error_json(404, "flight recorder disabled");
  }
  const FlightQuery query = parse_flight_query(request.path);
  if (!query.valid) {
    return net::error_json(
        400, "bad flight filter (thread=<n>&kind=<name>&limit=<n>)");
  }
  return net::json_response(200, flight_events_json(*sources.flight, query));
}

HttpResponse handle_threads(const HttpRequest&, const ObsSources& sources) {
  if (sources.flight == nullptr) {
    return net::error_json(404, "flight recorder disabled");
  }
  return net::json_response(200, flight_threads_json(*sources.flight));
}

HttpResponse handle_profile(const HttpRequest& request,
                            const ObsSources& sources) {
  // The body is text/plain folded-flamegraph lines, not JSON.
  if (sources.profiler == nullptr) {
    return net::text_response(404, "profiler disabled (run with --profile)\n");
  }
  const ProfileQuery query = parse_profile_query(request.path);
  if (!query.valid) {
    return net::text_response(
        400, "malformed profile query: seconds in (0,30], hz in [1,1000]\n");
  }
  std::optional<std::string> folded =
      sources.profiler->collect_folded(query.seconds, query.hz);
  if (!folded.has_value()) {
    return net::text_response(409, "a profile session is already running\n");
  }
  return net::text_response(200, std::move(*folded));
}

HttpResponse handle_build(const HttpRequest&, const ObsSources&) {
  return net::json_response(200, build_info_json());
}

constexpr net::Route<ObsSources> kObsRoutes[] = {
    {"/metrics", net::PathMatch::kExact, "GET", handle_metrics},
    {"/healthz", net::PathMatch::kExact, "GET", handle_healthz},
    {"/debug/flight", net::PathMatch::kQuery, "GET", handle_flight},
    {"/debug/threads", net::PathMatch::kExact, "GET", handle_threads},
    {"/debug/profile", net::PathMatch::kQuery, "GET", handle_profile},
    {"/debug/build", net::PathMatch::kExact, "GET", handle_build},
};

}  // namespace

std::optional<HttpResponse> route_obs_request(const HttpRequest& request,
                                              const ObsSources& sources) {
  return net::dispatch(kObsRoutes, request, sources);
}

std::string_view obs_route_label(std::string_view path) noexcept {
  const net::Route<ObsSources>* route = net::find_route(kObsRoutes, path);
  return route == nullptr ? std::string_view{} : route->path;
}

}  // namespace mfcp::obs
