// The operator routes: GET /metrics, /healthz, /debug/flight,
// /debug/threads, /debug/profile and /debug/build, written once and
// mounted by both servers — net::PlatformGateway (after its own task
// routes) and obs::HttpExporter (alone). Statuses and bodies are listed
// in the route table at the top of net/gateway.hpp.
//
// Every source is borrowed and optional: a route whose source is absent
// answers 404, so a server mounts the table unchanged whatever it wires.
#pragma once

#include <optional>
#include <string_view>

#include "net/http.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace mfcp::obs {

struct ObsSources {
  /// Behind GET /metrics.
  const MetricsRegistry* registry = nullptr;
  /// Behind GET /debug/flight and /debug/threads.
  const FlightRecorder* flight = nullptr;
  /// Behind GET /debug/profile; mutable because a request runs a session
  /// (blocking its worker for the session, 409 for a concurrent one).
  SamplingProfiler* profiler = nullptr;
};

/// The response for `request`, or nullopt when it names no operator
/// route (the caller answers those).
[[nodiscard]] std::optional<net::HttpResponse> route_obs_request(
    const net::HttpRequest& request, const ObsSources& sources);

/// The operator route `path` matches (its metric label), or empty.
[[nodiscard]] std::string_view obs_route_label(std::string_view path) noexcept;

}  // namespace mfcp::obs
