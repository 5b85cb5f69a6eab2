// Socket-free HTTP/1.1 protocol surface shared by the server core, the
// metrics exporter, the platform gateway, and the load-generator client.
//
// Everything here is a pure function over strings: request-head parsing
// (request line + headers + Content-Length framing), response assembly,
// and the tiny pieces of header algebra the callers need. The socket
// plumbing lives in http_server.hpp / http_client.hpp; keeping the
// protocol surface separate is what makes the parse/route/respond path
// unit-testable without ever opening a listener.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mfcp::net {

/// One parsed request head. Header names are lower-cased at parse time
/// (HTTP header names are case-insensitive); values keep their case with
/// surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;
  std::string path;
  std::string version;  // e.g. "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool valid = false;

  /// First header value with the given (case-insensitive) name, or empty.
  [[nodiscard]] std::string_view header(std::string_view name) const noexcept;

  /// Content-Length as declared by the head; nullopt when absent or
  /// non-numeric.
  [[nodiscard]] std::optional<std::size_t> content_length() const noexcept;
};

/// Parses "METHOD SP PATH SP VERSION" plus the header lines that follow,
/// up to (not including) the blank line. Returns valid=false on any
/// malformed line — the server answers 400 rather than guessing.
[[nodiscard]] HttpRequest parse_request_head(std::string_view head);

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra headers, e.g. {"Retry-After", "3"} or {"Allow", "GET"}.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Reason phrase for the status codes this repo emits ("OK", "Too Many
/// Requests", ...); "Unknown" otherwise.
[[nodiscard]] std::string_view status_reason(int status) noexcept;

/// Full wire form: status line, Content-Type/-Length, Connection: close,
/// extra headers, blank line, body.
[[nodiscard]] std::string serialize_response(const HttpResponse& response);

/// Convenience constructors for the common response shapes.
[[nodiscard]] HttpResponse text_response(int status, std::string body);
[[nodiscard]] HttpResponse json_response(int status, std::string body);
/// {"error":"<message>"} with a trailing newline.
[[nodiscard]] HttpResponse error_json(int status, std::string_view message);
/// 405 with an Allow header naming the one accepted method.
[[nodiscard]] HttpResponse method_not_allowed(std::string_view allow);
/// The answer for a request no route table claims: 405 (Allow: GET) for
/// any other method, else 404.
[[nodiscard]] HttpResponse unrouted_response(const HttpRequest& request);

// ---------------------------------------------------------- route tables --

/// How a route's path matches a request path.
enum class PathMatch {
  kExact,   // path == route
  kQuery,   // path == route, or route + "?<query>"
  kPrefix,  // route + "/<rest>", e.g. /task/<id>
};

[[nodiscard]] bool path_matches(std::string_view route, PathMatch match,
                                std::string_view path) noexcept;

/// One row of a route table. `path` is both the match key and the value
/// of the route= label on the gateway's request metrics. `Ctx` carries
/// whatever the handlers read.
template <class Ctx>
struct Route {
  std::string_view path;
  PathMatch match;
  std::string_view method;
  HttpResponse (*handle)(const HttpRequest&, const Ctx&);
};

/// First row of `table` whose path matches, or null.
template <class Ctx, std::size_t N>
[[nodiscard]] const Route<Ctx>* find_route(const Route<Ctx> (&table)[N],
                                           std::string_view path) noexcept {
  for (const Route<Ctx>& route : table) {
    if (path_matches(route.path, route.match, path)) {
      return &route;
    }
  }
  return nullptr;
}

/// Answers `request` from the first matching row (405 when the method
/// differs), or nullopt when no row matches.
template <class Ctx, std::size_t N>
[[nodiscard]] std::optional<HttpResponse> dispatch(
    const Route<Ctx> (&table)[N], const HttpRequest& request,
    const Ctx& ctx) {
  const Route<Ctx>* route = find_route(table, request.path);
  if (route == nullptr) {
    return std::nullopt;
  }
  if (request.method != route->method) {
    return method_not_allowed(route->method);
  }
  return route->handle(request, ctx);
}

}  // namespace mfcp::net
