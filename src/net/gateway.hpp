// Platform gateway: the task-submission HTTP service in front of a
// serving OnlineEngine.
//
//   POST /submit     {"family":"cnn","depth":8,...}
//                    -> 200 {"accepted":true,"id":...,"trace_id":"<hex>",
//                       "trace_sampled":...} + X-Trace-Id       admitted
//                    -> 429 + Retry-After: <s>              backpressure
//   GET  /task/<id>  -> 200 task lifecycle JSON (queued -> matched ->
//                       dispatched, or expired/rejected), 404 unknown,
//                       410 evicted from the bounded status table
//   GET  /trace/<id> -> 200 flat JSON span chain of a sampled task
//                       (16-hex trace id from /submit), 404 unknown /
//                       unsampled, 404 when tracing is off
//   GET  /alerts     -> 200 flat JSON burn-rate state of every SLO rule
//   GET  /ratekeeper -> 200 flat JSON admission-controller state: global
//                       rate, limiting signal, per-client buckets; 404
//                       when the Ratekeeper is disabled
//   GET  /stats      -> 200 flat JSON: queue depth, round cadence,
//                       cumulative regret, task-state counts
//   GET  /journal[?from=&to=]
//                    -> 200 NDJSON round/task records from the chunked
//                       on-disk journal whose close_hours fall in
//                       [from, to] (defaults: everything retained),
//                       served across chunk boundaries; 400 malformed
//                       window, 404 storage disabled
//   GET  /debug/storage
//                    -> 200 flat JSON durability state: WAL records/
//                       bytes/fsyncs/segments, recovery counts,
//                       checkpoint generation, chunk census; 404
//                       storage disabled
//
// The operator routes (obs/routes.hpp), also served by obs::HttpExporter:
//
//   GET  /metrics    -> 200 Prometheus exposition of the shared registry,
//                       404 no registry
//   GET  /healthz    -> 200 "ok\n"
//   GET  /debug/flight[?thread=&kind=&limit=]
//                    -> 200 recent flight-recorder events (black box),
//                       400 malformed filter, 404 recorder disabled
//   GET  /debug/threads
//                    -> 200 per-thread heartbeat ages + stall flags,
//                       404 recorder disabled
//   GET  /debug/profile[?seconds=&hz=]
//                    -> 200 folded CPU profile from an on-demand sampling
//                       session, 400 malformed params, 404 profiler
//                       disabled, 409 while another session runs
//   GET  /debug/build
//                    -> 200 build provenance JSON (git sha, compiler,
//                       build type, sanitizers)
//
// Any other path -> 404; a method a route does not take -> 405 + Allow.
// The request -> response mapping is a pure function over the parsed
// request (route_gateway_request), so every route is unit-testable
// without a socket; PlatformGateway glues it onto the shared
// net::HttpServer core and adds the request metrics
// (mfcp_gateway_requests_total{route=,status=}, submit latency). The
// route= label is the matched route's path above ("/task", "/trace" for
// the id routes), or "other".
//
// Backpressure is decided by the engine-side GatewayLink, not here: the
// gateway never buffers tasks itself, so a 200 means the task is in the
// engine's hands and will terminate in exactly one of
// matched/dispatched/expired/rejected — the conservation law the load
// generator asserts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "control/ratekeeper.hpp"
#include "control/token_bucket.hpp"
#include "engine/service.hpp"
#include "net/http.hpp"
#include "net/http_server.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/trace_store.hpp"
#include "sim/task.hpp"
#include "storage/storage.hpp"

namespace mfcp::net {

/// Result of parsing a POST /submit body. `deadline_hours` is 0 when the
/// client did not set one (the link substitutes its default).
struct SubmitParse {
  bool ok = false;
  std::string error;  // human-readable, echoed in the 400 body
  sim::TaskDescriptor task;
  double deadline_hours = 0.0;
  /// Rate-limiting identity ("client" field); empty = anonymous bucket.
  std::string client;
};

/// Parses and validates a flat-JSON task submission. Accepted fields:
/// family ("cnn"|"transformer"|"rnn"|"mlp", required), dataset
/// ("cifar-10"|"imagenet"|"europarl"), depth, width, batch_size,
/// dataset_fraction, deadline_hours, client (<= 64 chars of
/// [A-Za-z0-9._-], names the token bucket the submit is charged to).
/// Unknown fields are rejected so client typos fail loudly instead of
/// silently running defaults.
[[nodiscard]] SubmitParse parse_submit_body(std::string_view body);

/// Flat-JSON renderings (flat so the loadgen client can read them back
/// with parse_json_object).
[[nodiscard]] std::string task_status_json(const engine::TaskStatus& status);
[[nodiscard]] std::string service_stats_json(const engine::ServiceStats& s);
/// GET /trace/<id> body: scalar fields (trace_id, task_id, state,
/// complete, spans, chain) plus per-span sN_* fields. Wall durations are
/// included here (diagnostic view) even though the JSONL export omits
/// them.
[[nodiscard]] std::string task_trace_json(const obs::TaskTrace& trace);
/// GET /alerts body: <sli>_value/_budget/_fast_burn/_slow_burn/_firing/
/// _samples per rule plus now_hours and firing_total.
[[nodiscard]] std::string slo_alerts_json(
    const std::vector<obs::SloState>& states, double now_hours);
/// GET /ratekeeper body: controller status (rate, limiting signal,
/// per-signal pressures, tick/decrease/recovery counts) plus one
/// bN_client/bN_tokens/bN_rate_per_hour/bN_weight/bN_throttled group per
/// resident bucket, name-sorted.
[[nodiscard]] std::string ratekeeper_status_json(
    const control::RatekeeperStatus& status,
    const control::TokenBucketTable& buckets);

struct GatewayConfig {
  HttpServerConfig http;
  /// Burn-rate monitor behind GET /alerts; submit latencies are observed
  /// into it per request. Borrowed, optional.
  obs::SloMonitor* slo = nullptr;
  /// Trace store behind GET /trace/<id>. Borrowed, optional; should be
  /// the same store the GatewayLink and engine write to.
  obs::TraceStore* traces = nullptr;
  /// Admission controller + bucket table behind GET /ratekeeper (the
  /// same objects the engine ticks and the link charges). Borrowed,
  /// optional.
  const control::Ratekeeper* ratekeeper = nullptr;
  const control::TokenBucketTable* buckets = nullptr;
  /// Flight recorder behind GET /debug/flight and /debug/threads.
  /// Borrowed, optional (404 when absent). To also heartbeat the HTTP
  /// workers, point `http.observer` at an obs::FlightServerObserver.
  const obs::FlightRecorder* flight = nullptr;
  /// Sampling profiler behind GET /debug/profile. Borrowed, optional
  /// (404 when absent); mutable because each request runs a session.
  obs::SamplingProfiler* profiler = nullptr;
  /// Durability layer behind GET /journal and GET /debug/storage (the
  /// same StorageManager the engine writes through). Borrowed, optional
  /// (404 when absent).
  const storage::StorageManager* storage = nullptr;
};

/// Maps one parsed request to its response — the socket-free core of the
/// gateway. `registry` backs GET /metrics; it and every source in
/// `config` are optional (their routes answer 404 when absent).
[[nodiscard]] HttpResponse route_gateway_request(
    const HttpRequest& request, engine::GatewayLink& link,
    obs::MetricsRegistry* registry, const GatewayConfig& config = {});

/// The running service: an HttpServer whose handler routes into `link`
/// and records per-route request metrics into `registry` (both borrowed;
/// must outlive the gateway). `trace` optionally retains submit spans.
class PlatformGateway {
 public:
  PlatformGateway(engine::GatewayLink& link, obs::MetricsRegistry* registry,
                  obs::TraceRing* trace, GatewayConfig config = {});

  PlatformGateway(const PlatformGateway&) = delete;
  PlatformGateway& operator=(const PlatformGateway&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return server_->port();
  }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return server_->requests_served();
  }
  [[nodiscard]] std::uint64_t connections_shed() const noexcept {
    return server_->connections_shed();
  }

  /// Graceful, idempotent shutdown of the HTTP front end (the engine
  /// keeps serving whatever was already admitted).
  void stop() { server_->stop(); }

 private:
  HttpResponse handle(const HttpRequest& request);

  engine::GatewayLink& link_;
  obs::MetricsRegistry* registry_;
  obs::TraceRing* trace_;
  GatewayConfig config_;
  obs::Histogram* submit_seconds_ = nullptr;
  std::unique_ptr<HttpServer> server_;
};

}  // namespace mfcp::net
