// Live-metrics HTTP endpoint: the operator routes of obs/routes.hpp
// mounted alone on a net::HttpServer. It serves the subset of the
// gateway's route table (net/gateway.hpp) that needs no engine:
//
//   GET /metrics, /healthz, /debug/flight[?thread=&kind=&limit=],
//   /debug/threads, /debug/profile[?seconds=&hz=], /debug/build
//   GET <other> -> 404;  non-GET -> 405
//
// The exporter pulls: each scrape snapshots the registry, so the running
// engine never blocks on the exporter — scrapes pay the snapshot cost
// (summing sharded atomics), the instrumented hot path pays nothing.
// Accepting, backlog bounding, timeouts, 400 for unparsable requests and
// graceful shutdown all live in net::HttpServer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/http_server.hpp"
#include "obs/routes.hpp"

namespace mfcp::obs {

struct HttpExporterConfig {
  /// Loopback by default: the exporter serves process introspection, not
  /// the open internet.
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; read the result via port().
  std::uint16_t port = 0;
  int listen_backlog = 16;
  /// Receive timeout per connection, guarding a worker against stalled
  /// clients.
  int receive_timeout_ms = 2000;
  /// Scrapes are rare and cheap; two workers cover an overlapping scrape
  /// without reserving more threads.
  std::size_t worker_threads = 2;
  /// Flight recorder behind GET /debug/flight and /debug/threads.
  /// Borrowed, optional (404 when absent).
  const FlightRecorder* flight = nullptr;
  /// Sampling profiler behind GET /debug/profile. Borrowed, optional
  /// (404 when absent); mutable because a scrape runs a session.
  SamplingProfiler* profiler = nullptr;
  /// Worker lifecycle hooks forwarded to the underlying net::HttpServer
  /// (e.g. an obs::FlightServerObserver for watchdog heartbeats).
  net::ServerObserver* observer = nullptr;
};

class HttpExporter {
 public:
  /// Binds, listens, and starts the server threads; `registry` (borrowed,
  /// must outlive the exporter) backs GET /metrics. Throws ContractError
  /// when the socket cannot be created or bound.
  explicit HttpExporter(const MetricsRegistry* registry,
                        HttpExporterConfig config = {});

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Stops and joins the server threads.
  ~HttpExporter();

  /// The actually bound port (resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept {
    return server_->port();
  }

  /// Requests answered so far (any status).
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return server_->requests_served();
  }

  /// Idempotent early shutdown (also run by the destructor).
  void stop() { server_->stop(); }

 private:
  ObsSources sources_;
  std::unique_ptr<net::HttpServer> server_;
};

}  // namespace mfcp::obs
