#include "obs/http_exporter.hpp"

namespace mfcp::obs {

HttpExporter::HttpExporter(const MetricsRegistry* registry,
                           HttpExporterConfig config)
    : sources_{registry, config.flight, config.profiler} {
  net::HttpServerConfig server_config;
  server_config.bind_address = std::move(config.bind_address);
  server_config.port = config.port;
  server_config.listen_backlog = config.listen_backlog;
  server_config.receive_timeout_ms = config.receive_timeout_ms;
  server_config.worker_threads = config.worker_threads;
  server_config.observer = config.observer;
  server_ = std::make_unique<net::HttpServer>(
      [this](const net::HttpRequest& request) {
        std::optional<net::HttpResponse> response =
            route_obs_request(request, sources_);
        return response.has_value() ? std::move(*response)
                                    : net::unrouted_response(request);
      },
      server_config);
}

HttpExporter::~HttpExporter() { stop(); }

}  // namespace mfcp::obs
