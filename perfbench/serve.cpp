// The served stack under test: the same assembly as
// `examples/online_platform --gateway-port 0 --data-dir DIR` — pretrained
// predictor, online engine with attribution and a ThreadPool, GatewayLink
// whose WAL logs each acceptance before its 200, PlatformGateway on an
// ephemeral loopback port, OnlineEngine::serve() on a 60 h/s clock, and a
// StorageManager under DIR with its default group commit.
//
// Untraced (--trace 0) the gateway and engine get no observation hook:
// no registry, trace ring, task traces, SLO monitor or journal, so GET
// /metrics answers 404. Traced (--trace 1) attaches the hooks the program
// exposes: a registry (engine + gateway + process default), trace rings
// that hold every engine stage span and gateway submit span, and a
// TraceStore sampling every task behind GET /trace/<id>.
//
// Prints "port N" once the gateway listens. SIGTERM stops serving: the
// link drains, queued work flushes through final rounds, and the raw
// per-round results are written to --out.
#include <csignal>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "common.hpp"
#include "engine/engine.hpp"
#include "mfcp/trainer_tsm.hpp"
#include "net/gateway.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_store.hpp"
#include "sim/dataset.hpp"
#include "storage/storage.hpp"

namespace perfbench {
namespace {

using namespace mfcp;

std::atomic<bool> g_stop{false};

/// online_platform's default serve clock.
constexpr double kHoursPerSecond = 60.0;
/// Spans and traces one traced server can hold: far above the stage
/// spans and submits of a phase at the overload rate.
constexpr std::size_t kRingCapacity = 1 << 18;

void handle_stop_signal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

/// online_platform's engine configuration (its synthetic stream is not
/// consumed in serve mode; the drift at 2.5 h is), with the predictor
/// frozen: retrain bursts belong to replay_drift, and a served run's
/// regret would otherwise hinge on which batches a burst happened to see.
engine::EngineConfig platform_config() {
  engine::EngineConfig cfg;
  cfg.arrivals.rate_per_hour = 30.0;
  cfg.arrivals.burst_factor = 2.5;
  cfg.arrivals.burst_period_hours = 1.5;
  cfg.arrivals.max_arrivals = 300;
  cfg.profile_probability = 0.15;
  cfg.batcher.max_batch = 5;
  cfg.batcher.max_wait_hours = 0.25;
  cfg.gamma = 0.7;
  cfg.metrics_window = 8;
  cfg.trainer.retrain_epochs = 50;
  cfg.trainer.drift.ratio_threshold = 1.25;
  cfg.trainer.replay_recency_half_life = 128.0;
  cfg.attribution = true;
  cfg.online_retraining = false;
  engine::DriftEventSpec drift;
  drift.at_hours = 2.5;
  drift.cluster = 0;
  drift.drift.time_scale = 5.0;
  drift.drift.reliability_logit_shift = -1.5;
  cfg.drift_events.push_back(drift);
  return cfg;
}

std::vector<double> span_ms(const obs::TraceRing& ring,
                            std::string_view name) {
  std::vector<double> ms;
  for (const obs::SpanRecord& s : ring.snapshot()) {
    if (std::string_view(s.name) == name) {
      ms.push_back(static_cast<double>(s.duration_ns) / 1e6);
    }
  }
  return ms;
}

}  // namespace

int run_serve(const Args& args) {
  const bool traced = args.u64("--trace") != 0;
  const std::string data_dir = args.str("--data-dir");
  const std::string out_path = args.str("--out");

  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  const std::size_t num_clusters = 3;
  sim::Platform platform =
      sim::Platform::make_setting(sim::Setting::kA, num_clusters);
  sim::PseudoGnnEmbedder embedder;
  sim::DatasetConfig data_cfg;
  data_cfg.num_tasks = 100;
  const sim::Dataset profile = build_dataset(platform, embedder, data_cfg);
  Rng init(0x0417e5ULL);
  core::PlatformPredictor predictor(num_clusters, core::PredictorConfig{},
                                    init);
  core::TsmConfig tsm;
  tsm.epochs = 250;
  core::train_tsm(predictor, profile, tsm);

  engine::EngineConfig cfg = platform_config();
  cfg.stop_flag = &g_stop;

  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::TraceRing> engine_ring;
  std::unique_ptr<obs::TraceRing> gateway_ring;
  std::unique_ptr<obs::TraceStore> task_traces;
  if (traced) {
    registry = std::make_unique<obs::MetricsRegistry>();
    engine_ring = std::make_unique<obs::TraceRing>(kRingCapacity);
    gateway_ring = std::make_unique<obs::TraceRing>(kRingCapacity);
    task_traces = std::make_unique<obs::TraceStore>(kRingCapacity);
    cfg.registry = registry.get();
    cfg.trace = engine_ring.get();
    cfg.task_traces = task_traces.get();
    cfg.trace_sample_rate = 1.0;
    obs::set_default_registry(registry.get());
  }

  storage::StorageConfig st_cfg;
  st_cfg.dir = data_dir;
  storage::StorageManager storage(st_cfg);
  if (traced) {
    storage.bind_metrics(registry.get());
  }
  cfg.storage = &storage;

  ThreadPool pool;
  engine::OnlineEngine eng(cfg, platform, embedder, predictor, &pool);
  engine::GatewayLinkConfig link_cfg;
  link_cfg.traces = task_traces.get();
  link_cfg.trace_sample_rate = traced ? 1.0 : 0.0;
  link_cfg.wal = &storage.wal();
  engine::GatewayLink link(link_cfg);
  eng.recover(&link);

  net::GatewayConfig gateway_cfg;
  gateway_cfg.http.port = 0;
  gateway_cfg.traces = task_traces.get();
  gateway_cfg.storage = &storage;
  net::PlatformGateway gateway(link, registry.get(), gateway_ring.get(),
                               gateway_cfg);
  std::printf("port %u\n", static_cast<unsigned>(gateway.port()));
  std::fflush(stdout);

  engine::ServeConfig serve_cfg;
  serve_cfg.hours_per_second = kHoursPerSecond;
  const double cpu0 = process_cpu_s();
  const engine::EngineResult result = eng.serve(link, serve_cfg);
  gateway.stop();
  const double cpu1 = process_cpu_s();
  obs::set_default_registry(nullptr);

  Json j;
  j.open('{');
  j.key("wall_s").num(result.wall_seconds);
  j.key("cpu_s").num(cpu1 - cpu0);
  j.key("drift_at_hours").num(cfg.drift_events.front().at_hours);
  j.key("retrains").integer(
      static_cast<std::int64_t>(result.counters.retrains));
  std::vector<double> regret, close_hours, solve_ms, batch;
  std::int64_t attr_inexact = 0;
  for (const engine::RoundRecord& r : result.rounds) {
    regret.push_back(r.regret);
    close_hours.push_back(r.close_hours);
    solve_ms.push_back(r.solve_seconds * 1e3);
    batch.push_back(static_cast<double>(r.batch));
    attr_inexact += (r.attribution.valid && r.attribution.exact()) ? 0 : 1;
  }
  j.nums("regret", regret);
  j.nums("close_hours", close_hours);
  j.nums("solve_ms", solve_ms);
  j.nums("batch", batch);
  j.key("attr_inexact").integer(attr_inexact);
  if (traced) {
    j.key("trace").open('{');
    j.key("ring_recorded").integer(static_cast<std::int64_t>(
        std::max(engine_ring->recorded(), gateway_ring->recorded())));
    j.key("ring_capacity").integer(
        static_cast<std::int64_t>(engine_ring->capacity()));
    for (const char* name :
         {"embed", "predict", "match", "attribute", "dispatch"}) {
      j.nums(std::string("span_") + name + "_ms", span_ms(*engine_ring, name));
    }
    j.nums("span_gateway_submit_ms", span_ms(*gateway_ring, "gateway_submit"));
    j.close('}');
  }
  j.key("peak_rss_mb").num(peak_rss_mb());
  j.close('}');
  write_file(out_path, j.text());
  return 0;
}

}  // namespace perfbench
