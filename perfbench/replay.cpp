// replay_drift: OnlineEngine::run() on seeded bursty arrival streams with
// one mid-stream cluster drift, on the online-arm configuration of
// bench/exp_online_engine (online retraining and regret attribution on,
// ThreadPool attached, virtual clock).
//
// The scenario (platform, embedder, profiled dataset, TSM pretraining) is
// fixed, so set-up cost does not depend on the seed; the seed picks the
// arrival streams and the dispatch randomness. A run replays `--streams`
// distinct streams once each (regret is taken over exactly these, so it
// is a pure function of the seed), then replays stream 0 again so its
// per-round regret can be compared with the first replay, then keeps
// cycling through the streams until `--seconds` have passed (throughput
// counts every replay). Every replay starts from the same pretrained
// weights.
//
// Untraced (--trace 0) replays attach no observation hook at all. The
// traced pass attaches the engine registry (also installed as the process
// default for solver and pool metrics), a TraceRing that holds every
// stage span of a replay, and a TraceStore sampling every task.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "engine/engine.hpp"
#include "mfcp/trainer_tsm.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_store.hpp"
#include "sim/dataset.hpp"

namespace perfbench {
namespace {

using namespace mfcp;

constexpr std::size_t kClusters = 3;
constexpr std::size_t kProfileTasks = 120;
constexpr std::uint64_t kScenarioSeed = 42;

struct Scenario {
  sim::Platform platform;
  sim::PseudoGnnEmbedder embedder;
  std::unique_ptr<core::PlatformPredictor> pretrained;
  std::size_t drift_cluster = 0;
};

Scenario build_scenario() {
  sim::Platform platform =
      sim::Platform::make_setting(sim::Setting::kA, kClusters);
  sim::EmbedderConfig embed_cfg;
  embed_cfg.seed = 0xe1bedULL ^ kScenarioSeed;
  sim::PseudoGnnEmbedder embedder(embed_cfg);
  sim::DatasetConfig data_cfg;
  data_cfg.num_tasks = kProfileTasks;
  data_cfg.task_seed = 0x7a5cULL ^ kScenarioSeed;
  data_cfg.noise_seed = 0x401feULL ^ kScenarioSeed;
  const sim::Dataset data = build_dataset(platform, embedder, data_cfg);

  Rng init(0xbeefULL ^ kScenarioSeed);
  auto pretrained = std::make_unique<core::PlatformPredictor>(
      kClusters, core::PredictorConfig{}, init);
  core::TsmConfig tsm;
  tsm.epochs = 300;
  core::train_tsm(*pretrained, data, tsm);

  // Drift the cluster the pretrained predictor likes most for an average
  // task, as exp_online_engine does: a stale predictor pays most there.
  const Matrix t_hat = pretrained->predict_time_matrix(data.features);
  std::size_t drift_cluster = 0;
  double best = 0.0;
  for (std::size_t i = 0; i < kClusters; ++i) {
    double mean = 0.0;
    for (std::size_t j = 0; j < t_hat.cols(); ++j) {
      mean += t_hat(i, j);
    }
    mean /= static_cast<double>(t_hat.cols());
    if (i == 0 || mean < best) {
      best = mean;
      drift_cluster = i;
    }
  }
  return Scenario{std::move(platform), std::move(embedder),
                  std::move(pretrained), drift_cluster};
}

void clone_weights(core::PlatformPredictor& from,
                   core::PlatformPredictor& to) {
  for (std::size_t i = 0; i < from.num_clusters(); ++i) {
    std::stringstream t_buf;
    nn::save_mlp(t_buf, from.cluster(i).time_model());
    nn::load_mlp(t_buf, to.cluster(i).time_model());
    std::stringstream a_buf;
    nn::save_mlp(a_buf, from.cluster(i).reliability_model());
    nn::load_mlp(a_buf, to.cluster(i).reliability_model());
  }
}

/// Mean arrival rate of the bursty stream below (tasks per sim hour).
constexpr double kEffectiveRate = 40.0 * (0.25 * 3.0 + 0.75);

/// The drift lands when about half of a stream has arrived.
double drift_at_hours(std::size_t arrivals) {
  return static_cast<double>(arrivals) / 2.0 / kEffectiveRate;
}

engine::EngineConfig online_arm_config(std::uint64_t seed,
                                       std::size_t stream,
                                       std::size_t arrivals,
                                       std::size_t drift_cluster) {
  engine::EngineConfig cfg;
  cfg.arrivals.rate_per_hour = 40.0;
  cfg.arrivals.burst_factor = 3.0;
  cfg.arrivals.burst_period_hours = 2.0;
  cfg.arrivals.burst_duty = 0.25;
  cfg.arrivals.deadline_hours = 2.0;
  cfg.arrivals.max_arrivals = arrivals;
  cfg.queue.capacity = 48;
  cfg.batcher.max_batch = 6;
  cfg.batcher.max_wait_hours = 0.3;
  cfg.gamma = 0.7;
  cfg.online_retraining = true;
  cfg.profile_probability = 0.15;
  cfg.metrics_window = 12;
  cfg.trainer.retrain_epochs = 60;
  cfg.trainer.learning_rate = 8e-3;
  cfg.attribution = true;
  // Stream-specific randomness; everything else is the fixed scenario.
  Rng mix(seed * 0x9e3779b97f4a7c15ULL + stream + 1);
  cfg.arrivals.seed = mix.next_u64();
  cfg.seed = mix.next_u64();

  engine::DriftEventSpec drift;
  drift.at_hours = drift_at_hours(arrivals);
  drift.cluster = drift_cluster;
  drift.drift.time_scale = 4.0;
  drift.drift.reliability_logit_shift = -1.5;
  cfg.drift_events.push_back(drift);
  return cfg;
}

/// Per-name wall durations (ms) of the stage spans a TraceRing holds.
void stage_spans(Json& j, const obs::TraceRing& ring) {
  const std::vector<obs::SpanRecord> spans = ring.snapshot();
  for (const char* name : {"embed", "predict", "match", "attribute",
                           "dispatch"}) {
    std::vector<double> ms;
    for (const obs::SpanRecord& s : spans) {
      if (std::string_view(s.name) == name) {
        ms.push_back(static_cast<double>(s.duration_ns) / 1e6);
      }
    }
    j.nums(std::string("span_") + name + "_ms", ms);
  }
}

/// Queue-wait and batch-wait (simulated hours) of every traced task.
void task_waits(Json& j, const obs::TraceStore& store) {
  std::vector<double> queue_wait;
  std::vector<double> batch_wait;
  for (const obs::TaskTrace& t : store.snapshot()) {
    for (const obs::TaskSpan& s : t.spans) {
      if (s.name == "queue_wait") {
        queue_wait.push_back(s.end_hours - s.start_hours);
      } else if (s.name == "batch") {
        batch_wait.push_back(s.end_hours - s.start_hours);
      }
    }
  }
  j.nums("queue_wait_h", queue_wait);
  j.nums("batch_wait_h", batch_wait);
}

void registry_values(Json& j, const obs::MetricsRegistry& registry) {
  const obs::RegistrySnapshot snap = registry.snapshot();
  j.key("counters").open('{');
  for (const auto& [name, value] : snap.counters) {
    j.key(name).integer(static_cast<std::int64_t>(value));
  }
  j.close('}');
  j.key("histograms").open('{');
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    j.key(h.name).open('{');
    j.key("sum").num(h.sum);
    j.key("count").integer(static_cast<std::int64_t>(h.count));
    j.close('}');
  }
  j.close('}');
}

}  // namespace

int run_replay(const Args& args) {
  const std::uint64_t seed = args.u64("--seed");
  const double seconds = args.num("--seconds");
  const bool traced = args.u64("--trace") != 0;
  const auto arrivals = static_cast<std::size_t>(args.u64("--arrivals"));
  const auto streams = static_cast<std::size_t>(args.u64("--streams"));
  const auto setups = static_cast<std::size_t>(args.u64("--setups"));
  const std::string out_path = args.str("--out");
  SpanLog spans(traced);

  // Set-up is repeated so its median is steady; the last scenario serves
  // the measurement (all are identical).
  std::vector<double> setup_s;
  std::optional<Scenario> built;
  for (std::size_t k = 0; k < std::max<std::size_t>(setups, 1); ++k) {
    const Clock::time_point t0 = Clock::now();
    built.emplace(build_scenario());
    Rng clone_init(0x5eedULL);
    core::PlatformPredictor predictor(kClusters, core::PredictorConfig{},
                                      clone_init);
    clone_weights(*built->pretrained, predictor);
    engine::OnlineEngine probe(
        online_arm_config(seed, 0, arrivals, built->drift_cluster),
        built->platform, built->embedder, predictor);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }

  const Scenario& scenario = *built;
  ThreadPool pool;
  Json j;
  j.open('{');
  j.nums("setup_s", setup_s);
  j.key("drift_at_hours").num(drift_at_hours(arrivals));
  j.key("streams").integer(static_cast<std::int64_t>(streams));
  j.key("replays").open('[');

  const Clock::time_point start = Clock::now();
  for (std::size_t replay = 0;; ++replay) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (replay > streams && elapsed >= seconds) {
      break;
    }
    const std::size_t stream = replay % streams;
    Rng clone_init(0x5eedULL);
    core::PlatformPredictor predictor(kClusters, core::PredictorConfig{},
                                      clone_init);
    clone_weights(*scenario.pretrained, predictor);
    engine::EngineConfig cfg =
        online_arm_config(seed, stream, arrivals, scenario.drift_cluster);

    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<obs::TraceRing> ring;
    std::unique_ptr<obs::TraceStore> task_traces;
    if (traced) {
      registry = std::make_unique<obs::MetricsRegistry>();
      // At most five stage spans per round, at most one round per
      // arrival.
      ring = std::make_unique<obs::TraceRing>(8 * arrivals + 64);
      task_traces = std::make_unique<obs::TraceStore>(arrivals + 64);
      cfg.registry = registry.get();
      cfg.trace = ring.get();
      cfg.task_traces = task_traces.get();
      cfg.trace_sample_rate = 1.0;
      obs::set_default_registry(registry.get());
    }
    engine::OnlineEngine eng(cfg, scenario.platform, scenario.embedder,
                             predictor, &pool);
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    const engine::EngineResult result = eng.run();
    const Clock::time_point t1 = Clock::now();
    const double cpu1 = process_cpu_s();
    obs::set_default_registry(nullptr);
    spans.add("run", replay + 1, 0, to_us(t0 - start), to_us(t1 - start));

    j.open('{');
    j.key("stream").integer(static_cast<std::int64_t>(stream));
    j.key("wall_s").num(std::chrono::duration<double>(t1 - t0).count());
    j.key("cpu_s").num(cpu1 - cpu0);
    j.key("arrivals").integer(
        static_cast<std::int64_t>(result.counters.arrivals));
    j.key("dispatched").integer(
        static_cast<std::int64_t>(result.queue.dispatched));
    j.key("dropped_capacity").integer(
        static_cast<std::int64_t>(result.queue.dropped_capacity));
    j.key("expired").integer(static_cast<std::int64_t>(result.queue.expired));
    j.key("retrains").integer(
        static_cast<std::int64_t>(result.counters.retrains));
    std::vector<double> regret, close_hours, solve_ms, batch;
    std::vector<double> pred_gap, solver_gap, rounding_gap, admission_gap,
        attr_total;
    std::int64_t attr_invalid = 0;
    for (const engine::RoundRecord& r : result.rounds) {
      regret.push_back(r.regret);
      close_hours.push_back(r.close_hours);
      solve_ms.push_back(r.solve_seconds * 1e3);
      batch.push_back(static_cast<double>(r.batch));
      attr_invalid += r.attribution.valid ? 0 : 1;
      pred_gap.push_back(r.attribution.pred_gap);
      solver_gap.push_back(r.attribution.solver_gap);
      rounding_gap.push_back(r.attribution.rounding_gap);
      admission_gap.push_back(r.attribution.admission_gap);
      attr_total.push_back(r.attribution.total);
    }
    j.nums("regret", regret);
    j.nums("close_hours", close_hours);
    j.nums("solve_ms", solve_ms);
    j.nums("batch", batch);
    j.key("attr_invalid").integer(attr_invalid);
    j.nums("pred_gap", pred_gap);
    j.nums("solver_gap", solver_gap);
    j.nums("rounding_gap", rounding_gap);
    j.nums("admission_gap", admission_gap);
    j.nums("attr_total", attr_total);
    if (traced) {
      j.key("trace").open('{');
      j.key("ring_recorded").integer(
          static_cast<std::int64_t>(ring->recorded()));
      j.key("ring_capacity").integer(
          static_cast<std::int64_t>(ring->capacity()));
      stage_spans(j, *ring);
      task_waits(j, *task_traces);
      registry_values(j, *registry);
      j.close('}');
    }
    j.close('}');
  }
  j.close(']');
  j.key("peak_rss_mb").num(peak_rss_mb());
  j.close('}');
  write_file(out_path, j.text());
  spans.write(out_path + ".spans.jsonl");
  return 0;
}

}  // namespace perfbench
