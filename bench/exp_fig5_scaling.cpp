// Reproduces Figure 5 of the paper: Regret and Cluster Utilization as the
// number of tasks per matching round grows (setting A, all five methods).
//
// Expected shape (paper §4.4): regret grows roughly linearly in N for all
// methods, with MFCP-AD ≈ MFCP-FG lowest throughout; utilization rises
// with N for every method, ordered MFCP > UCB > TSM > TAM.
//
// Run:  ./build/bench/exp_fig5_scaling            (N = 5, 10, 15, 20)
//       ./build/bench/exp_fig5_scaling --full     (N = 5, 10, 15, 20, 25)
//       ./build/bench/exp_fig5_scaling --quick    (N = 5, 10)
// Any other argument prints usage and exits 2.
#include <cstdio>
#include <cstring>

#include "mfcp/experiment.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

using namespace mfcp;

int main(int argc, char** argv) {
  // Default: a compute-matched sweep that a single core regenerates in
  // minutes. --full extends to the paper's N = 25; --quick shrinks to two
  // points for smoke testing.
  const bool quick = argc == 2 && std::strcmp(argv[1], "--quick") == 0;
  const bool full = argc == 2 && std::strcmp(argv[1], "--full") == 0;
  if (argc > 1 && !quick && !full) {
    std::fprintf(stderr, "usage: %s [--quick | --full]\n", argv[0]);
    return 2;
  }
  std::vector<std::size_t> task_counts = {5, 10, 15, 20};
  if (quick) {
    task_counts = {5, 10};
  } else if (full) {
    task_counts = {5, 10, 15, 20, 25};
  }
  const std::vector<core::Method> methods = {
      core::Method::kTam, core::Method::kTsm, core::Method::kUcb,
      core::Method::kMfcpAd, core::Method::kMfcpFg};

  std::printf("== Figure 5: scaling the number of tasks per round ==\n");
  ThreadPool pool;
  Stopwatch total;
  Table regret_table({"N", "TAM", "TSM", "UCB", "MFCP-AD", "MFCP-FG"});
  Table util_table({"N", "TAM", "TSM", "UCB", "MFCP-AD", "MFCP-FG"});

  for (const std::size_t n : task_counts) {
    core::ExperimentConfig cfg;
    cfg.setting = sim::Setting::kA;
    cfg.num_clusters = 3;
    cfg.round_tasks = n;
    cfg.train_tasks = 60;
    cfg.test_tasks = std::max<std::size_t>(60, 2 * n);
    cfg.test_rounds = 20;
    cfg.gamma = 0.75;
    cfg.predictor.hidden = {2};
    cfg.tsm.epochs = 300;
    cfg.mfcp.pretrain_epochs = 300;
    cfg.mfcp_ad.pretrain_epochs = 300;
    // Compute-matched training across N: the per-epoch solve cost grows
    // with N, so the epoch budget shrinks accordingly.
    cfg.mfcp.epochs = std::max<std::size_t>(30, 200 / n);
    cfg.mfcp.forward_gradient.samples = 8;
    // Larger N makes the exact reference solve harder; keep B&B bounded
    // (anytime incumbent documented in EXPERIMENTS.md).
    cfg.eval.exact.node_budget = 20'000'000;

    const auto ctx = core::make_context(cfg);
    std::vector<std::string> regret_row = {std::to_string(n)};
    std::vector<std::string> util_row = {std::to_string(n)};
    for (const auto method : methods) {
      const auto result = core::run_method(method, ctx, cfg, &pool);
      regret_row.push_back(
          format_mean_std(result.metrics.regret().mean(),
                          result.metrics.regret().stddev()));
      util_row.push_back(
          format_mean_std(result.metrics.utilization().mean(),
                          result.metrics.utilization().stddev()));
      std::printf("  [N=%zu] %-8s done (train %.1fs)\n", n,
                  result.label.c_str(), result.train_seconds);
    }
    regret_table.add_row(std::move(regret_row));
    util_table.add_row(std::move(util_row));
  }

  std::printf("\nRegret vs N:\n%s\n", regret_table.to_string().c_str());
  std::printf("Utilization vs N:\n%s\n", util_table.to_string().c_str());
  regret_table.write_csv("fig5_regret.csv");
  util_table.write_csv("fig5_utilization.csv");
  std::printf("CSVs written to fig5_regret.csv / fig5_utilization.csv "
              "(%.1fs total)\n",
              total.seconds());
  return 0;
}
