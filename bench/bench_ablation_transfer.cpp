// E11 — Fig. 5(a) ablation: transfer learning vs no transfer learning.
//
// SPATL with heterogeneous local predictors (knowledge transfer) vs the
// uniform-model variant that shares and aggregates the predictor too.
// ResNet-20, 10 clients, all sampled.
//
// Paper shape to reproduce: without transfer learning the uniform model
// performs clearly worse on non-IID clients; the local predictor is what
// absorbs heterogeneity.
#include <cstdio>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();

  RunSpec spec;
  spec.arch = "resnet20";
  spec.num_clients = 10;
  spec.run.sample_ratio = 1.0;
  spec.beta = 0.3;  // strong non-IID, where transfer matters most

  auto with_tl = default_spatl_options();
  auto without_tl = with_tl;
  without_tl.transfer_learning = false;

  const rl::PpoAgent& agent = shared_pretrained_agent();
  const AlgoRun on = run_algorithm("spatl", spec, scale, with_tl, &agent);
  const AlgoRun off = run_algorithm("spatl", spec, scale, without_tl, &agent);

  common::CsvWriter csv(csv_path("bench_ablation_transfer"),
                        {"variant", "round", "avg_accuracy"});

  print_header("E11: Transfer learning vs no transfer learning (Fig. 5a)");
  std::printf("%-8s %18s %18s\n", "round", "with transfer", "no transfer");
  for (std::size_t r = 0; r < on.result.history.size(); ++r) {
    std::printf("%-8zu %17.1f%% %17.1f%%\n", on.result.history[r].round,
                on.result.history[r].avg_accuracy * 100.0,
                off.result.history[r].avg_accuracy * 100.0);
    csv.row_values("transfer", on.result.history[r].round,
                   on.result.history[r].avg_accuracy);
    csv.row_values("uniform", off.result.history[r].round,
                   off.result.history[r].avg_accuracy);
  }
  std::printf("\nfinal: transfer %.1f%% vs uniform %.1f%%\n",
              on.result.best_accuracy * 100.0,
              off.result.best_accuracy * 100.0);
  std::printf("CSV written to %s\n", csv_path("bench_ablation_transfer").c_str());
  return 0;
}
