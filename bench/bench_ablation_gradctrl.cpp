// E12 — Fig. 5(b) ablation: gradient control vs no gradient control.
//
// SPATL's encoder control variates on vs off, VGG-11 on 10 clients.
//
// Paper shape to reproduce: heterogeneous local gradients make the
// uncontrolled run noisier / slower to converge; the control variates
// stabilize training and lift the curve.
#include <cstdio>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();

  RunSpec spec;
  spec.arch = "vgg11";
  spec.num_clients = 10;
  spec.run.sample_ratio = 1.0;
  spec.beta = 0.3;
  // Control variates need warm drift estimates before they pay off (the
  // same late-crossover SCAFFOLD shows); run longer than the default.
  spec.rounds_override = scale.rounds + scale.rounds / 2;

  auto with_gc = default_spatl_options();
  auto without_gc = with_gc;
  without_gc.gradient_control = false;

  const rl::PpoAgent& agent = shared_pretrained_agent();
  const AlgoRun on = run_algorithm("spatl", spec, scale, with_gc, &agent);
  const AlgoRun off = run_algorithm("spatl", spec, scale, without_gc, &agent);

  common::CsvWriter csv(csv_path("bench_ablation_gradctrl"),
                        {"variant", "round", "avg_accuracy", "avg_loss"});

  print_header("E12: Gradient control vs no gradient control (Fig. 5b)");
  std::printf("%-8s %22s %22s\n", "round", "with gradient control",
              "no gradient control");
  for (std::size_t r = 0; r < on.result.history.size(); ++r) {
    std::printf("%-8zu %21.1f%% %21.1f%%\n", on.result.history[r].round,
                on.result.history[r].avg_accuracy * 100.0,
                off.result.history[r].avg_accuracy * 100.0);
    csv.row_values("gradient_control", on.result.history[r].round,
                   on.result.history[r].avg_accuracy,
                   on.result.history[r].avg_loss);
    csv.row_values("none", off.result.history[r].round,
                   off.result.history[r].avg_accuracy,
                   off.result.history[r].avg_loss);
  }
  std::printf("\nfinal: controlled %.1f%% vs uncontrolled %.1f%%\n",
              on.result.best_accuracy * 100.0,
              off.result.best_accuracy * 100.0);
  std::printf("CSV written to %s\n", csv_path("bench_ablation_gradctrl").c_str());
  return 0;
}
