// E4 + E5 — Table I (communication cost to target accuracy) and Fig.
// "train_rounds" (rounds-to-target bars).
//
// Trains ResNet-20/32 and VGG-11 with 10 clients until a target accuracy,
// reporting rounds, per-round/client bytes, total cost, and speedup vs the
// FedAvg baseline — at the bench scale (measured) and extrapolated to the
// paper's full-size models (analytic per-round bytes x measured rounds).
//
// Paper shape to reproduce: SPATL reaches the target in SCAFFOLD-like few
// rounds but with FedAvg-like per-round bytes, so its TOTAL cost is the
// lowest (3-4x less than FedAvg, ~7x less than FedNova).
#include <cstdio>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();
  const double target = 0.45;  // bench-scale stand-in for the paper's 80%
  const std::size_t max_rounds = scale.rounds * 2;

  const std::vector<std::string> archs = {"resnet20", "resnet32", "vgg11"};
  const std::vector<std::string> algos = {"fedavg", "fedprox", "fednova",
                                          "scaffold", "spatl"};

  common::CsvWriter csv(
      csv_path("bench_comm_target_accuracy"),
      {"arch", "algorithm", "target_accuracy", "reached", "rounds",
       "round_client_bytes_measured", "total_bytes_measured",
       "round_client_bytes_fullscale", "total_bytes_fullscale",
       "speedup_vs_fedavg_fullscale"});

  const rl::PpoAgent& agent = shared_pretrained_agent();

  print_header("E4/E5: Communication cost to target accuracy (Table I, Fig. "
               "train_rounds)");
  std::printf("target accuracy (bench scale): %.0f%%\n", target * 100.0);
  std::printf("%-10s %-9s %7s %14s %14s %14s %9s\n", "model", "method",
              "rounds", "round/client", "total(meas)", "total(full)",
              "speedup");

  for (const auto& arch : archs) {
    double fedavg_full_total = 0.0;
    for (const auto& algo : algos) {
      RunSpec spec;
      spec.arch = arch;
      spec.num_clients = 10;
      spec.run.sample_ratio = 1.0;
      spec.run.target_accuracy = target;
      spec.rounds_override = max_rounds;
      const AlgoRun run = run_algorithm(algo, spec, scale,
                                        default_spatl_options(),
                                        algo == "spatl" ? &agent : nullptr);
      const bool reached = run.result.rounds_to_target.has_value();
      const std::size_t rounds =
          run.result.rounds_to_target.value_or(max_rounds);

      // Full-scale extrapolation: measured salient fraction drives the
      // analytic per-round bytes at paper model sizes.
      double sel_fraction = 1.0;
      if (algo == "spatl" && !run.client_sparsities.empty()) {
        double s = 0.0;
        for (double v : run.client_sparsities) s += v;
        sel_fraction = 1.0 - s / double(run.client_sparsities.size());
      }
      const double full_rc =
          full_scale_round_client_bytes(algo, arch, sel_fraction);
      const double full_total = full_rc * double(rounds) * 10.0;
      if (algo == "fedavg") fedavg_full_total = full_total;
      const double speedup =
          fedavg_full_total > 0.0 ? fedavg_full_total / full_total : 1.0;

      std::printf("%-10s %-9s %6zu%s %14s %14s %14s %8.2fx\n", arch.c_str(),
                  algo.c_str(), rounds, reached ? "" : "*",
                  common::format_bytes(full_rc).c_str(),
                  common::format_bytes(run.result.comm.total()).c_str(),
                  common::format_bytes(full_total).c_str(), speedup);
      csv.row_values(arch, algo, target, reached ? 1 : 0, rounds,
                     run.avg_round_client_bytes, run.result.comm.total(),
                     full_rc, full_total, speedup);
    }
    std::printf("\n");
  }
  std::printf("(*) did not reach target within %zu rounds; costs use the cap.\n",
              max_rounds);
  std::printf("CSV written to %s\n",
              csv_path("bench_comm_target_accuracy").c_str());
  return 0;
}
