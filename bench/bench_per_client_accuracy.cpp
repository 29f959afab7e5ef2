// E3 — Fig. "local_acc": per-client accuracy of the deployed models after
// training (ResNet-20, 10 clients), SPATL vs SCAFFOLD (+ FedAvg for
// reference).
//
// Paper shape to reproduce: SPATL's heterogeneous predictors give every
// client similar (and higher) accuracy, while uniform-model baselines show
// high variance across clients — some clients land far from the global
// distribution and suffer.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();

  const std::vector<std::string> algos = {"spatl", "scaffold", "fedavg"};
  const std::size_t clients = 10;

  common::CsvWriter csv(csv_path("bench_per_client_accuracy"),
                        {"algorithm", "client", "accuracy"});

  const rl::PpoAgent& agent = shared_pretrained_agent();

  print_header("E3: Per-client accuracy after training (Fig. local_acc)");
  std::printf("%-10s", "client");
  for (const auto& a : algos) std::printf("%12s", a.c_str());
  std::printf("\n");

  std::vector<AlgoRun> runs;
  for (const auto& algo : algos) {
    RunSpec spec;
    spec.arch = "resnet20";
    spec.num_clients = clients;
    spec.run.sample_ratio = 1.0;
    spec.beta = 0.3;  // strong heterogeneity exposes the variance gap
    spec.capture_per_client = true;
    runs.push_back(run_algorithm(algo, spec, scale, default_spatl_options(),
                                 algo == "spatl" ? &agent : nullptr));
  }
  for (std::size_t c = 0; c < clients; ++c) {
    std::printf("%-10zu", c);
    for (std::size_t a = 0; a < algos.size(); ++a) {
      const double acc = runs[a].per_client_accuracy[c];
      std::printf("%11.1f%%", acc * 100.0);
      csv.row_values(algos[a], c, acc);
    }
    std::printf("\n");
  }
  // Summary: mean and standard deviation across clients.
  std::printf("%-10s", "mean");
  for (const auto& run : runs) {
    double m = 0.0;
    for (double v : run.per_client_accuracy) m += v;
    m /= double(clients);
    std::printf("%11.1f%%", m * 100.0);
  }
  std::printf("\n%-10s", "stddev");
  for (const auto& run : runs) {
    double m = 0.0, var = 0.0;
    for (double v : run.per_client_accuracy) m += v;
    m /= double(clients);
    for (double v : run.per_client_accuracy) var += (v - m) * (v - m);
    std::printf("%11.1f%%", std::sqrt(var / double(clients)) * 100.0);
  }
  std::printf("\n\nCSV written to %s\n",
              csv_path("bench_per_client_accuracy").c_str());
  return 0;
}
