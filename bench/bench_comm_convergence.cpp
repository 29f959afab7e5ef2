// E6 — Table II: converge rounds, communication cost, and converge accuracy
// at larger federations (the paper's 30/50/100-client settings, scaled to
// 20/30 clients at bench size; SPATL_BENCH_SCALE=large widens this).
//
// Paper shape to reproduce: gradient-control baselines buy accuracy with
// ~2x communication; SPATL gets the best accuracy with FedAvg-like (or
// lower) cost; SCAFFOLD destabilizes as the client count grows; the SPATL
// advantage widens with heterogeneity.
#include <cstdio>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

namespace {

/// "Converge round": first evaluated round reaching 98% of the run's best
/// accuracy.
std::size_t converge_round(const fl::RunResult& r) {
  for (const auto& rec : r.history) {
    if (rec.avg_accuracy >= 0.98 * r.best_accuracy) return rec.round;
  }
  return r.history.empty() ? 0 : r.history.back().round;
}

}  // namespace

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();

  struct Setting {
    std::string arch;
    std::size_t clients;
    double ratio;
  };
  const std::vector<Setting> settings = {
      {"resnet20", 15, 0.4},
      {"resnet20", 20, 0.6},
      {"vgg11", 15, 0.4},
  };
  const std::vector<std::string> algos = {"fedavg", "fedprox", "fednova",
                                          "scaffold", "spatl"};

  common::CsvWriter csv(
      csv_path("bench_comm_convergence"),
      {"arch", "clients", "sample_ratio", "algorithm", "converge_round",
       "total_bytes_measured", "speedup_vs_fedavg", "converge_accuracy",
       "delta_accuracy_vs_fedavg"});

  const rl::PpoAgent& agent = shared_pretrained_agent();

  print_header("E6: Convergence cost and accuracy (Table II)");
  std::printf("%-10s %-8s %-6s %-9s %8s %12s %8s %9s %8s\n", "model",
              "clients", "ratio", "method", "rounds", "cost", "speedup",
              "acc", "dAcc");

  for (const auto& s : settings) {
    double fedavg_bytes = 0.0, fedavg_acc = 0.0;
    for (const auto& algo : algos) {
      RunSpec spec;
      spec.arch = s.arch;
      spec.num_clients = s.clients;
      spec.sample_ratio = s.ratio;
      const AlgoRun run = run_algorithm(algo, spec, scale,
                                        default_spatl_options(),
                                        algo == "spatl" ? &agent : nullptr);
      const std::size_t rounds = converge_round(run.result);
      if (algo == "fedavg") {
        fedavg_bytes = run.result.comm.total();
        fedavg_acc = run.result.best_accuracy;
      }
      const double speedup =
          run.result.comm.total() > 0 ? fedavg_bytes / run.result.comm.total()
                                     : 1.0;
      const double dacc = run.result.best_accuracy - fedavg_acc;
      std::printf("%-10s %-8zu %-6.1f %-9s %8zu %12s %7.2fx %8.1f%% %+7.1f%%\n",
                  s.arch.c_str(), s.clients, s.ratio, algo.c_str(), rounds,
                  common::format_bytes(run.result.comm.total()).c_str(),
                  speedup, run.result.best_accuracy * 100.0, dacc * 100.0);
      csv.row_values(s.arch, s.clients, s.ratio, algo, rounds,
                     run.result.comm.total(), speedup,
                     run.result.best_accuracy, dacc);
    }
    std::printf("\n");
  }
  std::printf("CSV written to %s\n", csv_path("bench_comm_convergence").c_str());
  return 0;
}
