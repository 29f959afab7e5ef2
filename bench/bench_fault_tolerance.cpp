// E-FT — Fault-tolerant federation: accuracy and communication under client
// dropout, uplink corruption, and lossy links, for FedAvg vs SCAFFOLD vs
// SPATL with the server defenses enabled (validation, bounded retry,
// quorum, survivor re-normalization).
//
// Shape to expect: FedAvg degrades gracefully with dropout (aggregation is
// re-normalized over survivors); SCAFFOLD degrades harder because its
// control variates go stale on clients whose uplinks never commit; SPATL's
// salient uplinks lose less accuracy per unit of corrupted/lost traffic.
// Retransmitted bytes from the retry path are reported as their own CSV
// column so communication-efficiency claims stay honest on lossy links.
#include <cstdio>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

namespace {

struct FaultSetting {
  std::string label;
  double dropout = 0.0;
  double corruption = 0.0;
  double loss = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();

  const std::vector<FaultSetting> settings = {
      {"clean", 0.0, 0.0, 0.0},
      {"dropout20", 0.2, 0.0, 0.0},
      {"dropout40", 0.4, 0.0, 0.0},
      {"corrupt20", 0.0, 0.2, 0.0},
      {"lossy30", 0.0, 0.0, 0.3},
      {"hostile", 0.3, 0.2, 0.3},
  };
  const std::vector<std::string> algos = {"fedavg", "scaffold", "spatl"};

  common::CsvWriter csv(
      csv_path("bench_fault_tolerance"),
      {"algorithm", "setting", "dropout_rate", "corruption_rate", "loss_rate",
       "final_accuracy", "best_accuracy", "delta_vs_clean", "total_bytes",
       "retransmitted_bytes", "dropped", "stragglers", "rejected",
       "retransmissions", "rounds_skipped"});

  const rl::PpoAgent& agent = shared_pretrained_agent();

  print_header("E-FT: Graceful degradation under faults (dropout/corruption/loss)");
  std::printf("%-9s %-10s %8s %8s %8s %12s %10s %7s %7s %6s\n", "method",
              "setting", "acc", "best", "dAcc", "bytes", "retrans", "drop",
              "reject", "skip");

  for (const auto& algo : algos) {
    double clean_best = 0.0;
    for (const auto& f : settings) {
      RunSpec spec = make_resilience_spec();
      fl::FaultConfig fc = make_resilience_faults();
      fc.dropout_rate = f.dropout;
      fc.corruption_rate = f.corruption;
      fc.corruption_kind = fl::CorruptionKind::kNaN;
      fc.loss_rate = f.loss;
      spec.run.faults = fc;
      spec.run.resilience = make_resilience_defenses();
      const AlgoRun run = run_algorithm(algo, spec, scale,
                                        default_spatl_options(),
                                        algo == "spatl" ? &agent : nullptr);
      if (f.label == "clean") clean_best = run.result.best_accuracy;
      const double dacc = run.result.best_accuracy - clean_best;
      std::printf(
          "%-9s %-10s %7.1f%% %7.1f%% %+7.1f%% %12s %10s %7zu %7zu %6zu\n",
          algo.c_str(), f.label.c_str(), run.result.final_accuracy * 100.0,
          run.result.best_accuracy * 100.0, dacc * 100.0,
          common::format_bytes(run.result.comm.total()).c_str(),
          common::format_bytes(run.retransmitted_bytes).c_str(),
          run.result.total("dropped"), run.result.total("rejected"),
          run.result.total("skipped"));
      csv.row_values(algo, f.label, f.dropout, f.corruption, f.loss,
                     run.result.final_accuracy, run.result.best_accuracy,
                     dacc, run.result.comm.total(), run.retransmitted_bytes,
                     run.result.total("dropped"),
                     run.result.total("stragglers"),
                     run.result.total("rejected"),
                     run.result.total("retransmissions"),
                     run.result.total("skipped"));
    }
    std::printf("\n");
  }
  std::printf("CSV written to %s\n", csv_path("bench_fault_tolerance").c_str());
  return 0;
}
