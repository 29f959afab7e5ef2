// E-BYZ — Byzantine-robust aggregation: final accuracy under adversarial
// clients, attack type x attacker fraction x robust aggregator, for FedAvg
// vs SCAFFOLD vs SPATL on the shared resilience baseline (SynthCIFAR,
// ResNet-20, 12 clients, 75% participation).
//
// Shape to expect: the plain weighted mean collapses under every attack
// (a single scaled update dominates the average; colluding fixed-direction
// attackers steer it); coordinate-wise median and trimmed mean hold as long
// as attackers stay below half of each coordinate's contributors; Krum
// additionally names the attackers (the `suspected` column counts its
// exclusions). SPATL's masked uplinks are attacked on the salient positions
// only, so per-coordinate owner counts matter — the robust aggregators run
// over the clients that transmitted each coordinate. SCAFFOLD is the
// fragile one: even with a robust rule on both its aggregates, honest
// clients' control variates drift on a poisoned global, so sign-flip can
// pin it at chance level where only Krum's wholesale exclusion recovers —
// the same degrades-hardest shape bench_fault_tolerance shows for it.
#include <cstdio>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

namespace {

struct AttackSetting {
  std::string label;
  fl::AttackKind kind = fl::AttackKind::kSignFlip;
  double scale = 10.0;
};

/// Exactly 4 of 12 clients (33%, ~attacker fraction 0.3) marked Byzantine,
/// deterministically, so every run and every algorithm faces the same
/// cohort.
std::vector<std::uint8_t> byzantine_cohort(std::size_t num_clients) {
  std::vector<std::uint8_t> cohort(num_clients, 0);
  for (std::size_t i = 0; i < num_clients; i += 3) cohort[i] = 1;
  return cohort;
}

}  // namespace

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();

  const std::vector<AttackSetting> attacks = {
      {"signflip", fl::AttackKind::kSignFlip, 10.0},
      {"scale", fl::AttackKind::kScale, 10.0},
      {"collude", fl::AttackKind::kFixedDirection, 1.0},
  };
  const std::vector<std::string> aggregators = {"mean", "median", "trimmed",
                                                "krum"};
  const std::vector<std::string> algos = {"fedavg", "scaffold", "spatl"};

  common::CsvWriter csv(
      csv_path("bench_byzantine"),
      {"algorithm", "attack", "byz_fraction", "aggregator", "final_accuracy",
       "best_accuracy", "delta_vs_mean", "attacked_uplinks", "suspected",
       "rejected", "rounds_skipped", "total_bytes"});

  const rl::PpoAgent& agent = shared_pretrained_agent();

  print_header(
      "E-BYZ: Byzantine robustness (attack x aggregator, 4/12 attackers)");
  std::printf("%-9s %-9s %-8s %8s %8s %8s %9s %9s\n", "method", "attack",
              "aggr", "acc", "best", "dMean", "attacked", "suspect");

  for (const auto& algo : algos) {
    // Clean reference: no attackers, default mean aggregation.
    {
      RunSpec spec = make_resilience_spec();
      spec.run.faults = make_resilience_faults();
      spec.run.resilience = make_resilience_defenses();
      const AlgoRun run = run_algorithm(algo, spec, scale,
                                        default_spatl_options(),
                                        algo == "spatl" ? &agent : nullptr);
      std::printf("%-9s %-9s %-8s %7.1f%% %7.1f%% %8s %9s %9s\n",
                  algo.c_str(), "none", "mean",
                  run.result.final_accuracy * 100.0,
                  run.result.best_accuracy * 100.0, "-", "-", "-");
      csv.row_values(algo, "none", 0.0, "mean", run.result.final_accuracy,
                     run.result.best_accuracy, 0.0,
                     run.result.total("attacked"),
                     run.result.total("suspected"),
                     run.result.total("rejected"), run.result.total("skipped"),
                     run.result.comm.total());
    }
    for (const auto& attack : attacks) {
      double mean_final = 0.0;
      for (const auto& aggr : aggregators) {
        RunSpec spec = make_resilience_spec();
        fl::FaultConfig fc = make_resilience_faults();
        fc.byzantine_clients = byzantine_cohort(spec.num_clients);
        fc.attack_kind = attack.kind;
        fc.attack_scale = attack.scale;
        spec.run.faults = fc;
        fl::ResilienceConfig rc = make_resilience_defenses();
        rc.aggregator = fl::parse_aggregator_kind(aggr);
        rc.trim_fraction = 0.4;  // trims 3 of 9 per side: covers the 3
                                 // expected attackers even when one-sided
        rc.krum_f = 3;           // expected attackers per round
        rc.multi_krum = 3;
        spec.run.resilience = rc;
        const AlgoRun run = run_algorithm(algo, spec, scale,
                                          default_spatl_options(),
                                          algo == "spatl" ? &agent : nullptr);
        if (aggr == "mean") mean_final = run.result.final_accuracy;
        const double dmean = run.result.final_accuracy - mean_final;
        std::printf("%-9s %-9s %-8s %7.1f%% %7.1f%% %+7.1f%% %9zu %9zu\n",
                    algo.c_str(), attack.label.c_str(), aggr.c_str(),
                    run.result.final_accuracy * 100.0,
                    run.result.best_accuracy * 100.0, dmean * 100.0,
                    run.result.total("attacked"),
                    run.result.total("suspected"));
        csv.row_values(algo, attack.label, 1.0 / 3.0, aggr,
                       run.result.final_accuracy, run.result.best_accuracy,
                       dmean, run.result.total("attacked"),
                       run.result.total("suspected"),
                       run.result.total("rejected"),
                       run.result.total("skipped"), run.result.comm.total());
      }
    }
    std::printf("\n");
  }
  std::printf("CSV written to %s\n", csv_path("bench_byzantine").c_str());
  return 0;
}
