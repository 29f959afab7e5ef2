// E-CHURN — Elastic membership under churn (DESIGN.md §12): accuracy,
// throughput, and shedding behaviour as the enrolled population churns and
// the server's per-round admission budget tightens.
//
// Sweep: churn rate {0, 0.1, 0.3} x admission budget {unlimited, tight} x
// algorithm {fedavg, scaffold, spatl}. Each (algorithm, budget) group
// shares its fault-free federation, so the churn-0 row is the static
// baseline the accuracy delta is measured against.
//
// Shape to expect: the shed fraction responds to the budget (zero when
// unlimited, positive and roughly constant per round when tight), and
// accuracy degrades gracefully — not catastrophically — as per-round churn
// climbs to 30%.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"

using namespace spatl;
using namespace spatl::bench;

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();

  const std::vector<std::string> algos = {"fedavg", "scaffold", "spatl"};
  const std::vector<double> churn_rates = {0.0, 0.1, 0.3};
  struct Budget {
    std::string name;
    std::size_t max_participants;
  };
  // "tight" admits roughly half the sampled cohort (spec samples 75% of 12
  // clients = 9 per round).
  const std::vector<Budget> budgets = {{"unlimited", 0}, {"tight", 4}};

  common::CsvWriter csv(
      csv_path("bench_churn"),
      {"algorithm", "budget", "churn_rate", "final_accuracy", "best_accuracy",
       "accuracy_delta_vs_static", "rounds_per_sec", "shed_fraction",
       "joined", "left", "returned", "returning_discounted", "shed",
       "deferred", "rounds_skipped", "total_bytes"});

  const rl::PpoAgent& agent = shared_pretrained_agent();

  print_header("E-CHURN: churn rate x admission budget x algorithm");
  std::printf("%-9s %-9s %5s %7s %7s %7s %6s %5s %5s %5s\n", "method",
              "budget", "churn", "best", "d-stat", "rps", "shed%", "join",
              "left", "ret");

  for (const auto& algo : algos) {
    for (const auto& budget : budgets) {
      double static_best = 0.0;  // churn-0 baseline of this group
      for (const double rate : churn_rates) {
        RunSpec spec = make_resilience_spec();
        if (rate > 0.0) {
          fl::ChurnConfig cc;
          cc.initial_fraction = 0.8;
          cc.join_rate = rate;
          cc.leave_rate = rate;
          cc.return_rate = 2.0 * rate;  // absences stay short-lived
          cc.seed = kResilienceFaultSeed;
          spec.churn = cc;
        }
        spec.admission.max_participants = budget.max_participants;
        spec.admission.policy = fl::AdmissionPolicy::kShed;

        common::Timer timer;
        const AlgoRun run =
            run_algorithm(algo, spec, scale, default_spatl_options(),
                          algo == "spatl" ? &agent : nullptr);
        const double elapsed = timer.seconds();
        const auto& res = run.result;

        const double rounds_per_sec =
            double(scale.rounds) / std::max(1e-9, elapsed);
        const double shed_fraction =
            res.total("selected") > 0
                ? double(res.total("shed")) / double(res.total("selected"))
                : 0.0;
        if (rate == 0.0) static_best = res.best_accuracy;
        const double delta = res.best_accuracy - static_best;

        std::printf(
            "%-9s %-9s %5.2f %6.1f%% %+6.1f%% %7.2f %5.1f%% %5zu %5zu "
            "%5zu\n",
            algo.c_str(), budget.name.c_str(), rate,
            res.best_accuracy * 100.0, delta * 100.0, rounds_per_sec,
            shed_fraction * 100.0, res.total("joined"), res.total("left"),
            res.total("returned"));
        csv.row_values(algo, budget.name, rate, res.final_accuracy,
                       res.best_accuracy, delta, rounds_per_sec,
                       shed_fraction, res.total("joined"), res.total("left"),
                       res.total("returned"), res.total("returning_discounted"),
                       res.total("shed"), res.total("deferred"),
                       res.total("skipped"), res.comm.total());
      }
      std::printf("\n");
    }
  }
  std::printf("CSV written to %s\n", csv_path("bench_churn").c_str());
  return 0;
}
