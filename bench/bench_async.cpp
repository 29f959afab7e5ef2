// E-ASYNC — Semi-asynchronous straggler commit (DESIGN.md §11): accuracy vs
// communicated bytes when past-deadline clients are (a) dropped outright
// (synchronous, stale_weight = 0), (b) down-weighted in the same round
// (synchronous staleness), or (c) parked and committed `lag` rounds later
// with weight stale_weight^lag (semi-async buffer).
//
// Shape to expect: with aggressive deadlines the drop policy discards paid
// uplink bytes, so at a common byte budget the buffered policy should reach
// equal or better accuracy — that is the acceptance criterion this bench
// demonstrates. The CSV reports accuracy at the smallest total byte budget
// across the three modes of each (algorithm, deadline) group so the
// comparison is at equal bytes, not equal rounds.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

namespace {

struct Row {
  std::string mode;
  double stale_weight = 0.0;
  std::size_t max_lag = 0;  // 0 = synchronous (no buffer)
  AlgoRun run;
};

/// Highest evaluated accuracy among rounds whose cumulative communicated
/// bytes fit within `budget`.
double accuracy_at_budget(const fl::RunResult& result, double budget) {
  double best = 0.0;
  for (const auto& rec : result.history) {
    if (rec.cumulative_bytes <= budget) {
      best = std::max(best, rec.avg_accuracy);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();

  const std::vector<std::string> algos = {"fedavg", "scaffold", "spatl"};
  const std::vector<double> deadlines = {1.5, 2.5};
  const std::vector<double> stale_weights = {0.3, 0.7};
  // Lag-budget sweep for the buffered mode: a tight budget rejects parked
  // updates past one round; a loose one drains nearly every straggler.
  const std::vector<std::size_t> max_lags = {1, 4};

  common::CsvWriter csv(
      csv_path("bench_async"),
      {"algorithm", "mode", "deadline", "stale_weight", "max_lag",
       "final_accuracy", "best_accuracy", "acc_at_budget", "budget_bytes",
       "total_bytes", "stragglers", "parked", "late_commits",
       "buffered_remaining", "rejected", "rounds_skipped"});

  const rl::PpoAgent& agent = shared_pretrained_agent();

  print_header("E-ASYNC: drop vs sync-stale vs buffered straggler commit");
  std::printf("%-9s %-11s %5s %5s %4s %7s %7s %9s %12s %6s %6s\n", "method",
              "mode", "ddl", "sw", "lag", "best", "@budg", "budget", "bytes",
              "park", "late");

  for (const auto& algo : algos) {
    for (const double deadline : deadlines) {
      // All three modes share one fault schedule: heavy straggling against
      // a deadline tight enough that compute_time regularly exceeds it.
      const auto run_mode = [&](std::optional<fl::AsyncConfig> async,
                                double stale_weight) {
        RunSpec spec = make_resilience_spec();
        fl::FaultConfig fc = make_resilience_faults();
        fc.straggler_rate = 0.5;
        fc.round_deadline = deadline;
        spec.run.faults = fc;
        fl::ResilienceConfig rc = make_resilience_defenses();
        rc.stale_weight = stale_weight;
        spec.run.resilience = rc;
        spec.run.async = async;
        return run_algorithm(algo, spec, scale, default_spatl_options(),
                             algo == "spatl" ? &agent : nullptr);
      };

      std::vector<Row> rows;
      rows.push_back({"drop", 0.0, 0, run_mode(std::nullopt, 0.0)});
      for (const double sw : stale_weights) {
        rows.push_back({"sync-stale", sw, 0, run_mode(std::nullopt, sw)});
        for (const std::size_t lag : max_lags) {
          fl::AsyncConfig ac;
          ac.stale_weight = sw;
          ac.max_lag = lag;
          rows.push_back({"async", sw, lag, run_mode(ac, sw)});
        }
      }

      // Equal-bytes comparison: the tightest total budget in the group.
      double budget = rows.front().run.result.comm.total();
      for (const auto& r : rows) {
        budget = std::min(budget, r.run.result.comm.total());
      }

      for (const auto& r : rows) {
        const auto& res = r.run.result;
        const double at_budget = accuracy_at_budget(res, budget);
        std::printf(
            "%-9s %-11s %5.1f %5.2f %4zu %6.1f%% %6.1f%% %9s %12s %6zu "
            "%6zu\n",
            algo.c_str(), r.mode.c_str(), deadline, r.stale_weight,
            r.max_lag, res.best_accuracy * 100.0, at_budget * 100.0,
            common::format_bytes(budget).c_str(),
            common::format_bytes(res.comm.total()).c_str(), res.total("parked"),
            res.total("late_commits"));
        csv.row_values(algo, r.mode, deadline, r.stale_weight, r.max_lag,
                       res.final_accuracy, res.best_accuracy, at_budget,
                       budget, res.comm.total(), res.total("stragglers"),
                       res.total("parked"), res.total("late_commits"),
                       res.buffered_remaining, res.total("rejected"),
                       res.total("skipped"));
      }
      std::printf("\n");
    }
  }
  std::printf("CSV written to %s\n", csv_path("bench_async").c_str());
  return 0;
}
