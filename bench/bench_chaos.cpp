// E-CHAOS — Everything-at-once resilience drill (DESIGN.md §13): elastic
// churn, Byzantine scale attacks, stragglers, mid-run server restarts, AND a
// hostile disk tearing / bit-rotting the durable checkpoint store's writes,
// all in one federation.
//
// Each algorithm first runs its uncrashed, fault-free-disk twin (same
// FL-level faults and churn), then the chaos runs across storage profiles.
// A crash drops the algorithm at the end of a round; a freshly built one
// resumes from the store (DESIGN.md §12):
//   clean-disk  restarts recover through an undamaged generational store
//   flaky-disk  every store write risks a torn write or a flipped bit; the
//               recovery ladder steps past damaged generations
//   dead-disk   every single write is torn — no generation ever survives,
//               so each restart starts cold from round 1
//
// The bench ASSERTS the determinism contract, not just reports it: every
// chaos run must finish byte-identical (memcmp over the final global
// weights) to its twin, whatever the ladder had to do. A mismatch prints
// FAIL and exits non-zero, which is what makes the ctest smoke hookup a
// real regression gate (`bench_chaos --smoke` runs a scaled-down sweep).
//
// Shape to expect: clean-disk recovers every crash from the newest
// generation (ladder_rejects 0), flaky-disk shows non-zero ladder_rejects
// with recoveries still mostly served from disk, dead-disk serves zero
// recoveries from disk and still converges identically.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"

using namespace spatl;
using namespace spatl::bench;

namespace {

struct StorageProfile {
  std::string name;
  fl::StorageFaultConfig faults;
};

std::vector<StorageProfile> storage_profiles() {
  StorageProfile clean{"clean-disk", {}};
  StorageProfile flaky{"flaky-disk", {}};
  flaky.faults.torn_write_rate = 0.25;
  flaky.faults.corrupt_rate = 0.25;
  flaky.faults.seed = kResilienceFaultSeed;
  StorageProfile dead{"dead-disk", {}};
  dead.faults.torn_write_rate = 1.0;
  dead.faults.seed = kResilienceFaultSeed;
  return {clean, flaky, dead};
}

/// Chaos federation shared by the twin and every storage profile: churn,
/// two scale attackers, stragglers with a deadline, defended by median
/// aggregation + retries.
RunSpec make_chaos_spec(std::size_t rounds) {
  RunSpec spec = make_resilience_spec();
  spec.rounds_override = rounds;
  spec.capture_weights = true;

  fl::FaultConfig fc = make_resilience_faults();
  fc.dropout_rate = 0.1;
  fc.straggler_rate = 0.2;
  fc.slowdown_factor = 3.0;
  fc.round_deadline = 2.0;
  fc.byzantine_clients.assign(spec.num_clients, 0);
  fc.byzantine_clients[1] = 1;
  fc.byzantine_clients[5] = 1;
  fc.attack_kind = fl::AttackKind::kScale;
  fc.attack_scale = 4.0;
  spec.run.faults = fc;

  fl::ResilienceConfig rc = make_resilience_defenses();
  rc.aggregator = fl::AggregatorKind::kCoordinateMedian;
  spec.run.resilience = rc;

  fl::ChurnConfig cc;
  cc.initial_fraction = 0.8;
  cc.join_rate = 0.2;
  cc.leave_rate = 0.2;
  cc.return_rate = 0.4;
  cc.seed = kResilienceFaultSeed;
  spec.run.churn = cc;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kError);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  BenchScale scale = bench_scale();
  std::vector<std::string> algos = {"fedavg", "scaffold", "spatl"};
  if (smoke) {
    // ctest gate: one fast algorithm, tiny federation, full profile sweep —
    // the assertions are identical to the full bench.
    algos = {"fedavg"};
    scale.samples_per_client = 40;
    scale.local_epochs = 1;
    scale.eval_every = 2;
  }
  const std::size_t rounds = smoke ? 4 : scale.rounds;
  // Crash back to back mid-run: the second drill recovers from a
  // generation committed after the first recovery.
  const std::size_t mid = std::max<std::size_t>(2, rounds / 2);
  const std::vector<std::size_t> crashes = {mid, mid + 1};

  common::CsvWriter csv(
      csv_path("bench_chaos"),
      {"algorithm", "storage", "final_accuracy", "best_accuracy",
       "crashes_injected", "store_commits", "store_commit_failures",
       "recoveries_from_store", "ladder_rejects", "torn_writes",
       "corrupted_writes", "joined", "left", "stragglers", "suspected",
       "bit_identical", "seconds"});

  const rl::PpoAgent* agent = nullptr;
  for (const auto& a : algos) {
    if (a == "spatl") agent = &shared_pretrained_agent();
  }

  print_header(std::string("E-CHAOS: churn + Byzantine + stragglers + "
                           "crashes + storage faults") +
               (smoke ? " [smoke]" : ""));
  std::printf("%-9s %-11s %7s %7s %6s %6s %6s %6s %6s %10s\n", "method",
              "storage", "best", "crash", "commit", "cfail", "recov",
              "reject", "torn", "identical");

  // Per-process store root: concurrent runs on one host must not wipe each
  // other's generations.
  const std::filesystem::path store_root =
      std::filesystem::temp_directory_path() /
      ("spatl_bench_chaos_" + std::to_string(::getpid()));
  std::filesystem::remove_all(store_root);
  bool all_identical = true;

  for (const auto& algo : algos) {
    // Uncrashed twin: same churn / attacks / stragglers, no crashes, no
    // store — the byte-identity reference.
    const RunSpec twin_spec = make_chaos_spec(rounds);
    const AlgoRun twin =
        run_algorithm(algo, twin_spec, scale, default_spatl_options(),
                      algo == "spatl" ? agent : nullptr);

    for (const auto& profile : storage_profiles()) {
      RunSpec spec = make_chaos_spec(rounds);
      spec.crash_at_rounds = crashes;
      spec.run.checkpoint_every = 1;
      fl::store::StoreConfig sc;
      sc.dir = (store_root / (algo + "_" + profile.name)).string();
      sc.keep_last = 2;
      spec.run.ckpt_store = sc;
      fl::FaultyStoreIo io(profile.faults);
      if (profile.faults.any()) spec.run.store_io = &io;

      common::Timer timer;
      const AlgoRun run =
          run_algorithm(algo, spec, scale, default_spatl_options(),
                        algo == "spatl" ? agent : nullptr);
      const double elapsed = timer.seconds();
      const auto& res = run.result;

      const bool identical =
          run.final_weights.size() == twin.final_weights.size() &&
          std::memcmp(run.final_weights.data(), twin.final_weights.data(),
                      run.final_weights.size() * sizeof(float)) == 0;
      all_identical = all_identical && identical;

      std::printf("%-9s %-11s %6.1f%% %7zu %6zu %6zu %6zu %6zu %6zu %10s\n",
                  algo.c_str(), profile.name.c_str(),
                  res.best_accuracy * 100.0, run.crashes,
                  res.store_commits, res.store_commit_failures,
                  res.recoveries_from_store, res.recovery_attempts_failed,
                  io.torn_writes(), identical ? "yes" : "NO (FAIL)");
      csv.row_values(algo, profile.name, res.final_accuracy,
                     res.best_accuracy, run.crashes,
                     res.store_commits, res.store_commit_failures,
                     res.recoveries_from_store, res.recovery_attempts_failed,
                     io.torn_writes(), io.corrupted_writes(),
                     res.total("joined"), res.total("left"),
                     res.total("stragglers"), res.total("suspected"),
                     identical ? 1 : 0, elapsed);
    }
    std::printf("\n");
  }
  std::filesystem::remove_all(store_root);

  std::printf("CSV written to %s\n", csv_path("bench_chaos").c_str());
  if (!all_identical) {
    std::printf("FAIL: a crashed chaos run diverged from its uncrashed "
                "twin — the recovery path broke bit-identical replay\n");
    return 1;
  }
  std::printf("all chaos runs finished bit-identical to their twins\n");
  return 0;
}
