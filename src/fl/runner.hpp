// Round-loop driver: client sampling, fault admission, periodic evaluation,
// history capture.
//
// Produces exactly the series the paper's figures plot — accuracy vs round
// and accuracy vs cumulative communicated bytes — plus stop-at-target
// queries for the rounds-to-target-accuracy tables. Every run takes one
// path. The runner owns the run's policy: the aggregation rule
// (RunOptions::resilience), the deterministic FaultModel when
// RunOptions::faults injects any fault, the async settings and the churn
// engine. It drops unavailable clients before the round, flags
// stragglers, and hands the policy to each
// FederatedAlgorithm::run_round call as a RoundPolicy, so the algorithm
// holds none of it between rounds. Rounds below the quorum are skipped with
// the global model untouched. A clean run is this path with no fault model
// and the default ResilienceConfig.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fl/algorithm.hpp"
#include "fl/async.hpp"
#include "fl/checkpoint.hpp"
#include "fl/churn.hpp"
#include "fl/comm.hpp"
#include "fl/fault.hpp"
#include "fl/robust.hpp"
#include "fl/store/store.hpp"

namespace spatl::obs {
class AlertWatcher;
class FlightRecorder;
class JsonlWriter;
}  // namespace spatl::obs

namespace spatl::fl {

/// What happens to active clients beyond the per-round admission budget.
enum class AdmissionPolicy {
  kShed,   // sit the round out entirely (no uplink, no bytes, no re-queue)
  kDefer,  // queue into the next round's cohort ahead of fresh samples
};

const char* admission_policy_name(AdmissionPolicy policy);
/// Parse "shed|defer". Throws std::invalid_argument.
AdmissionPolicy parse_admission_policy(const std::string& name);

/// Per-round server overload protection: caps how many uplinks a round may
/// carry, by participant count and/or by an estimated uplink byte budget
/// (participants x the algorithm's uplink_cost_floats() x 4 bytes). Excess
/// active clients are chosen deterministically (a round-keyed rotation, so
/// no client id is systematically starved) and shed or deferred per
/// `policy`. Unlimited by default — the off-switch leaves every byte of the
/// legacy path unchanged.
struct AdmissionConfig {
  std::size_t max_participants = 0;  // 0 = unlimited
  double max_uplink_bytes = 0.0;     // 0 = unlimited (per round, estimated)
  AdmissionPolicy policy = AdmissionPolicy::kShed;

  bool limited() const {
    return max_participants > 0 || max_uplink_bytes > 0.0;
  }
};

struct RoundRecord {
  std::size_t round = 0;
  double avg_accuracy = 0.0;
  double avg_loss = 0.0;
  double cumulative_bytes = 0.0;
  /// Participation/failure statistics of this round (`stats.skipped` marks
  /// a below-quorum round that left the global model untouched).
  RoundStats stats;
};

struct RunOptions {
  std::size_t rounds = 50;
  double sample_ratio = 1.0;   // fraction of clients participating per round
  std::size_t eval_every = 1;

  /// Compute backend for the GEMM family ("scalar" | "cpu-simd" | "auto",
  /// see tensor/backend.hpp). Applied process-wide via set_active_backend()
  /// before round 1. Empty = leave the ambient backend untouched (the
  /// SPATL_BACKEND environment default, or whatever the caller selected).
  /// Per backend, runs are bit-identical across thread counts; switching
  /// backend changes float rounding within the documented ulp bound
  /// (tensor/ops.hpp), so seeded replays must pin the same backend.
  std::string backend;
  /// Stop early once average accuracy reaches this value (Table I setting).
  std::optional<double> target_accuracy;
  std::uint64_t sampling_seed = 7;
  /// Fault injection (dropout, stragglers, uplink corruption, message
  /// loss). The runner range-checks it on every run; a config with no fault
  /// (FaultConfig::any_faults() false, the default) = clean world.
  FaultConfig faults;
  /// Server-side defenses (validation, retry budget, quorum, staleness,
  /// aggregation rule), applied on every run. The defaults reject only
  /// non-finite updates and aggregate with the sample-weighted mean. A
  /// stale_weight outside [0, 1] is rejected.
  ResilienceConfig resilience;

  /// Semi-asynchronous straggler commit (DESIGN.md §11): past-deadline
  /// clients are parked and commit `lag` rounds later with weight
  /// stale_weight^lag instead of the synchronous same-round policy. Only
  /// meaningful with `faults` set (the deadline comes from the fault
  /// model's virtual compute times); nullopt leaves the synchronous path
  /// bit-identical. A stale_weight outside (0, 1] is rejected.
  std::optional<AsyncConfig> async;

  /// Elastic membership (DESIGN.md §12): a deterministic, seed-derived
  /// churn engine grows and shrinks the enrolled population mid-run; the
  /// runner samples from the enrolled set only, and returning clients'
  /// first accepted uplink is staleness-discounted. The runner range-checks
  /// it on every run; a config whose trace is empty (zero rates, full
  /// initial enrollment, the default) leaves sampling draws, floats, and
  /// telemetry bytes unchanged.
  ChurnConfig churn;

  /// Per-round admission budget (participant / uplink-byte caps); see
  /// AdmissionConfig. Unlimited by default.
  AdmissionConfig admission;

  /// Threshold->alert hook: when non-null the runner feeds per-round
  /// derived rates ("fl.reject_rate", "fl.shed_rate") into the watcher,
  /// which emits "type":"alert" JSONL records on threshold crossings.
  /// Pure observation. Not owned; must outlive the run.
  obs::AlertWatcher* alerts = nullptr;

  /// Crash-recoverable rounds: capture a full-state checkpoint every
  /// `checkpoint_every` rounds (0 = off), returned in RunResult and
  /// committed to `ckpt_store` when one is configured. Passing `resume`
  /// restores a prior snapshot before the loop and continues from the
  /// following round, bit-identically to the uninterrupted run.
  std::size_t checkpoint_every = 0;
  const RunCheckpoint* resume = nullptr;  // not owned; may be null

  /// Durable generational checkpoint store (DESIGN.md §13): when set (and
  /// dir non-empty), every periodic checkpoint is additionally committed as
  /// a round-stamped, CRC-verified generation under `ckpt_store->dir`
  /// (atomic tmp+rename, keep-last-K pruning); `resume_from_store` recovers
  /// through the generational ladder — newest generation first, stepping
  /// down past any that fail verification. nullopt = legacy behaviour, byte
  /// for byte.
  std::optional<store::StoreConfig> ckpt_store;
  /// Storage IO hook for the store (chaos drills inject torn writes / bit
  /// corruption / ENOSPC through a FaultyStoreIo here). Null = the real
  /// filesystem. Not owned; must outlive the run.
  store::StoreIo* store_io = nullptr;
  /// Cross-run store reuse: before round 1, walk the generational ladder in
  /// `ckpt_store->dir` and resume from the newest generation that verifies
  /// and applies — so a fresh process pointed at the same directory picks up
  /// where the previous run stopped, bit-identically to the uninterrupted
  /// run, with no explicit `resume` snapshot. An empty/missing directory is
  /// a cold start (round 1); an explicit `resume` takes precedence. Counted
  /// in RunResult::recoveries_from_store / recovery_attempts_failed. A crash
  /// drill is a restart: run to the crash round, build a fresh algorithm
  /// and run again with this flag (DESIGN.md §12).
  bool resume_from_store = false;

  /// Divergence guard: when > 0, evaluate after every round; if the average
  /// loss is non-finite or exceeds `divergence_factor` times the previous
  /// round's loss, roll the round back (model, control state, ledger) and
  /// re-aggregate it with the coordinate median instead. 0 = off.
  double divergence_factor = 0.0;

  /// Per-round telemetry sink (DESIGN.md §10): when non-null the runner
  /// appends one "round" JSONL record per `telemetry_every` rounds unifying
  /// RoundStats, CommLedger byte deltas, divergence-guard actions, and —
  /// when the tracer is enabled — per-phase wall times. Pure observation:
  /// attaching a sink never changes a single float of the simulation. Not
  /// owned; must outlive the run.
  obs::JsonlWriter* telemetry = nullptr;
  std::size_t telemetry_every = 1;

  /// Flight recorder (DESIGN.md §10.1): when non-null, EVERY round's
  /// rendered telemetry record (whether or not the round hits the JSONL
  /// stride) is pushed into the recorder's bounded ring, and the runner
  /// dumps the window as one "type":"flight" record on divergence
  /// rollback and on recovery-ladder exhaustion at start-up. Pure
  /// observation, like `telemetry`. Not owned; must outlive the run.
  obs::FlightRecorder* flight = nullptr;
};

/// One run total (DESIGN.md §8.5): its name, which is also its checkpoint
/// key run/total/<name>, its round-record field counts.<name> and its
/// registry counter fl.<name>; and how one round's stats add to it.
struct RunCounter {
  const char* name;
  std::size_t (*per_round)(const RoundStats&);
};

/// The run-counter table, the one place a run total is declared. It drives
/// RunResult::totals, the checkpoint entries, the round record's "counts"
/// object and the registry counters, so each total equals its row summed
/// over the rounds the run kept in `history` (with eval_every = 1).
std::span<const RunCounter> run_counters();

struct RunResult {
  std::vector<RoundRecord> history;
  /// First round at which target_accuracy was reached (if it was).
  std::optional<std::size_t> rounds_to_target;
  double final_accuracy = 0.0;
  /// Highest evaluated accuracy across the run ("converge accuracy").
  double best_accuracy = 0.0;

  /// Every run_counters() row summed across every round (not just the
  /// evaluated ones), indexed like the table.
  std::vector<std::size_t> totals =
      std::vector<std::size_t>(run_counters().size(), 0);
  /// The total of the run_counters() row called `name`; throws
  /// std::out_of_range for a name the table does not declare.
  std::size_t total(std::string_view name) const;

  std::size_t checkpoints_written = 0;
  /// Updates still parked when the run ended (their bytes were paid but
  /// they never reached aggregation). The parked total equals the
  /// late_commits total + buffered_remaining + the dedup_dropped total.
  std::size_t buffered_remaining = 0;

  /// Virtual-time backoff waited across every retry (zero with backoff off).
  double total_backoff_wait = 0.0;
  /// Per-client give-up counts (sized num_clients, zeros on clean paths;
  /// sums to the giveups total).
  std::vector<std::size_t> client_giveups;

  /// The latest full-state snapshot (empty when checkpointing is off).
  RunCheckpoint last_checkpoint;

  // Durable-store totals (all zero with no ckpt_store configured).
  std::size_t store_commits = 0;          // generations durably published
  std::size_t store_commit_failures = 0;  // commits the store rejected
  /// Start-up resumes served by an on-disk generation (resume_from_store).
  std::size_t recoveries_from_store = 0;
  /// Generations the recovery ladder rejected (corrupt file or failed
  /// restore) on its way to an older good one.
  std::size_t recovery_attempts_failed = 0;

  /// Final ledger counters: comm.total() bytes communicated, of which
  /// comm.retransmitted were re-sent by the bounded-retry path.
  CommSnapshot comm;
};

using RoundCallback =
    std::function<void(std::size_t round, const RoundRecord&)>;

/// Drive `algo` for opts.rounds rounds, sampling
/// ceil(sample_ratio * num_clients) clients uniformly without replacement
/// each round (the Non-IID benchmark's sampling scheme). The ratio is
/// clamped to [0, 1] and the participant count to [1, num_clients], so a
/// small or out-of-range ratio can never select zero clients.
RunResult run_federated(FederatedAlgorithm& algo, const RunOptions& opts,
                        const RoundCallback& callback = nullptr);

}  // namespace spatl::fl
