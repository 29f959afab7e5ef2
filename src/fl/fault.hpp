// Deterministic fault injection and server-side resilience policy for the
// FL simulator.
//
// Production federations never see the clean world the paper's evaluation
// assumes: sampled clients drop out, straggle past the round deadline, and
// return corrupted or lost uplinks. `FaultModel` injects those failures
// deterministically — every decision is keyed on (seed, round, client), so
// two runs with the same seeds are bit-identical regardless of query order —
// and `ResilienceConfig` describes the server's defenses: update validation,
// a RetryPolicy (bounded retransmissions with capped exponential backoff and
// deterministic jitter, metered through CommLedger's retransmission
// counters), stale-update down-weighting, and a participation quorum below
// which the round is skipped with the global model untouched.
//
// Every round runs under a ResilienceConfig; injection is opt-in. The runner
// builds a FaultModel only when FaultConfig::any_faults() holds and hands it
// to each round (fl::RoundPolicy). With no FaultModel and the default
// config, a run's arithmetic and byte accounting are those of a clean world,
// except that a non-finite update is rejected instead of averaged in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fl/robust.hpp"
#include "fl/store/io.hpp"

namespace spatl::fl {

enum class CorruptionKind {
  kNaN,      // overwrite perturbed entries with quiet NaN
  kInf,      // overwrite with alternating +/- infinity
  kBitFlip,  // flip one random bit of the float's payload
};

/// Adversarial (Byzantine) client behaviours. Unlike the benign corruption
/// kinds above, these craft updates that are finite and plausibly scaled, so
/// they pass validation and must be defeated at aggregation time.
enum class AttackKind {
  kSignFlip,        // transmit ref - (w - ref): the exact anti-update
  kScale,           // transmit ref + scale * (w - ref): boosted update
  kGaussianNoise,   // add N(0, noise_std^2) per coordinate
  kFixedDirection,  // colluding clients all push ref + scale * u (shared u)
};

const char* attack_kind_name(AttackKind kind);
/// Parse "signflip|scale|noise|collude". Throws std::invalid_argument.
AttackKind parse_attack_kind(const std::string& name);

struct FaultConfig {
  /// Per-(round, client) Bernoulli probability the client is unavailable at
  /// round start (never receives the downlink).
  double dropout_rate = 0.0;
  /// Optional per-client availability trace: `availability[i % size]` is the
  /// probability client i is up in any round. Overrides dropout_rate for all
  /// clients when non-empty.
  std::vector<double> availability;

  /// Probability a participating client runs slow this round.
  double straggler_rate = 0.0;
  double slowdown_factor = 5.0;     // compute-time multiplier when slow
  double compute_time_mean = 1.0;   // nominal per-client compute time
  double compute_time_jitter = 0.2; // lognormal sigma on compute time
  /// Round deadline in the same units as compute_time_mean; a client whose
  /// simulated compute time exceeds it is a straggler. 0 disables deadlines
  /// (and thus stragglers).
  double round_deadline = 2.0;

  /// Per-update probability the uplink payload is corrupted in flight.
  double corruption_rate = 0.0;
  CorruptionKind corruption_kind = CorruptionKind::kNaN;
  /// Fraction of payload elements perturbed when corruption fires (>= 1
  /// element).
  double corruption_fraction = 0.01;

  /// Per-attempt probability an uplink transmission is lost (each retry is
  /// a fresh Bernoulli draw and re-pays the payload bytes).
  double loss_rate = 0.0;

  /// Fraction of the client population that behaves adversarially.
  /// Membership is keyed on (seed, client) only, so a Byzantine client is
  /// Byzantine in every round — the standard static-adversary model.
  double byzantine_fraction = 0.0;
  /// Explicit membership mask (`byzantine_clients[i % size]` != 0 marks
  /// client i adversarial). Overrides byzantine_fraction when non-empty.
  std::vector<std::uint8_t> byzantine_clients;
  AttackKind attack_kind = AttackKind::kSignFlip;
  /// Boost factor for kScale / push magnitude for kFixedDirection.
  double attack_scale = 10.0;
  /// Per-coordinate noise stddev for kGaussianNoise.
  double attack_noise_std = 1.0;

  std::uint64_t seed = 0x5EEDFA17ULL;

  /// True if any injection is active: the one off-switch, as the runner
  /// builds no FaultModel from a config without faults.
  bool any_faults() const;
};

/// Why the server discarded a client's update.
enum class RejectReason {
  kNone,
  kNonFinite,  // NaN/Inf detected by update validation
  kNormBound,  // update norm exceeded ResilienceConfig::max_update_norm
  kLost,       // all transmission attempts failed
  /// Straggler whose update could be neither down-weighted nor buffered:
  /// on the synchronous path this fires only when stale_weight == 0 (any
  /// positive stale_weight down-weights instead); on the semi-async path it
  /// fires only when the required lag exceeds AsyncConfig::max_lag (within
  /// the lag budget the update is parked and commits late).
  kDeadline,
};

const char* reject_reason_name(RejectReason reason);

/// Which gate skipped a round (attribution for RoundStats::skipped).
enum class SkipReason {
  kNone,
  /// Too few available clients after admission (pre-validation).
  kAdmissionQuorum,
  /// Enough clients started, but server-side validation rejected updates
  /// down to below min_quorum (post-validation survivor set).
  kPostValidationQuorum,
  /// The per-round admission budget (participant cap / uplink byte budget)
  /// shed or deferred every active client before any uplink was attempted.
  kAdmissionBudget,
};

const char* skip_reason_name(SkipReason reason);

/// Retransmission discipline for lost uplinks: capped exponential backoff
/// with deterministic jitter drawn from the per-(round, client) backoff
/// stream. The defaults (no backoff, no jitter) reproduce the legacy
/// bounded-retry loop draw for draw — retries consume only kLoss-stream
/// Bernoullis, so enabling backoff later never perturbs loss outcomes.
struct RetryPolicy {
  /// Retransmission attempts after a lost uplink before giving up.
  std::size_t max_retries = 2;
  /// Virtual-time wait before the first retry (same units as the fault
  /// model's compute times). 0 disables backoff entirely: no waits, no
  /// jitter draws, legacy behaviour bit for bit.
  double backoff_base = 0.0;
  /// Multiplier applied to the wait after each failed attempt.
  double backoff_factor = 2.0;
  /// Upper bound on any single wait.
  double backoff_max = 8.0;
  /// Deterministic jitter: each wait is scaled by a factor uniform in
  /// [1 - jitter, 1 + jitter], drawn from the kBackoff stream (only when
  /// backoff is active). 0 = no draws at all.
  double jitter = 0.0;
};

/// Server-side defense policy (meaningful with or without fault injection).
struct ResilienceConfig {
  /// Reject updates containing NaN/Inf before aggregation.
  bool validate_updates = true;
  /// Reject updates whose L2 delta from the reference exceeds this bound.
  /// 0 disables the norm check.
  double max_update_norm = 0.0;
  /// Retransmission discipline for lost uplinks (attempt budget + capped
  /// exponential backoff with deterministic jitter).
  RetryPolicy retry;
  /// Minimum accepted updates required to apply aggregation; below this the
  /// round is skipped and the global model is left untouched.
  std::size_t min_quorum = 1;
  /// Synchronous staleness policy: aggregation weight multiplier for
  /// stragglers that miss the deadline; 0 rejects their updates outright
  /// (RejectReason::kDeadline). Superseded by AsyncConfig::stale_weight when
  /// the round has async settings (stragglers then commit late instead of
  /// being down-weighted in the same round).
  double stale_weight = 0.5;

  /// Byzantine-robust aggregation rule applied to the accepted updates.
  /// kWeightedMean is the classic FedAvg estimate and keeps the exact
  /// clean-world arithmetic; the other kinds trade a little statistical
  /// efficiency for a non-zero breakdown point.
  AggregatorKind aggregator = AggregatorKind::kWeightedMean;
  /// kTrimmedMean: fraction of order statistics dropped from EACH end of
  /// every coordinate's sample before averaging.
  double trim_fraction = 0.2;
  /// kKrum: assumed upper bound f on the number of Byzantine clients
  /// (scores sum the n - f - 2 smallest pairwise distances).
  std::size_t krum_f = 0;
  /// kKrum: number of lowest-scoring updates averaged (1 = classic Krum,
  /// >1 = multi-Krum).
  std::size_t multi_krum = 1;
  /// kNormClippedMean: L2 clip threshold on each update's deviation from
  /// the reference; 0 auto-tunes to the median update norm.
  double clip_norm = 0.0;
};

enum class ClientFate {
  kOk,           // participates normally
  kUnavailable,  // dropped out before the round began
  kStraggler,    // finishes after the round deadline
};

struct ClientFault {
  ClientFate fate = ClientFate::kOk;
  /// Simulated local compute time (only meaningful when not kUnavailable).
  double compute_time = 0.0;
};

struct Transmission {
  bool delivered = true;
  std::size_t attempts = 1;  // total tries, including the successful one
  /// Total virtual-time backoff waited between attempts (0 with backoff
  /// disabled). Added to the client's compute time by the straggler policy,
  /// so a retry storm can push a client past the round deadline.
  double backoff_wait = 0.0;
};

/// Deterministic per-(round, client) fault sampler. All members are const:
/// the model carries no mutable state, so queries are order-independent and
/// repeatable.
class FaultModel {
 public:
  explicit FaultModel(FaultConfig config);

  const FaultConfig& config() const { return config_; }

  /// Availability / straggler fate of `client` in `round`.
  ClientFault assess(std::size_t round, std::size_t client) const;

  /// Simulate the uplink transmission under `retry`: up to
  /// retry.max_retries retransmissions, accumulating capped-exponential
  /// backoff waits (with deterministic jitter) between failed attempts.
  /// Loss outcomes consume only the kLoss stream, so the draw sequence is
  /// identical whatever backoff parameters are configured.
  Transmission transmit(std::size_t round, std::size_t client,
                        const RetryPolicy& retry) const;

  /// Maybe corrupt `payload` in place; returns true if corruption fired.
  bool corrupt(std::size_t round, std::size_t client,
               std::vector<float>& payload) const;

  /// True when `client` is a member of the Byzantine cohort (stable across
  /// rounds by construction).
  bool is_byzantine(std::size_t client) const;

  /// Apply the configured adversarial behaviour to `payload` in place (a
  /// Byzantine client attacks every round it participates). `reference` is
  /// the vector the honest client would have diverged from (the global
  /// weights, positionally aligned with the payload); null treats the
  /// reference as the origin, i.e. the payload is already a delta. Returns
  /// true when the attack fired.
  bool attack(std::size_t round, std::size_t client,
              std::vector<float>& payload,
              const std::vector<float>* reference = nullptr) const;

 private:
  FaultConfig config_;
};

// --- storage faults -------------------------------------------------------

/// Deterministic storage-fault injection for the durable checkpoint store
/// (DESIGN.md §13). Every decision is keyed on (seed, write sequence
/// number) through the same splitmix64 mixing as the client fault streams,
/// so a chaos run's disk damage is replayable byte for byte.
struct StorageFaultConfig {
  /// Per-write probability the write is torn: the file is silently
  /// truncated at a drawn byte offset (the crash-between-write-and-sync
  /// model — the caller sees success, the bytes are short).
  double torn_write_rate = 0.0;
  /// Per-write probability one drawn bit of the written file is flipped
  /// (latent media corruption — again reported as success).
  double corrupt_rate = 0.0;
  /// Per-write probability the device fills mid-write: a prefix lands on
  /// disk and the write FAILS with a typed CheckpointError (the simulated
  /// ENOSPC / short-write path — the only loud failure mode).
  double io_error_rate = 0.0;
  std::uint64_t seed = 0x510FA17ULL;

  bool any() const {
    return torn_write_rate > 0.0 || corrupt_rate > 0.0 || io_error_rate > 0.0;
  }
};

/// StoreIo decorator injecting StorageFaultConfig's failure modes into
/// write_file; every other operation passes through untouched. Reads are
/// deliberately clean: damage is injected once, at write time, and then
/// *persists* — exactly like a real torn write — so the recovery ladder
/// sees the same corrupt bytes on every attempt.
class FaultyStoreIo : public store::StoreIo {
 public:
  /// `inner` null = the real filesystem. Borrowed; must outlive this.
  explicit FaultyStoreIo(StorageFaultConfig config,
                         store::StoreIo* inner = nullptr);

  void write_file(const std::string& path, const std::string& bytes) override;
  std::string read_file(const std::string& path) override;
  void rename_file(const std::string& from, const std::string& to) override;
  void remove_file(const std::string& path) override;
  bool exists(const std::string& path) override;
  void create_directories(const std::string& dir) override;
  std::vector<std::string> list_dir(const std::string& dir) override;

  std::size_t writes() const { return writes_; }
  std::size_t torn_writes() const { return torn_; }
  std::size_t corrupted_writes() const { return corrupted_; }
  std::size_t io_errors() const { return io_errors_; }

 private:
  StorageFaultConfig config_;
  store::StoreIo* inner_;
  std::size_t writes_ = 0;  // injection key: write sequence number
  std::size_t torn_ = 0;
  std::size_t corrupted_ = 0;
  std::size_t io_errors_ = 0;
};

/// Per-round participation and failure statistics (merged into RoundRecord
/// by the runner and totalled in RunResult).
struct RoundStats {
  std::size_t selected = 0;     // sampled by the runner
  std::size_t dropped = 0;      // unavailable at round start
  std::size_t stragglers = 0;   // past-deadline participants
  std::size_t delivered = 0;    // uplinks that reached the server
  std::size_t accepted = 0;     // updates that entered aggregation
  std::size_t rejected_non_finite = 0;
  std::size_t rejected_norm = 0;
  std::size_t rejected_deadline = 0;
  std::size_t retransmissions = 0;  // extra transmission attempts

  // --- semi-asynchronous buffering (zeros when async is off) -------------
  /// Straggler updates parked this round for a later commit.
  std::size_t parked = 0;
  /// Buffered updates from earlier rounds that committed this round.
  std::size_t late_commits = 0;
  /// Buffer occupancy after this round's parks and commits.
  std::size_t buffer_depth = 0;
  /// Older parked updates superseded by a newer park from the same client
  /// (latest-wins dedup; parked == late_commits + occupancy + this).
  std::size_t dedup_dropped = 0;

  // --- elastic membership (zeros when churn is off) ----------------------
  std::size_t joined = 0;    // never-joined clients that enrolled this round
  std::size_t left = 0;      // enrolled clients that departed this round
  std::size_t returned = 0;  // departed clients that re-enrolled this round
  std::size_t enrolled = 0;  // population size after this round's events
  /// Returning clients whose first accepted uplink was staleness-discounted.
  std::size_t returning_discounted = 0;

  // --- admission control (zeros when no budget is configured) ------------
  /// Active clients shed by the per-round admission budget (no uplink, no
  /// bytes, not re-queued).
  std::size_t shed = 0;
  /// Active clients deferred by the budget into the next round's cohort.
  std::size_t admission_deferred = 0;

  // --- retry discipline --------------------------------------------------
  /// Total virtual-time backoff waited across this round's retries.
  double backoff_wait = 0.0;
  /// Clients whose uplink was abandoned after exhausting the retry budget
  /// (RejectReason::kLost); its size is the round's lost-update count.
  std::vector<std::size_t> giveups;

  /// True when the round was skipped (admission or post-validation quorum).
  bool skipped = false;
  /// Which quorum gate skipped it (kNone when !skipped).
  SkipReason skip_reason = SkipReason::kNone;
  /// True when the divergence guard rolled the round back and re-aggregated
  /// with the fallback robust rule.
  bool rolled_back = false;

  // --- adversary attribution -------------------------------------------
  /// Clients whose delivered payloads were adversarially crafted this round
  /// (ground truth from the fault model, for attack/defense evaluation).
  std::vector<std::size_t> attackers;
  /// Clients the robust aggregator excluded wholesale (Krum non-selection).
  std::vector<std::size_t> suspects;
  /// Updates the aggregator neutralized without excluding (norm clips).
  std::size_t clipped = 0;

  std::size_t rejected_total() const {
    return rejected_non_finite + rejected_norm + giveups.size() +
           rejected_deadline;
  }
  /// Count `client`'s update as rejected for `reason`.
  void reject(RejectReason reason, std::size_t client);
};

}  // namespace spatl::fl
