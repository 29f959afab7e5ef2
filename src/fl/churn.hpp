// Elastic membership under churn: deterministic join/leave/return engine.
//
// Production federations are elastic: clients enroll mid-run, vanish for
// rounds at a time, and come back carrying models that are several rounds
// stale. This module materializes a Poisson-style arrival/departure/return
// schedule as a per-round trace derived entirely from (seed, round, client)
// keyed draws — the same order-independent keying the fault model uses — so
// the membership history of a run is a pure function of its config and can
// be regenerated bit-identically on resume.
//
// The ChurnEngine replays that trace over a live status machine
// (never-joined -> enrolled <-> departed). Departing clients simply stop
// being sampled: their server-side state (SCAFFOLD control variates, SPATL
// predictors and agents) stays parked in place. Returning clients re-enter
// with a staleness debt equal to their absence, and their first accepted
// uplink is discounted through the same staleness_scale() arithmetic the
// semi-async straggler buffer uses (DESIGN.md §11).
//
// The whole subsystem is opt-in: with no ChurnConfig installed (or an empty
// trace — zero rates, full initial enrollment) the runner's sampling draws,
// float arithmetic, and telemetry bytes are unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fl/checkpoint.hpp"

namespace spatl::fl {

struct ChurnConfig {
  /// Fraction of the client population enrolled at round 1 (clients
  /// [0, ceil(fraction * n)) start enrolled; the rest are never-joined and
  /// arrive through join_rate). 1.0 = everyone starts enrolled.
  double initial_fraction = 1.0;
  /// Per-(round, never-joined client) Bernoulli arrival probability.
  double join_rate = 0.0;
  /// Per-(round, enrolled client) Bernoulli departure probability.
  double leave_rate = 0.0;
  /// Per-(round, departed client) Bernoulli return probability.
  double return_rate = 0.0;
  /// Staleness discount base for a returning client's first accepted
  /// uplink: weight = return_stale_weight^min(absence, staleness_cap),
  /// the StragglerBuffer's staleness_scale() arithmetic.
  double return_stale_weight = 0.5;
  /// Cap on the absence (in rounds) counted toward the return discount.
  std::size_t staleness_cap = 8;
  std::uint64_t seed = 0xC4A47EULL;

  /// True when the trace can contain any membership event (a false here is
  /// the churn off-switch: everyone enrolled, nobody moves).
  bool any_churn() const {
    return join_rate > 0.0 || leave_rate > 0.0 || return_rate > 0.0 ||
           initial_fraction < 1.0;
  }
};

/// Membership events applied at the start of one round. The three sets are
/// disjoint by construction (a client's status is read once per round).
struct ChurnRound {
  std::vector<std::size_t> joins;    // never-joined -> enrolled
  std::vector<std::size_t> leaves;   // enrolled -> departed
  std::vector<std::size_t> returns;  // departed -> enrolled

  bool empty() const {
    return joins.empty() && leaves.empty() && returns.empty();
  }
};

/// The full membership schedule of a run, materialized up front.
/// `rounds[r]` holds the events applied at round r (index 0 unused).
struct ChurnTrace {
  std::size_t num_clients = 0;
  std::size_t initial_enrolled = 0;  // clients [0, initial_enrolled)
  std::vector<ChurnRound> rounds;

  /// True when no membership event ever fires and everyone starts
  /// enrolled — the bit-identity off-switch condition.
  bool empty() const;
};

/// Materialize the deterministic churn schedule for `rounds` rounds over
/// `num_clients` clients. Every draw is keyed on (seed, round, client,
/// stream), so the trace is independent of evaluation order and identical
/// across re-runs and resumes.
ChurnTrace make_churn_trace(const ChurnConfig& config, std::size_t rounds,
                            std::size_t num_clients);

enum class MemberStatus : std::uint8_t {
  kNeverJoined = 0,
  kEnrolled = 1,
  kDeparted = 2,
};

/// Per-round membership deltas (RoundStats attribution).
struct ChurnDelta {
  std::size_t joined = 0;
  std::size_t left = 0;
  std::size_t returned = 0;
};

/// Live membership state machine replaying a materialized trace. The trace
/// is regenerated from the config on construction; only the mutable state
/// (statuses, departure rounds, pending return discounts, replay cursor)
/// travels through checkpoints, mirroring how the fault model resumes from
/// its config alone.
// ckpt-struct: run/churn/
class ChurnEngine {
 public:
  ChurnEngine(const ChurnConfig& config, std::size_t rounds,
              std::size_t num_clients);

  /// Apply every trace round in (cursor, round] in order and return the
  /// aggregate deltas. The runner calls this once per round; after a crash
  /// recovery the cursor is restored from the checkpoint and replay
  /// continues from there.
  ChurnDelta advance(std::size_t round);

  /// Currently enrolled client ids, ascending. Sampling maps its draws
  /// through this vector, which is the identity map at full enrollment.
  const std::vector<std::size_t>& enrolled() const { return enrolled_; }
  bool is_enrolled(std::size_t client) const {
    return status_.at(client) == MemberStatus::kEnrolled;
  }
  MemberStatus status(std::size_t client) const { return status_.at(client); }

  /// Rounds of absence awaiting the client's first accepted uplink since
  /// its return (0 = no discount pending). Consumed via clear_pending().
  std::size_t pending_staleness(std::size_t client) const {
    return std::size_t(pending_.at(client));
  }
  void clear_pending(std::size_t client) { pending_.at(client) = 0; }

  double return_stale_weight() const { return config_.return_stale_weight; }
  const ChurnConfig& config() const { return config_; }
  const ChurnTrace& trace() const { return trace_; }
  std::size_t cursor() const { return cursor_; }

  /// Checkpoint walk over the mutable state under `prefix` ("run/churn/").
  /// The trace itself is not written — it regenerates from the config. A
  /// snapshot without the entries (a pre-churn checkpoint) loads as the
  /// initial state.
  void state(StateArchive& ar, const std::string& prefix);

 private:
  void reset_to_initial();
  void rebuild_enrolled();

  ChurnConfig config_;  // ckpt: none(configuration, rebuilt by the runner)
  ChurnTrace trace_;    // ckpt: none(regenerated deterministically from config seed)
  std::vector<MemberStatus> status_;           // ckpt: status
  std::vector<std::uint64_t> departed_round_;  // ckpt: departed
  std::vector<std::uint64_t> pending_;         // ckpt: pending
  std::vector<std::size_t> enrolled_;          // ckpt: none(derived from status_)
  std::size_t cursor_ = 0;                     // ckpt: cursor
};

}  // namespace spatl::fl
