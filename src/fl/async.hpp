// Semi-asynchronous straggler commit: virtual-time buffering with
// staleness-discounted late aggregation (DESIGN.md §11).
//
// A client whose simulated `compute_time` exceeds the round deadline is not
// rejected (nor same-round down-weighted): its validated update is parked in
// a StragglerBuffer keyed on the virtual-time event schedule and commits in
// round `source_round + lag`, where `lag = ceil(compute_time / deadline) - 1`
// is how many extra deadlines the client needs. At commit the update is
// merged with weight `staleness_scale = stale_weight^lag`, so late work
// still pays for its bytes but cannot drag the model toward a stale point.
//
// Everything here runs on simulated time only — the fault model's
// deterministic `compute_time` draws — never the host clock, so buffered
// runs stay bit-identical across machines and re-runs (`tools/spatl_lint`
// bans wall-clock reads in this file). The whole subsystem is opt-in, with
// one off-switch: async is on exactly when RunOptions::async is set, and the
// runner then hands the settings to each round (fl::RoundPolicy). Without
// them no algorithm touches this code and the synchronous arithmetic is
// unchanged float for float.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fl/checkpoint.hpp"

namespace spatl::fl {

/// Semi-asynchronous aggregation policy; present means on.
struct AsyncConfig {
  /// Per-round staleness discount: a commit arriving `lag` rounds late is
  /// weighted by stale_weight^lag. Must be in (0, 1] to contribute.
  double stale_weight = 0.5;
  /// Maximum tolerated lag; a straggler that would need more rounds than
  /// this is rejected with RejectReason::kDeadline (the only deadline
  /// rejection left on the async path).
  std::size_t max_lag = 4;
};

/// Rounds of extra deadline budget a straggler needs before its update can
/// commit: 0 when it met the deadline, otherwise ceil(t / deadline) - 1
/// (at least 1). Pure virtual-time arithmetic.
std::size_t straggler_lag(double compute_time, double round_deadline);

/// stale_weight^lag (1.0 at lag 0).
double staleness_scale(double stale_weight, std::size_t lag);

/// One parked client update. `values`/`bn`/`aux`/`mask` carry whatever the
/// owning algorithm needs to replay the commit: absolute weights (FedAvg /
/// FedProx), normalized deltas + tau (FedNova), displacement + control
/// deltas (SCAFFOLD), or mask-compacted salient deltas (SPATL). The buffer
/// itself is representation-agnostic.
// ckpt-struct: algo/async/<k>/
struct BufferedUpdate {
  std::size_t client = 0;        // ckpt: meta
  std::size_t source_round = 0;  // ckpt: meta (round the client trained in)
  std::size_t commit_round = 0;  // ckpt: meta (round the update merges in)
  double tau = 1.0;              // ckpt: tau (FedNova/SCAFFOLD normalizer)
  std::vector<float> values;     // ckpt: values
  std::vector<float> bn;         // ckpt: bn
  std::vector<float> aux;        // ckpt: aux
  std::vector<std::uint8_t> mask;  // ckpt: mask (salient positions, SPATL)
};

/// Deterministic straggler buffer: entries are totally ordered by
/// (commit_round, source_round, client) regardless of insertion order, so
/// the merge sequence — and therefore the float arithmetic — is identical
/// across runs and across checkpoint/resume.
// ckpt-struct: algo/async/
class StragglerBuffer {
 public:
  /// Insert preserving the (commit_round, source_round, client) order.
  /// Latest wins per client: any older parked update from the same client
  /// (necessarily from an earlier source round) is evicted first, so the
  /// buffer holds at most one entry per client and re-parking cannot
  /// double-commit. Returns the number of evicted entries.
  std::size_t park(BufferedUpdate update);

  /// Remove and return every entry with commit_round <= round (in order).
  /// Entries whose commit round fell inside a skipped round drain here too —
  /// a late commit is never lost to a quorum skip.
  std::vector<BufferedUpdate> take_due(std::size_t round);

  /// Entries that would commit at `round` (buffer unchanged).
  std::size_t due_count(std::size_t round) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  const std::vector<BufferedUpdate>& entries() const { return entries_; }

  /// Checkpoint walk under `prefix` ("algo/async/"). Nothing is written
  /// when empty, so pre-async checkpoints stay loadable and the entry set
  /// is unchanged for synchronous runs.
  void state(StateArchive& ar, const std::string& prefix);

 private:
  std::vector<BufferedUpdate> entries_;  // ckpt: n (count, then per-entry keys)
};

}  // namespace spatl::fl
