// Byte-accurate communication accounting (paper eq. 13):
//   cost = sum over rounds of (uplink + downlink) across participants.
//
// Parameters are metered at 4 bytes (float32); salient-selection index sets
// at 4 bytes per channel index. Control variates and other gradient
// side-information are metered exactly like parameters, which is what makes
// SCAFFOLD/FedNova ~2x FedAvg per round in Table I.
#pragma once

#include <cstddef>

namespace spatl::fl {

/// Point-in-time copy of the ledger counters. Cheap (three doubles), so the
/// per-round telemetry exporter takes one before and one after each round
/// and reports the delta instead of re-walking cumulative totals.
struct CommSnapshot {
  double uplink = 0.0;
  double downlink = 0.0;
  double retransmitted = 0.0;  // included in uplink

  double total() const { return uplink + downlink; }

  /// Counter deltas accumulated since `earlier`. The counters are
  /// monotone within a run, so this is normally a plain subtraction; a
  /// later total BELOW `earlier` means the ledger was reset (or restored
  /// to an older snapshot) between the two observations, in which case the
  /// flow since that reset — the later total itself — is reported instead
  /// of a nonsensical negative delta.
  CommSnapshot since(const CommSnapshot& earlier) const {
    const auto delta = [](double now, double before) {
      return now >= before ? now - before : now;
    };
    return {delta(uplink, earlier.uplink),
            delta(downlink, earlier.downlink),
            delta(retransmitted, earlier.retransmitted)};
  }
};

class CommLedger {
 public:
  void add_uplink_floats(std::size_t count) { up_ += 4.0 * double(count); }
  void add_downlink_floats(std::size_t count) { down_ += 4.0 * double(count); }
  void add_uplink_indices(std::size_t count) { up_ += 4.0 * double(count); }
  void add_uplink_bytes(double bytes) { up_ += bytes; }
  void add_downlink_bytes(double bytes) { down_ += bytes; }

  /// Retry-path accounting: retransmitted payloads count toward uplink
  /// totals (the bytes really crossed the wire) AND are tracked separately,
  /// so communication-efficiency claims under lossy links stay honest.
  void add_uplink_retransmit_floats(std::size_t count) {
    const double bytes = 4.0 * double(count);
    up_ += bytes;
    retransmit_ += bytes;
  }
  void add_uplink_retransmit_bytes(double bytes) {
    up_ += bytes;
    retransmit_ += bytes;
  }

  double uplink_bytes() const { return up_; }
  double downlink_bytes() const { return down_; }
  double total_bytes() const { return up_ + down_; }
  double retransmitted_bytes() const { return retransmit_; }

  CommSnapshot snapshot() const { return {up_, down_, retransmit_}; }

  void reset() { up_ = down_ = retransmit_ = 0.0; }

  /// Checkpoint restore: overwrite the counters with previously-captured
  /// totals so a resumed run's cumulative byte series continues exactly.
  void restore(const CommSnapshot& snap) {
    up_ = snap.uplink;
    down_ = snap.downlink;
    retransmit_ = snap.retransmitted;
  }

 private:
  double up_ = 0.0;
  double down_ = 0.0;
  double retransmit_ = 0.0;
};

}  // namespace spatl::fl
