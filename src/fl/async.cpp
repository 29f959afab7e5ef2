#include "fl/async.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace spatl::fl {

std::size_t straggler_lag(double compute_time, double round_deadline) {
  if (round_deadline <= 0.0 || compute_time <= round_deadline) return 0;
  // How many whole deadlines the client needs, minus the one it already had.
  // Bounded so a pathological compute-time draw cannot overflow the cast;
  // anything this large is beyond every sane max_lag anyway.
  const double periods =
      std::min(std::ceil(compute_time / round_deadline), 1.0e6);
  return std::max<std::size_t>(1, std::size_t(periods) - 1);
}

double staleness_scale(double stale_weight, std::size_t lag) {
  if (lag == 0) return 1.0;
  return std::pow(stale_weight, double(lag));
}

namespace {

/// Strict weak order giving the buffer its deterministic merge sequence.
bool before(const BufferedUpdate& a, const BufferedUpdate& b) {
  if (a.commit_round != b.commit_round) return a.commit_round < b.commit_round;
  if (a.source_round != b.source_round) return a.source_round < b.source_round;
  return a.client < b.client;
}

}  // namespace

std::size_t StragglerBuffer::park(BufferedUpdate update) {
  SPATL_DCHECK(update.commit_round > update.source_round);
  // Latest-wins dedup: a client re-parking supersedes its older entry (the
  // incoming update trained against a newer base, so replaying both would
  // double-count the client and waste buffered bytes).
  std::size_t evicted = 0;
  for (std::size_t k = entries_.size(); k > 0; --k) {
    if (entries_[k - 1].client != update.client) continue;
    SPATL_DCHECK(entries_[k - 1].source_round < update.source_round);
    entries_.erase(entries_.begin() + std::ptrdiff_t(k - 1));
    ++evicted;
  }
  const auto pos =
      std::upper_bound(entries_.begin(), entries_.end(), update, before);
  entries_.insert(pos, std::move(update));
  return evicted;
}

std::vector<BufferedUpdate> StragglerBuffer::take_due(std::size_t round) {
  // Entries are sorted by commit_round first, so the due set is a prefix.
  std::size_t n = 0;
  while (n < entries_.size() && entries_[n].commit_round <= round) ++n;
  std::vector<BufferedUpdate> due(
      std::make_move_iterator(entries_.begin()),
      std::make_move_iterator(entries_.begin() + std::ptrdiff_t(n)));
  entries_.erase(entries_.begin(), entries_.begin() + std::ptrdiff_t(n));
  return due;
}

std::size_t StragglerBuffer::due_count(std::size_t round) const {
  std::size_t n = 0;
  while (n < entries_.size() && entries_[n].commit_round <= round) ++n;
  return n;
}

void StragglerBuffer::state(StateArchive& ar, const std::string& prefix) {
  std::size_t n = entries_.size();
  ar.optional(n > 0).u64(prefix + "n", n);
  // Entries travel in buffer order, which is already the
  // (commit_round, source_round, client) order park() maintains. A load
  // starts every entry fresh, so absent optional fields stay empty.
  if (ar.loading()) entries_.assign(n, BufferedUpdate{});
  for (std::size_t k = 0; k < n; ++k) {
    BufferedUpdate& e = entries_[k];
    const std::string base = prefix + std::to_string(k) + "/";
    ar.u64(base + "meta", e.client, e.source_round, e.commit_round);
    ar.f64(base + "tau", e.tau);
    ar.optional(!e.values.empty()).floats(base + "values", e.values);
    ar.optional(!e.bn.empty()).floats(base + "bn", e.bn);
    ar.optional(!e.aux.empty()).floats(base + "aux", e.aux);
    ar.optional(!e.mask.empty()).floats(base + "mask", e.mask);
  }
}

}  // namespace spatl::fl
