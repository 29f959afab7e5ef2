#include "fl/churn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace spatl::fl {

namespace {

// Independent decision streams per (round, client) purpose, mirroring the
// fault model's keying so membership draws never perturb fault draws.
enum class Stream : std::uint64_t {
  kJoin = 0x1ULL,
  kLeave = 0x2ULL,
  kReturn = 0x3ULL,
};

common::Rng keyed_rng(std::uint64_t seed, std::size_t round,
                      std::size_t client, Stream stream) {
  std::uint64_t s = seed;
  s ^= common::splitmix64(s) ^ (0x9E3779B97F4A7C15ULL * (round + 1));
  s ^= common::splitmix64(s) ^ (0xC2B2AE3D27D4EB4FULL * (client + 1));
  s ^= common::splitmix64(s) ^
       (0x165667B19E3779F9ULL * static_cast<std::uint64_t>(stream));
  return common::Rng(s);
}

bool fires(const ChurnConfig& config, std::size_t round, std::size_t client,
           Stream stream, double rate) {
  if (rate <= 0.0) return false;
  auto rng = keyed_rng(config.seed, round, client, stream);
  return rng.bernoulli(rate);
}

void check_rate(double r, const char* what) {
  if (r < 0.0 || r > 1.0) {
    throw std::invalid_argument(std::string("ChurnConfig: ") + what +
                                " must be in [0, 1]");
  }
}

}  // namespace

bool ChurnTrace::empty() const {
  if (initial_enrolled < num_clients) return false;
  for (const ChurnRound& r : rounds) {
    if (!r.empty()) return false;
  }
  return true;
}

ChurnTrace make_churn_trace(const ChurnConfig& config, std::size_t rounds,
                            std::size_t num_clients) {
  check_rate(config.initial_fraction, "initial_fraction");
  check_rate(config.join_rate, "join_rate");
  check_rate(config.leave_rate, "leave_rate");
  check_rate(config.return_rate, "return_rate");
  check_rate(config.return_stale_weight, "return_stale_weight");

  ChurnTrace trace;
  trace.num_clients = num_clients;
  // At least one client stays enrolled at round 1 so a join-free config can
  // never strand the run with an empty population.
  trace.initial_enrolled = std::clamp<std::size_t>(
      std::size_t(std::ceil(config.initial_fraction * double(num_clients))),
      std::min<std::size_t>(1, num_clients), num_clients);
  trace.rounds.assign(rounds + 1, ChurnRound{});

  // Sequential status replay: each round reads every client's status once
  // and draws from that status's stream only, so the three event sets stay
  // disjoint and the trace regenerates identically on resume.
  std::vector<MemberStatus> status(num_clients, MemberStatus::kNeverJoined);
  for (std::size_t c = 0; c < trace.initial_enrolled; ++c) {
    status[c] = MemberStatus::kEnrolled;
  }
  for (std::size_t r = 1; r <= rounds; ++r) {
    ChurnRound& ev = trace.rounds[r];
    for (std::size_t c = 0; c < num_clients; ++c) {
      switch (status[c]) {
        case MemberStatus::kNeverJoined:
          if (fires(config, r, c, Stream::kJoin, config.join_rate)) {
            ev.joins.push_back(c);
          }
          break;
        case MemberStatus::kEnrolled:
          if (fires(config, r, c, Stream::kLeave, config.leave_rate)) {
            ev.leaves.push_back(c);
          }
          break;
        case MemberStatus::kDeparted:
          if (fires(config, r, c, Stream::kReturn, config.return_rate)) {
            ev.returns.push_back(c);
          }
          break;
      }
    }
    for (const std::size_t c : ev.joins) status[c] = MemberStatus::kEnrolled;
    for (const std::size_t c : ev.leaves) status[c] = MemberStatus::kDeparted;
    for (const std::size_t c : ev.returns) status[c] = MemberStatus::kEnrolled;
  }
  return trace;
}

ChurnEngine::ChurnEngine(const ChurnConfig& config, std::size_t rounds,
                         std::size_t num_clients)
    : config_(config), trace_(make_churn_trace(config, rounds, num_clients)) {
  reset_to_initial();
}

void ChurnEngine::reset_to_initial() {
  status_.assign(trace_.num_clients, MemberStatus::kNeverJoined);
  for (std::size_t c = 0; c < trace_.initial_enrolled; ++c) {
    status_[c] = MemberStatus::kEnrolled;
  }
  departed_round_.assign(trace_.num_clients, 0);
  pending_.assign(trace_.num_clients, 0);
  cursor_ = 0;
  rebuild_enrolled();
}

void ChurnEngine::rebuild_enrolled() {
  enrolled_.clear();
  for (std::size_t c = 0; c < status_.size(); ++c) {
    if (status_[c] == MemberStatus::kEnrolled) enrolled_.push_back(c);
  }
}

ChurnDelta ChurnEngine::advance(std::size_t round) {
  ChurnDelta delta;
  bool changed = false;
  for (std::size_t r = cursor_ + 1;
       r <= round && r < trace_.rounds.size(); ++r) {
    const ChurnRound& ev = trace_.rounds[r];
    for (const std::size_t c : ev.joins) {
      SPATL_DCHECK(status_[c] == MemberStatus::kNeverJoined);
      status_[c] = MemberStatus::kEnrolled;
      ++delta.joined;
      changed = true;
    }
    for (const std::size_t c : ev.leaves) {
      SPATL_DCHECK(status_[c] == MemberStatus::kEnrolled);
      status_[c] = MemberStatus::kDeparted;
      departed_round_[c] = r;
      pending_[c] = 0;  // an unconsumed return discount dies on re-departure
      ++delta.left;
      changed = true;
    }
    for (const std::size_t c : ev.returns) {
      SPATL_DCHECK(status_[c] == MemberStatus::kDeparted);
      status_[c] = MemberStatus::kEnrolled;
      const std::size_t absence = r - std::size_t(departed_round_[c]);
      pending_[c] =
          std::uint64_t(std::min(absence, config_.staleness_cap));
      ++delta.returned;
      changed = true;
    }
  }
  cursor_ = std::max(cursor_, round);
  if (changed) rebuild_enrolled();
  return delta;
}

void ChurnEngine::state(StateArchive& ar, const std::string& prefix) {
  if (!ar.optional().u64(prefix + "cursor", cursor_)) {
    reset_to_initial();  // the snapshot predates the engine
    return;
  }
  ar.u64s(prefix + "status", status_);
  if (status_.size() != trace_.num_clients) {
    throw std::runtime_error(
        "ChurnEngine::state: checkpoint population mismatch");
  }
  ar.u64s(prefix + "departed", departed_round_);
  ar.u64s(prefix + "pending", pending_);
  if (ar.loading()) rebuild_enrolled();
}

}  // namespace spatl::fl
