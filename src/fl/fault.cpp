#include "fl/fault.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "fl/store/error.hpp"

namespace spatl::fl {

namespace {

// Independent decision streams per (round, client) purpose, so adding a new
// fault kind never perturbs the draws of another.
enum class Stream : std::uint64_t {
  kFate = 0x1ULL,
  kLoss = 0x2ULL,
  kCorrupt = 0x3ULL,
  kByzantine = 0x4ULL,  // membership: keyed on client only (round = 0)
  kAttack = 0x5ULL,     // per-round attack noise draws
  kBackoff = 0x6ULL,    // retry-backoff jitter (never touches kLoss draws)
  kStorage = 0x7ULL,    // storage faults: keyed on write sequence, client 0
};

/// Order-independent per-decision generator: the seed is mixed with the
/// (round, client, stream) key through splitmix64, so any query order yields
/// the same draws.
common::Rng keyed_rng(std::uint64_t seed, std::size_t round,
                      std::size_t client, Stream stream) {
  std::uint64_t s = seed;
  s ^= common::splitmix64(s) ^ (0x9E3779B97F4A7C15ULL * (round + 1));
  s ^= common::splitmix64(s) ^ (0xC2B2AE3D27D4EB4FULL * (client + 1));
  s ^= common::splitmix64(s) ^ (0x165667B19E3779F9ULL *
                                static_cast<std::uint64_t>(stream));
  return common::Rng(s);
}

}  // namespace

bool FaultConfig::any_faults() const {
  if (dropout_rate > 0.0 || straggler_rate > 0.0 || corruption_rate > 0.0 ||
      loss_rate > 0.0 || byzantine_fraction > 0.0) {
    return true;
  }
  for (const double a : availability) {
    if (a < 1.0) return true;
  }
  for (const std::uint8_t b : byzantine_clients) {
    if (b != 0) return true;
  }
  return false;
}

const char* attack_kind_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kSignFlip: return "signflip";
    case AttackKind::kScale: return "scale";
    case AttackKind::kGaussianNoise: return "noise";
    case AttackKind::kFixedDirection: return "collude";
  }
  return "unknown";
}

AttackKind parse_attack_kind(const std::string& name) {
  if (name == "signflip") return AttackKind::kSignFlip;
  if (name == "scale") return AttackKind::kScale;
  if (name == "noise") return AttackKind::kGaussianNoise;
  if (name == "collude") return AttackKind::kFixedDirection;
  throw std::invalid_argument("unknown attack '" + name +
                              "' (signflip|scale|noise|collude)");
}

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kNonFinite: return "non_finite";
    case RejectReason::kNormBound: return "norm_bound";
    case RejectReason::kLost: return "lost";
    case RejectReason::kDeadline: return "deadline";
  }
  return "unknown";
}

const char* skip_reason_name(SkipReason reason) {
  switch (reason) {
    case SkipReason::kNone: return "none";
    case SkipReason::kAdmissionQuorum: return "admission_quorum";
    case SkipReason::kPostValidationQuorum: return "post_validation_quorum";
    case SkipReason::kAdmissionBudget: return "admission_budget";
  }
  return "unknown";
}

FaultModel::FaultModel(FaultConfig config) : config_(std::move(config)) {
  auto check_rate = [](double r, const char* what) {
    if (r < 0.0 || r > 1.0) {
      throw std::invalid_argument(std::string("FaultConfig: ") + what +
                                  " must be in [0, 1]");
    }
  };
  check_rate(config_.dropout_rate, "dropout_rate");
  check_rate(config_.straggler_rate, "straggler_rate");
  check_rate(config_.corruption_rate, "corruption_rate");
  check_rate(config_.loss_rate, "loss_rate");
  check_rate(config_.byzantine_fraction, "byzantine_fraction");
  for (const double a : config_.availability) check_rate(a, "availability");
}

bool FaultModel::is_byzantine(std::size_t client) const {
  if (!config_.byzantine_clients.empty()) {
    return config_.byzantine_clients[client %
                                     config_.byzantine_clients.size()] != 0;
  }
  if (config_.byzantine_fraction <= 0.0) return false;
  // Round 0 keys the membership stream: the cohort is a per-client property,
  // not a per-round draw.
  auto rng = keyed_rng(config_.seed, 0, client, Stream::kByzantine);
  return rng.bernoulli(config_.byzantine_fraction);
}

bool FaultModel::attack(std::size_t round, std::size_t client,
                        std::vector<float>& payload,
                        const std::vector<float>* reference) const {
  if (payload.empty() || !is_byzantine(client)) return false;
  const bool aligned =
      reference != nullptr && reference->size() == payload.size();
  auto ref = [&](std::size_t j) {
    return aligned ? double((*reference)[j]) : 0.0;
  };
  switch (config_.attack_kind) {
    case AttackKind::kSignFlip:
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = float(2.0 * ref(j) - double(payload[j]));
      }
      break;
    case AttackKind::kScale:
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = float(ref(j) +
                           config_.attack_scale * (double(payload[j]) - ref(j)));
      }
      break;
    case AttackKind::kGaussianNoise: {
      auto rng = keyed_rng(config_.seed, round, client, Stream::kAttack);
      for (auto& x : payload) {
        x = float(double(x) + config_.attack_noise_std * rng.normal());
      }
      break;
    }
    case AttackKind::kFixedDirection:
      // Every Byzantine client pushes the SAME pseudo-random +-1 direction
      // derived from the seed alone, in every round: the textbook colluding
      // fixed-direction attack a plain mean cannot dilute.
      for (std::size_t j = 0; j < payload.size(); ++j) {
        std::uint64_t h = config_.seed ^ (0x9E3779B97F4A7C15ULL * (j + 1));
        const double dir = (common::splitmix64(h) & 1ULL) ? 1.0 : -1.0;
        payload[j] = float(ref(j) + config_.attack_scale * dir);
      }
      break;
  }
  return true;
}

ClientFault FaultModel::assess(std::size_t round, std::size_t client) const {
  ClientFault f;
  auto rng = keyed_rng(config_.seed, round, client, Stream::kFate);
  const double up_prob =
      config_.availability.empty()
          ? 1.0 - config_.dropout_rate
          : config_.availability[client % config_.availability.size()];
  if (!rng.bernoulli(up_prob)) {
    f.fate = ClientFate::kUnavailable;
    return f;
  }
  const bool slow = rng.bernoulli(config_.straggler_rate);
  f.compute_time = config_.compute_time_mean *
                   std::exp(config_.compute_time_jitter * rng.normal());
  if (slow) f.compute_time *= config_.slowdown_factor;
  // Classification only — kStraggler never rejects by itself. The policy
  // (same-round down-weight, semi-async late commit, or kDeadline when
  // neither applies) is decided at delivery time from the round's
  // ResilienceConfig and AsyncConfig; see FederatedAlgorithm::run_round.
  if (config_.round_deadline > 0.0 &&
      f.compute_time > config_.round_deadline) {
    f.fate = ClientFate::kStraggler;
  }
  return f;
}

Transmission FaultModel::transmit(std::size_t round, std::size_t client,
                                  const RetryPolicy& retry) const {
  Transmission t;
  if (config_.loss_rate <= 0.0) return t;
  auto rng = keyed_rng(config_.seed, round, client, Stream::kLoss);
  // Jitter draws come from their own stream, created lazily so a jitter-free
  // policy performs zero extra RNG work; loss outcomes read only `rng`.
  const bool backoff_on = retry.backoff_base > 0.0;
  const bool jitter_on = backoff_on && retry.jitter > 0.0;
  common::Rng jitter_rng =
      jitter_on ? keyed_rng(config_.seed, round, client, Stream::kBackoff)
                : common::Rng(0);
  t.attempts = 0;
  double wait = retry.backoff_base;
  for (std::size_t attempt = 0; attempt <= retry.max_retries; ++attempt) {
    ++t.attempts;
    if (!rng.bernoulli(config_.loss_rate)) {
      t.delivered = true;
      return t;
    }
    if (backoff_on && attempt < retry.max_retries) {
      double step = std::min(wait, retry.backoff_max);
      if (jitter_on) {
        const double j = std::clamp(retry.jitter, 0.0, 1.0);
        step *= 1.0 - j + 2.0 * j * jitter_rng.uniform();
      }
      t.backoff_wait += step;
      wait *= std::max(1.0, retry.backoff_factor);
    }
  }
  t.delivered = false;
  return t;
}

bool FaultModel::corrupt(std::size_t round, std::size_t client,
                         std::vector<float>& payload) const {
  if (config_.corruption_rate <= 0.0 || payload.empty()) return false;
  auto rng = keyed_rng(config_.seed, round, client, Stream::kCorrupt);
  if (!rng.bernoulli(config_.corruption_rate)) return false;
  const std::size_t n = std::max<std::size_t>(
      1, std::size_t(config_.corruption_fraction * double(payload.size())));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = std::size_t(rng.uniform_index(payload.size()));
    switch (config_.corruption_kind) {
      case CorruptionKind::kNaN:
        payload[idx] = std::numeric_limits<float>::quiet_NaN();
        break;
      case CorruptionKind::kInf:
        payload[idx] = (k % 2 == 0) ? std::numeric_limits<float>::infinity()
                                    : -std::numeric_limits<float>::infinity();
        break;
      case CorruptionKind::kBitFlip: {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &payload[idx], sizeof(bits));
        bits ^= 1u << rng.uniform_index(32);
        std::memcpy(&payload[idx], &bits, sizeof(bits));
        break;
      }
    }
  }
  return true;
}

// --- storage faults -------------------------------------------------------

FaultyStoreIo::FaultyStoreIo(StorageFaultConfig config, store::StoreIo* inner)
    : config_(config),
      inner_(inner != nullptr ? inner : &store::default_store_io()) {}

void FaultyStoreIo::write_file(const std::string& path,
                               const std::string& bytes) {
  const std::size_t op = writes_++;
  auto rng = keyed_rng(config_.seed, op, 0, Stream::kStorage);
  // All decisions and their parameters are drawn unconditionally, so which
  // branch fires never shifts the draws of a later write.
  const bool io_error = rng.bernoulli(config_.io_error_rate);
  const bool torn = rng.bernoulli(config_.torn_write_rate);
  const bool corrupt = rng.bernoulli(config_.corrupt_rate);
  const double cut_fraction = rng.uniform();
  const double flip_fraction = rng.uniform();
  const std::size_t flip_bit = std::size_t(rng.uniform_index(8));

  if (io_error) {
    ++io_errors_;
    // The device fills mid-write: a prefix lands, then the write fails
    // loudly. The store's atomic protocol leaves the previous good file
    // untouched (only the tmp file is damaged).
    const std::size_t kept = std::size_t(cut_fraction * double(bytes.size()));
    inner_->write_file(path, bytes.substr(0, kept));
    throw store::CheckpointError(
        path, "",
        "simulated ENOSPC: short write (" + std::to_string(kept) + " of " +
            std::to_string(bytes.size()) + " bytes)");
  }
  std::string actual = bytes;
  if (torn && !actual.empty()) {
    ++torn_;
    // Torn write: the tail never reaches the platter, but the caller sees
    // success — the crash-between-write-and-sync failure mode.
    actual.resize(std::size_t(cut_fraction * double(actual.size())));
  }
  if (corrupt && !actual.empty()) {
    ++corrupted_;
    const std::size_t idx = std::min(
        actual.size() - 1, std::size_t(flip_fraction * double(actual.size())));
    actual[idx] = char(static_cast<unsigned char>(actual[idx]) ^
                       static_cast<unsigned char>(1u << flip_bit));
  }
  inner_->write_file(path, actual);
}

std::string FaultyStoreIo::read_file(const std::string& path) {
  return inner_->read_file(path);
}

void FaultyStoreIo::rename_file(const std::string& from,
                                const std::string& to) {
  inner_->rename_file(from, to);
}

void FaultyStoreIo::remove_file(const std::string& path) {
  inner_->remove_file(path);
}

bool FaultyStoreIo::exists(const std::string& path) {
  return inner_->exists(path);
}

void FaultyStoreIo::create_directories(const std::string& dir) {
  inner_->create_directories(dir);
}

std::vector<std::string> FaultyStoreIo::list_dir(const std::string& dir) {
  return inner_->list_dir(dir);
}

void RoundStats::reject(RejectReason reason, std::size_t client) {
  switch (reason) {
    case RejectReason::kNone: break;
    case RejectReason::kNonFinite: ++rejected_non_finite; break;
    case RejectReason::kNormBound: ++rejected_norm; break;
    case RejectReason::kLost: giveups.push_back(client); break;
    case RejectReason::kDeadline: ++rejected_deadline; break;
  }
}

}  // namespace spatl::fl
