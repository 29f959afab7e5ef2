// Crash-recoverable federated rounds: exact state capture for the runner.
//
// A RunCheckpoint is a flat list of named tensors — the same container the
// model checkpoint format uses — holding a consistent snapshot of a
// federated run after round R: the algorithm's complete mutable state
// (global model, control variates, per-client SPATL state including PPO
// agents), the runner's sampling RNG cursor, the fault-aware sampling EMA,
// the communication ledger, and the aggregate statistics. Restoring it into
// a freshly-constructed algorithm/runner pair and continuing from round R+1
// reproduces the uninterrupted run bit for bit.
//
// The tensor format stores float32 payloads only, so non-float state is
// packed losslessly: every 64-bit word (RNG cursors, counters, the bit
// patterns of doubles) is split into four 16-bit chunks, each exactly
// representable as a float.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/serialize.hpp"

namespace spatl::fl {

// --- lossless packing helpers --------------------------------------------

tensor::NamedTensor pack_floats(std::string name,
                                const std::vector<float>& values);
std::vector<float> unpack_floats(const tensor::Tensor& t);

tensor::NamedTensor pack_u64s(std::string name,
                              const std::vector<std::uint64_t>& values);
std::vector<std::uint64_t> unpack_u64s(const tensor::Tensor& t);

/// Doubles travel as the 64-bit patterns of their IEEE encoding — exact.
tensor::NamedTensor pack_doubles(std::string name,
                                 const std::vector<double>& values);
std::vector<double> unpack_doubles(const tensor::Tensor& t);

tensor::NamedTensor pack_rng(std::string name, const common::Rng& rng);
void unpack_rng(const tensor::Tensor& t, common::Rng& rng);

// --- run checkpoints ------------------------------------------------------

/// A consistent snapshot of a federated run (see file comment). Entries are
/// written/consumed by run_federated and FederatedAlgorithm::save_state /
/// load_state; the struct itself is just the container. On disk it lives
/// only as a store::CheckpointStore generation (fl/store/store.hpp).
struct RunCheckpoint {
  std::vector<tensor::NamedTensor> entries;

  bool empty() const { return entries.empty(); }
  /// Lookup by exact name; null when absent.
  const tensor::Tensor* find(const std::string& name) const;
  /// Lookup that throws std::runtime_error when absent (corrupt file).
  const tensor::Tensor& at(const std::string& name) const;
};

}  // namespace spatl::fl
