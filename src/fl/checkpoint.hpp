// Crash-recoverable federated rounds: exact state capture for the runner.
//
// A RunCheckpoint is a flat list of named tensors — the same container the
// model checkpoint format uses — holding a consistent snapshot of a
// federated run after round R: the algorithm's complete mutable state
// (global model, control variates, per-client SPATL state including PPO
// agents), the runner's sampling RNG cursor, the communication ledger, and
// the aggregate statistics. Restoring it into
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
/// written and read by the StateArchive walks below; the struct itself is
/// just the container. On disk it lives only as a store::CheckpointStore
/// generation (fl/store/store.hpp).
struct RunCheckpoint {
  std::vector<tensor::NamedTensor> entries;

  bool empty() const { return entries.empty(); }
  /// Lookup by exact name; null when absent.
  const tensor::Tensor* find(const std::string& name) const;
  /// Lookup that throws std::runtime_error when absent (corrupt file).
  const tensor::Tensor& at(const std::string& name) const;
};

// --- state walks ----------------------------------------------------------

/// One walk over an object's checkpointed state, in either direction
/// (DESIGN.md §8.4). Saving appends each walked value to a RunCheckpoint as
/// a named entry; loading overwrites each value from the entry of that name
/// (a required entry that is absent throws). A stateful class names every
/// key once, in one `state(StateArchive&)`, so its save and load halves
/// cannot disagree on order, presence or defaults.
class StateArchive {
 public:
  static StateArchive save_to(RunCheckpoint& out) { return {&out, nullptr}; }
  static StateArchive load_from(const RunCheckpoint& in) {
    return {nullptr, &in};
  }

  bool loading() const { return in_ != nullptr; }

  /// Makes the next entry optional: it is saved only when `write` holds,
  /// and when absent it loads value-initialized (zeros, empty, a
  /// default-seeded RNG) instead of throwing.
  StateArchive& optional(bool write = true) {
    optional_ = true;
    write_ = write;
    return *this;
  }

  // One primitive per value kind. Each returns whether its entry was
  // walked: false only for an optional entry skipped on save or absent on
  // load.
  bool floats(const std::string& name, std::vector<float>& values);
  /// A 0/1 mask, carried as floats.
  bool floats(const std::string& name, std::vector<std::uint8_t>& mask);
  bool doubles(const std::string& name, std::vector<double>& values);
  bool u64s(const std::string& name, std::vector<std::uint64_t>& words);
  /// Any other integral or enum elements, one 64-bit word each.
  template <class T>
  bool u64s(const std::string& name, std::vector<T>& values) {
    std::vector<std::uint64_t> words(values.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = std::uint64_t(values[i]);
    }
    const bool walked = u64s(name, words);
    if (!loading()) return walked;
    values.resize(words.size());
    for (std::size_t i = 0; i < words.size(); ++i) values[i] = T(words[i]);
    return walked;
  }
  /// Integral or bool scalars as one entry of 64-bit words, in order.
  template <class... T>
  bool u64(const std::string& name, T&... fields) {
    std::vector<std::uint64_t> words{std::uint64_t(fields)...};
    return scatter(u64s(name, words), words, fields...);
  }
  /// Double scalars as one entry, in order.
  template <class... T>
  bool f64(const std::string& name, T&... fields) {
    std::vector<double> values{fields...};
    return scatter(doubles(name, values), values, fields...);
  }
  bool rng(const std::string& name, common::Rng& rng);

 private:
  StateArchive(RunCheckpoint* out, const RunCheckpoint* in)
      : out_(out), in_(in) {}
  template <class V, class Pack, class Unpack>
  bool walk(const std::string& name, V& values, Pack pack, Unpack unpack);
  /// After a scalar entry's walk, a load scatters its values back into
  /// `fields`; an absent optional entry loads zeros.
  template <class V, class... T>
  bool scatter(bool walked, V& values, T&... fields) {
    if (!loading()) return walked;
    if (!walked) values.resize(sizeof...(T));
    std::size_t k = 0;
    ((fields = T(values.at(k++))), ...);
    return walked;
  }

  RunCheckpoint* out_;
  const RunCheckpoint* in_;
  bool optional_ = false;
  bool write_ = true;
};

}  // namespace spatl::fl
