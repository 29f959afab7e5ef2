// Deterministic random number generation for all stochastic components.
//
// Every subsystem (data synthesis, partitioning, weight init, client
// sampling, PPO exploration) takes an explicit `Rng` so that experiments are
// bitwise reproducible from a single seed. The generator is xoshiro256**
// seeded via splitmix64, which is fast, has a 2^256-1 period, and avoids the
// correlated-low-bit problems of LCGs.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace spatl::common {

/// splitmix64 step; used to expand a single 64-bit seed into generator state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG with convenience samplers. Satisfies
/// UniformRandomBitGenerator so it also works with <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
    cached_normal_valid_ = false;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform float in [lo, hi).
  float uniform_float(float lo, float hi) {
    return static_cast<float>(uniform(lo, hi));
  }

  /// Uniform integer in [0, n). Unbiased via rejection.
  std::uint64_t uniform_index(std::uint64_t n) {
    if (n == 0) return 0;
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Standard normal via Box-Muller with caching of the second deviate.
  double normal() {
    if (cached_normal_valid_) {
      cached_normal_valid_ = false;
      return cached_normal_;
    }
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    cached_normal_ = r * std::sin(theta);
    cached_normal_valid_ = true;
    return r * std::cos(theta);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }
  float normal_float(float mean, float stddev) {
    return static_cast<float>(normal(mean, stddev));
  }

  /// Gamma(shape, 1) via Marsaglia-Tsang; used by the Dirichlet sampler.
  double gamma(double shape) {
    if (shape < 1.0) {
      // Boost via Gamma(shape+1) and a uniform power (Marsaglia-Tsang §6).
      const double u = uniform();
      return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
      double x = normal();
      double v = 1.0 + c * x;
      if (v <= 0.0) continue;
      v = v * v * v;
      const double u = uniform();
      if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
      if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
    }
  }

  /// Dirichlet(alpha, ..., alpha) over `k` categories. Throws
  /// std::invalid_argument unless alpha > 0 (gamma() returns 0 for a shape
  /// <= 0, which would silently yield uniform proportions).
  std::vector<double> dirichlet(double alpha, std::size_t k) {
    if (!(alpha > 0.0)) {
      throw std::invalid_argument(
          "Dirichlet concentration must be > 0, got " + std::to_string(alpha));
    }
    std::vector<double> out(k);
    double sum = 0.0;
    for (auto& v : out) {
      v = gamma(alpha);
      sum += v;
    }
    if (sum <= 0.0) {  // pathological underflow: fall back to uniform
      for (auto& v : out) v = 1.0 / static_cast<double>(k);
      return out;
    }
    for (auto& v : out) v /= sum;
    return out;
  }

  /// Sample an index from an (unnormalized, non-negative) weight vector.
  std::size_t categorical(const std::vector<double>& weights) {
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      r -= weights[i];
      if (r <= 0.0) return i;
    }
    return weights.empty() ? 0 : weights.size() - 1;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample `k` distinct indices from [0, n) (partial Fisher-Yates).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k) {
    if (k > n) k = n;
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + uniform_index(n - i);
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }

  /// Derive an independent child generator (for per-client streams).
  Rng fork() { return Rng(next() ^ 0xA5A5A5A5DEADBEEFULL); }

  /// Exact generator cursor for checkpoint/restore: the four xoshiro state
  /// words, the Box-Muller cached deviate (bit pattern), and its validity
  /// flag. restore_cursor(save_cursor()) round-trips bit-identically.
  std::array<std::uint64_t, 6> save_cursor() const {
    std::array<std::uint64_t, 6> out{};
    for (std::size_t i = 0; i < 4; ++i) out[i] = state_[i];
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(cached_normal_));
    std::memcpy(&bits, &cached_normal_, sizeof(bits));
    out[4] = bits;
    out[5] = cached_normal_valid_ ? 1 : 0;
    return out;
  }

  void restore_cursor(const std::array<std::uint64_t, 6>& cursor) {
    for (std::size_t i = 0; i < 4; ++i) state_[i] = cursor[i];
    std::memcpy(&cached_normal_, &cursor[4], sizeof(cached_normal_));
    cached_normal_valid_ = cursor[5] != 0;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool cached_normal_valid_ = false;
};

}  // namespace spatl::common
