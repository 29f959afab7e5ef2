// Byzantine-robust aggregation over client updates.
//
// PR 1's validation hook only rejects updates that are non-finite or
// norm-unbounded; a single adversarial client that stays inside those bounds
// can still steer the global model. This layer replaces the aggregation
// *estimator* itself: instead of the weighted mean (breakdown point 0), the
// server can combine client vectors with a coordinate-wise median, an
// α-trimmed mean, Krum / multi-Krum selection, or a norm-clipped mean — all
// with breakdown points that tolerate f < n/2 (median/trim) or f < (n-2)/2
// (Krum) adversaries.
//
// Masked payloads (SPATL's salient uploads) are first-class: every statistic
// is computed per coordinate over the clients that actually transmitted that
// coordinate, and Krum distances are averaged over the coordinates a pair of
// clients has in common. The weighted-mean implementation reproduces the
// classic FedAvg estimate; the algorithms keep their original fused loops on
// that default path so the zero-attack configuration stays bit-identical to
// a clean run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spatl::fl {

struct ResilienceConfig;  // fault.hpp

enum class AggregatorKind {
  kWeightedMean,      // classic FedAvg estimate (current behaviour)
  kCoordinateMedian,  // per-coordinate median over contributing clients
  kTrimmedMean,       // per-coordinate α-trimmed weighted mean
  kKrum,              // Krum / multi-Krum selection by pairwise distances
  kNormClippedMean,   // weighted mean of norm-clipped updates
};

const char* aggregator_kind_name(AggregatorKind kind);
/// Parse "mean|median|trimmed|krum|clipped". Throws std::invalid_argument.
AggregatorKind parse_aggregator_kind(const std::string& name);

/// One client's contribution to a robust aggregation.
struct RobustUpdate {
  std::size_t client = 0;
  /// Relative aggregation weight (sample count x staleness scale for the
  /// baselines); normalized per coordinate over the contributing clients.
  double weight = 1.0;
  /// Dense vector of size dim when `mask` is null; otherwise the compacted
  /// values of the coordinates where mask[j] != 0, in ascending j.
  const std::vector<float>* values = nullptr;
  /// Optional 0/1 ownership mask of size dim (SPATL salient uploads).
  const std::vector<std::uint8_t>* mask = nullptr;
};

struct AggregateOutcome {
  /// Robust center estimate, size dim. Coordinates no client transmitted
  /// are left at 0 and flagged off in `defined`.
  std::vector<float> value;
  /// 1 where at least one (selected) client contributed the coordinate.
  std::vector<std::uint8_t> defined;
  /// Clients whose updates were excluded wholesale (Krum non-selection).
  /// Coordinate-wise estimators exclude per coordinate and leave this empty.
  std::vector<std::size_t> excluded;
  /// Updates whose norm was clipped down (kNormClippedMean only).
  std::size_t clipped = 0;
};

/// Stateless robust combination rule. `aggregate` estimates the center of
/// the client vectors in whatever space the caller works in (absolute
/// weights for FedAvg/FedProx, update deltas for FedNova/SCAFFOLD/SPATL).
/// `reference` (optional) anchors norm computations for kNormClippedMean;
/// when null, norms are taken about the origin.
class RobustAggregator {
 public:
  virtual ~RobustAggregator() = default;
  virtual AggregatorKind kind() const = 0;
  const char* name() const { return aggregator_kind_name(kind()); }

  virtual AggregateOutcome aggregate(
      const std::vector<RobustUpdate>& updates, std::size_t dim,
      const std::vector<float>* reference = nullptr) const = 0;
};

/// Build the aggregator selected by `config.aggregator` (trim fraction,
/// Krum f/m, and clip norm are read from the same config).
std::unique_ptr<RobustAggregator> make_robust_aggregator(
    const ResilienceConfig& config);

}  // namespace spatl::fl
