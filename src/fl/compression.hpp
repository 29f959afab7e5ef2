// Update-compression codecs: classic communication-efficiency baselines
// (gradient sparsification / quantization, cf. the paper's related work
// [37],[53]) that SPATL's salient selection competes against.
//
// Codecs operate on the flat client update (w_i - w_global):
//   kTopK : keep the k largest-magnitude entries, send (index, value) pairs
//   kInt8 : linear 8-bit quantization with a per-message float scale
// Both are lossy; wire size is metered exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fl/algorithm.hpp"

namespace spatl::fl {

enum class Codec { kNone, kTopK, kInt8 };

std::string codec_name(Codec codec);

/// A compressed flat update, decodable to a dense vector of size `dim`.
struct CompressedUpdate {
  Codec codec = Codec::kNone;
  std::size_t dim = 0;
  std::vector<float> dense;           // kNone
  std::vector<std::uint32_t> indices;  // kTopK
  std::vector<float> values;           // kTopK
  std::vector<std::int8_t> qvalues;    // kInt8
  float scale = 1.0f;                  // kInt8

  /// Exact bytes this message occupies on the wire.
  double wire_bytes() const;
};

/// Encode `delta`. For kTopK, `topk_fraction` in (0,1] selects the kept
/// share of coordinates (at least 1).
CompressedUpdate compress_update(std::span<const float> delta, Codec codec,
                                 double topk_fraction = 0.1);

/// Decode into a dense vector (zeros where nothing was sent).
std::vector<float> decompress_update(const CompressedUpdate& update);

/// Server step applied to the mean client delta: a plain server_lr step, or
/// the mean delta as a pseudo-gradient for a stateful server optimizer —
/// momentum (FedAvgM) or Adam (FedAdam), Reddi et al., "Adaptive Federated
/// Optimization", the paper's reference [28].
enum class ServerOptimizer { kSgd, kMomentum, kAdam };

/// FedAvg over the uniform mean of client deltas w_i - w_global, with an
/// uplink codec stage (clients send encoded deltas, the server aggregates
/// the decoded ones; downlink stays dense, as servers are not
/// bandwidth-bound in the paper's setting) and a server-step stage. Runs on
/// the shared client-round skeleton, so faults, validation, robust
/// aggregation and async stragglers apply as for every other algorithm.
// ckpt-struct: algo/opt/
class CompressedFedAvg : public FederatedAlgorithm {
 public:
  CompressedFedAvg(FlEnvironment& env, FlConfig config, Codec codec,
                   ServerOptimizer step = ServerOptimizer::kSgd);

  /// "fedavgm" / "fedadam" for the server optimizers, else "fedavg+<codec>".
  std::string name() const override;
  void state(StateArchive& ar) override;

 private:
  ClientUpload train_client(std::size_t client,
                            const std::vector<float>& base) override;
  void combine(std::vector<Contribution>& accepted,
               const std::vector<float>& base, RobustRule* robust) override;

  Codec codec_;                  // ckpt: none(configuration)
  ServerOptimizer step_kind_;    // ckpt: none(configuration)
  std::vector<float> velocity_;  // ckpt: algo/opt/m (momentum buffer / Adam m)
  std::vector<float> second_;    // ckpt: algo/opt/v (Adam v)
  std::uint64_t step_ = 0;       // ckpt: algo/opt/t
};

}  // namespace spatl::fl
