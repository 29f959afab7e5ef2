#include "fl/compression.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "fl/flat_utils.hpp"

namespace spatl::fl {

std::string codec_name(Codec codec) {
  switch (codec) {
    case Codec::kNone: return "none";
    case Codec::kTopK: return "topk";
    case Codec::kInt8: return "int8";
  }
  return "?";
}

double CompressedUpdate::wire_bytes() const {
  switch (codec) {
    case Codec::kNone:
      return 4.0 * double(dense.size());
    case Codec::kTopK:
      return 4.0 * double(indices.size()) + 4.0 * double(values.size());
    case Codec::kInt8:
      return double(qvalues.size()) + 4.0;  // payload + scale
  }
  return 0.0;
}

CompressedUpdate compress_update(std::span<const float> delta, Codec codec,
                                 double topk_fraction) {
  CompressedUpdate out;
  out.codec = codec;
  out.dim = delta.size();
  switch (codec) {
    case Codec::kNone:
      out.dense.assign(delta.begin(), delta.end());
      break;
    case Codec::kTopK: {
      if (topk_fraction <= 0.0 || topk_fraction > 1.0) {
        throw std::invalid_argument("compress_update: bad topk fraction");
      }
      if (delta.empty()) break;
      const std::size_t k = std::max<std::size_t>(
          1, std::size_t(topk_fraction * double(delta.size())));
      std::vector<std::uint32_t> order(delta.size());
      std::iota(order.begin(), order.end(), 0u);
      std::nth_element(order.begin(), order.begin() + std::ptrdiff_t(k) - 1,
                       order.end(), [&](std::uint32_t a, std::uint32_t b) {
                         return std::fabs(delta[a]) > std::fabs(delta[b]);
                       });
      order.resize(k);
      std::sort(order.begin(), order.end());
      out.indices = std::move(order);
      out.values.reserve(k);
      for (auto i : out.indices) out.values.push_back(delta[i]);
      break;
    }
    case Codec::kInt8: {
      float max_abs = 0.0f;
      for (float v : delta) max_abs = std::max(max_abs, std::fabs(v));
      out.scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
      out.qvalues.reserve(delta.size());
      for (float v : delta) {
        const float q = std::round(v / out.scale);
        out.qvalues.push_back(
            std::int8_t(std::clamp(q, -127.0f, 127.0f)));
      }
      break;
    }
  }
  return out;
}

std::vector<float> decompress_update(const CompressedUpdate& update) {
  std::vector<float> out(update.dim, 0.0f);
  switch (update.codec) {
    case Codec::kNone:
      out = update.dense;
      break;
    case Codec::kTopK:
      for (std::size_t i = 0; i < update.indices.size(); ++i) {
        out[update.indices[i]] = update.values[i];
      }
      break;
    case Codec::kInt8:
      for (std::size_t i = 0; i < update.qvalues.size(); ++i) {
        out[i] = float(update.qvalues[i]) * update.scale;
      }
      break;
  }
  return out;
}

namespace {

// Server-optimizer settings. FedAvgM's step is damped because momentum
// accumulates ~1/(1-m) of the mean delta; kAdamEps is the paper's tau.
constexpr double kMomentumLr = 0.5;
constexpr double kMomentum = 0.5;
constexpr double kAdamLr = 0.1;
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.99;
constexpr double kAdamEps = 1e-3;

}  // namespace

CompressedFedAvg::CompressedFedAvg(FlEnvironment& env, FlConfig config,
                                   Codec codec, ServerOptimizer step)
    : FederatedAlgorithm(env, std::move(config)),
      codec_(codec),
      step_kind_(step) {
  const std::size_t dim = nn::param_count(global_.all_params());
  if (step_kind_ != ServerOptimizer::kSgd) velocity_.assign(dim, 0.0f);
  if (step_kind_ == ServerOptimizer::kAdam) second_.assign(dim, 0.0f);
}

std::string CompressedFedAvg::name() const {
  if (step_kind_ == ServerOptimizer::kMomentum) return "fedavgm";
  if (step_kind_ == ServerOptimizer::kAdam) return "fedadam";
  return "fedavg+" + codec_name(codec_);
}

ClientUpload CompressedFedAvg::train_client(std::size_t client,
                                            const std::vector<float>& base) {
  ClientUpload up = FederatedAlgorithm::train_client(client, base);
  // Uplink stage: the payload is the delta as the server decodes it,
  // centered at the origin.
  auto& delta = up.update.values;
  for (std::size_t j = 0; j < delta.size(); ++j) delta[j] -= base[j];
  if (codec_ != Codec::kNone) {
    const auto msg = compress_update(delta, codec_, config_.topk_fraction);
    up.wire_bytes = msg.wire_bytes();
    delta = decompress_update(msg);
  }
  up.reference = nullptr;
  return up;
}

void CompressedFedAvg::combine(std::vector<Contribution>& accepted,
                               const std::vector<float>& base) {
  std::vector<float> delta(base.size(), 0.0f);  // mean client delta
  std::vector<float> bn;
  if (robust_active()) {
    std::vector<double> weights(accepted.size());
    std::vector<RobustUpdate> ups(accepted.size());
    for (std::size_t s = 0; s < accepted.size(); ++s) {
      weights[s] = accepted[s].scale;
      ups[s] = {accepted[s].client, weights[s], &accepted[s].values, nullptr};
    }
    const auto outcome = robust_combine(ups, base.size(), nullptr);
    for (std::size_t j = 0; j < delta.size(); ++j) {
      if (outcome.defined[j]) delta[j] = outcome.value[j];
    }
    bn = robust_bn_mean(accepted, weights, outcome.excluded);
  } else {
    // A straggler's delta is down-weighted by its staleness scale.
    const float inv_s = 1.0f / float(accepted.size());
    bn.assign(accepted.front().bn.size(), 0.0f);
    for (const auto& up : accepted) {
      axpy(delta, up.values, inv_s * float(up.scale));
      axpy(bn, up.bn, inv_s);
    }
  }

  ++step_;
  std::vector<float> w_new = base;
  if (step_kind_ == ServerOptimizer::kSgd) {
    axpy(w_new, delta, float(config_.server_lr));
  } else if (step_kind_ == ServerOptimizer::kMomentum) {
    // v = beta v + delta ; w += lr * v
    for (std::size_t j = 0; j < delta.size(); ++j) {
      velocity_[j] = float(kMomentum) * velocity_[j] + delta[j];
      w_new[j] += float(kMomentumLr) * velocity_[j];
    }
  } else {
    // Adam on the pseudo-gradient (= -delta, sign folded into the update).
    const float b1 = float(kBeta1), b2 = float(kBeta2);
    const double bias1 = 1.0 - std::pow(kBeta1, double(step_));
    const double bias2 = 1.0 - std::pow(kBeta2, double(step_));
    const float lr_t = float(kAdamLr * std::sqrt(bias2) / bias1);
    for (std::size_t j = 0; j < delta.size(); ++j) {
      velocity_[j] = b1 * velocity_[j] + (1.0f - b1) * delta[j];
      second_[j] = b2 * second_[j] + (1.0f - b2) * delta[j] * delta[j];
      w_new[j] +=
          lr_t * velocity_[j] / (std::sqrt(second_[j]) + float(kAdamEps));
    }
  }
  auto views = global_.all_params();
  nn::unflatten_values(w_new, views);
  unflatten_bn_stats(bn, global_);
}

void CompressedFedAvg::state(StateArchive& ar) {
  FederatedAlgorithm::state(ar);
  ar.floats("algo/opt/m", velocity_);
  ar.floats("algo/opt/v", second_);
  ar.u64("algo/opt/t", step_);
}

}  // namespace spatl::fl
