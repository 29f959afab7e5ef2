#include "fl/flat_utils.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace spatl::fl {

data::GradHook make_proximal_hook(std::vector<float> anchor, double mu) {
  return [anchor = std::move(anchor),
          mu = float(mu)](const std::vector<nn::ParamView>& views) {
    std::size_t offset = 0;
    for (const auto& v : views) {
      const std::size_t n = v.value->numel();
      if (offset + n > anchor.size()) {
        throw std::logic_error("proximal hook: anchor shorter than views");
      }
      float* g = v.grad->data();
      const float* w = v.value->data();
      for (std::size_t i = 0; i < n; ++i) {
        g[i] += mu * (w[i] - anchor[offset + i]);
      }
      offset += n;
    }
  };
}

data::GradHook make_correction_hook(std::vector<float> correction) {
  return [correction =
              std::move(correction)](const std::vector<nn::ParamView>& views) {
    std::size_t offset = 0;
    for (const auto& v : views) {
      const std::size_t n = v.value->numel();
      if (offset + n > correction.size()) {
        throw std::logic_error("correction hook: vector shorter than views");
      }
      float* g = v.grad->data();
      for (std::size_t i = 0; i < n; ++i) g[i] += correction[offset + i];
      offset += n;
    }
  };
}

void axpy(std::vector<float>& a, const std::vector<float>& b, float scale) {
  if (a.size() != b.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += scale * b[i];
}

bool is_finite(const std::vector<float>& v) {
  for (const float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

double l2_norm(const std::vector<float>& v) {
  double sum = 0.0;
  for (const float x : v) sum += double(x) * double(x);
  return std::sqrt(sum);
}

std::vector<float> flatten_bn_stats(const models::SplitModel& model) {
  std::vector<float> flat;
  for (const auto* bn : model.batch_norms()) {
    auto* mutable_bn = const_cast<nn::BatchNorm2d*>(bn);
    const auto m = mutable_bn->running_mean().span();
    const auto v = mutable_bn->running_var().span();
    flat.insert(flat.end(), m.begin(), m.end());
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return flat;
}

void unflatten_bn_stats(const std::vector<float>& flat,
                        models::SplitModel& model) {
  std::size_t offset = 0;
  for (auto* bn : model.batch_norms()) {
    const std::size_t n = bn->running_mean().numel();
    if (offset + 2 * n > flat.size()) {
      throw std::invalid_argument("unflatten_bn_stats: size mismatch");
    }
    std::memcpy(bn->running_mean().data(), flat.data() + offset,
                n * sizeof(float));
    std::memcpy(bn->running_var().data(), flat.data() + offset + n,
                n * sizeof(float));
    offset += 2 * n;
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("unflatten_bn_stats: trailing data");
  }
}

void walk_params(StateArchive& ar, const std::string& name,
                 std::vector<nn::ParamView> views) {
  std::vector<float> flat;
  if (!ar.loading()) flat = nn::flatten_values(views);
  ar.floats(name, flat);
  if (ar.loading()) nn::unflatten_values(flat, views);
}

void walk_bn(StateArchive& ar, const std::string& name,
             models::SplitModel& model) {
  std::vector<float> flat;
  if (!ar.loading()) flat = flatten_bn_stats(model);
  ar.floats(name, flat);
  if (ar.loading()) unflatten_bn_stats(flat, model);
}

}  // namespace spatl::fl
