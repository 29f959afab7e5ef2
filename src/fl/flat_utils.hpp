// Flat-vector helpers shared by the FL algorithms.
//
// Every algorithm treats the model as one contiguous float vector (the
// flatten order of ParamViews). Gradient hooks mutate gradients positionally
// against anchors / control variates in the same order.
#pragma once

#include <string>
#include <vector>

#include "data/train.hpp"
#include "fl/checkpoint.hpp"
#include "models/split_model.hpp"

namespace spatl::fl {

/// g += mu * (w - anchor): FedProx's proximal gradient term. `anchor` must
/// match the flatten order/size of the hooked views.
data::GradHook make_proximal_hook(std::vector<float> anchor, double mu);

/// g += correction (positionally): SCAFFOLD / SPATL's control-variate
/// correction c - c_i.
data::GradHook make_correction_hook(std::vector<float> correction);

/// Eq. 10's K*lr for a client that took `steps` local steps: momentum-SGD
/// moves ~lr/(1-m) per step at steady state, so the control-variate
/// estimate must be scaled accordingly or it overshoots by 1/(1-m) and
/// diverges. Shared by SCAFFOLD and SPATL.
inline double control_k_lr(const data::TrainOptions& local, double steps) {
  return steps * (local.lr / (1.0 - local.momentum));
}

/// One coordinate of eq. 10 (SCAFFOLD option II):
/// c_i+ = c_i - c + (w_global - w_i) / (K*lr).
inline float control_update(float c_i, float c, float w_global, float w_i,
                            double k_lr) {
  return c_i - c + float((w_global - w_i) / k_lr);
}

/// a += scale * b elementwise (sizes must match).
void axpy(std::vector<float>& a, const std::vector<float>& b, float scale);

/// True iff every element is finite (no NaN/Inf). Empty vectors are finite.
bool is_finite(const std::vector<float>& v);

/// Euclidean norm, accumulated in double. Empty vectors have norm 0.
double l2_norm(const std::vector<float>& v);

/// Flatten/restore batch-norm running statistics (mean then var, layer
/// order). These are buffers, not parameters — baselines average them
/// alongside weights; SPATL keeps them local.
std::vector<float> flatten_bn_stats(const models::SplitModel& model);
void unflatten_bn_stats(const std::vector<float>& flat,
                        models::SplitModel& model);

/// Checkpoint walks over model state, one flat float entry each: parameter
/// values in view order, and BN running statistics.
void walk_params(StateArchive& ar, const std::string& name,
                 std::vector<nn::ParamView> views);
void walk_bn(StateArchive& ar, const std::string& name,
             models::SplitModel& model);

}  // namespace spatl::fl
