#include "core/spatl.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/check.hpp"
#include "data/loader.hpp"
#include "fl/flat_utils.hpp"
#include "obs/trace.hpp"
#include "prune/flops.hpp"
#include "prune/pipelines.hpp"

namespace spatl::core {

namespace {

std::vector<nn::ParamView> shared_views(models::SplitModel& model,
                                        bool transfer_learning) {
  // Encoder views always come first so the control variates (encoder-sized)
  // align with the leading positions of the shared flat vector.
  return transfer_learning ? model.encoder_params() : model.all_params();
}

std::vector<float> flatten_nested(const std::vector<std::vector<float>>& v) {
  std::vector<float> out;
  for (const auto& sub : v) out.insert(out.end(), sub.begin(), sub.end());
  return out;
}

/// Refill `v`'s sub-vectors (sizes unchanged) from a concatenated flat copy.
void restore_nested(const std::vector<float>& flat,
                    std::vector<std::vector<float>>& v) {
  std::size_t off = 0;
  for (auto& sub : v) {
    if (off + sub.size() > flat.size()) {
      throw std::runtime_error("checkpoint: optimizer moment size mismatch");
    }
    std::copy(flat.begin() + std::ptrdiff_t(off),
              flat.begin() + std::ptrdiff_t(off + sub.size()), sub.begin());
    off += sub.size();
  }
  if (off != flat.size()) {
    throw std::runtime_error("checkpoint: optimizer moment size mismatch");
  }
}

}  // namespace

SpatlAlgorithm::SpatlAlgorithm(fl::FlEnvironment& env, fl::FlConfig config,
                               SpatlOptions options,
                               const rl::PpoAgent* pretrained_agent)
    : fl::FederatedAlgorithm(env, std::move(config)),
      options_(options) {
  if (pretrained_agent != nullptr) {
    pretrained_ = std::make_unique<rl::PpoAgent>(
        pretrained_agent->clone(config_.seed ^ 0xA9E47ULL));
    // On-device customization only tunes the MLP heads (paper §IV-B).
    pretrained_->set_finetune(true);
  }
  clients_.resize(env_.num_clients());
  server_control_.assign(nn::param_count(global_.encoder_params()), 0.0f);
}

SpatlClientState& SpatlAlgorithm::client_state(std::size_t client) {
  if (client >= clients_.size()) {
    throw std::out_of_range("SpatlAlgorithm: bad client id");
  }
  auto& slot = clients_[client];
  if (!slot) {
    slot = std::make_unique<SpatlClientState>();
    // Fresh local predictor; the encoder is overwritten on first sync.
    common::Rng init_rng(config_.seed ^ (0x9e3779b9ULL * (client + 1)));
    slot->model = models::build_model(config_.model, init_rng);
    slot->control.assign(server_control_.size(), 0.0f);
    const std::uint64_t agent_seed =
        config_.seed ^ (0xFACEULL * (client + 1));
    if (pretrained_) {
      slot->agent =
          std::make_unique<rl::PpoAgent>(pretrained_->clone(agent_seed));
    } else {
      slot->agent = std::make_unique<rl::PpoAgent>(
          std::size_t(graph::kNumNodeFeatures), options_.ppo, agent_seed);
      slot->agent->set_finetune(false);  // no pretrained trunk to protect
    }
  }
  return *slot;
}

models::SplitModel& SpatlAlgorithm::client_model(std::size_t client) {
  return client_state(client).model;
}

void SpatlAlgorithm::sync_encoder_to_client(SpatlClientState& state) {
  nn::unflatten_values(nn::flatten_values(global_.encoder_params()),
                       state.model.encoder_params());
  if (!options_.transfer_learning) {
    nn::unflatten_values(nn::flatten_values(global_.predictor_params()),
                         state.model.predictor_params());
  }
  state.model.reset_gates();
}

std::vector<std::uint8_t> SpatlAlgorithm::upload_mask(
    models::SplitModel& model, std::size_t shared_dim) const {
  std::vector<std::uint8_t> mask(shared_dim, 1);
  auto views = shared_views(model, options_.transfer_learning);
  // Flat offset of each view, in order.
  std::size_t offset = 0;
  for (const auto& v : views) {
    for (const auto& binding : model.conv_bindings()) {
      if (v.value != &binding.conv->weight()) continue;
      const std::size_t out_ch = binding.conv->out_channels();
      const std::size_t in_ch = binding.conv->in_channels();
      const std::size_t kk = binding.conv->kernel() * binding.conv->kernel();
      const auto* out_mask = binding.out_gate >= 0
                                 ? &model.gates()[binding.out_gate]->mask()
                                 : nullptr;
      const auto* in_mask = binding.in_gate >= 0
                                ? &model.gates()[binding.in_gate]->mask()
                                : nullptr;
      for (std::size_t o = 0; o < out_ch; ++o) {
        const bool row_on = out_mask == nullptr || (*out_mask)[o];
        for (std::size_t c = 0; c < in_ch; ++c) {
          const bool col_on = in_mask == nullptr || (*in_mask)[c];
          if (row_on && col_on) continue;
          const std::size_t base = offset + (o * in_ch + c) * kk;
          std::fill(mask.begin() + std::ptrdiff_t(base),
                    mask.begin() + std::ptrdiff_t(base + kk), std::uint8_t{0});
        }
      }
      break;
    }
    offset += v.value->numel();
  }
  return mask;
}

std::size_t SpatlAlgorithm::uplink_cost_floats() {
  const std::size_t shared_dim = nn::param_count(
      shared_views(global_, options_.transfer_learning));
  return options_.gradient_control ? 2 * shared_dim : shared_dim;
}

std::vector<float> SpatlAlgorithm::open_round() {
  ++round_;
  return nn::flatten_values(shared_views(global_, options_.transfer_learning));
}

fl::ClientUpload SpatlAlgorithm::train_client(std::size_t i,
                                              const std::vector<float>& base) {
  const std::size_t shared_dim = base.size();
  const std::size_t enc_dim = server_control_.size();
  SpatlClientState& state = client_state(i);
  sync_encoder_to_client(state);
  // Downlink: encoder (+ control variate) (+ predictor when transfer
  // learning is ablated off and the whole model is shared).
  ledger_.add_downlink_floats(enc_dim);
  if (options_.gradient_control) ledger_.add_downlink_floats(enc_dim);
  if (!options_.transfer_learning) {
    ledger_.add_downlink_floats(shared_dim - enc_dim);
  }

  // Local update (eq. 3) with encoder-gradient correction (eq. 9).
  data::GradHook hook;
  if (options_.gradient_control) {
    std::vector<float> correction(enc_dim);
    for (std::size_t j = 0; j < enc_dim; ++j) {
      correction[j] = server_control_[j] - state.control[j];
    }
    auto enc_views = state.model.encoder_params();
    hook = [corr = std::move(correction),
            enc_views](const std::vector<nn::ParamView>&) {
      std::size_t off = 0;
      for (const auto& v : enc_views) {
        float* g = v.grad->data();
        const std::size_t n = v.value->numel();
        for (std::size_t j = 0; j < n; ++j) g[j] += corr[off + j];
        off += n;
      }
    };
  }
  common::Rng client_rng(config_.seed ^ (0xC11E47ULL * (i + 1)) ^
                         (round_ * 0x51ULL));
  data::TrainStats stats;
  {
    SPATL_TRACE_SPAN("fl/train");
    stats =
        data::train_supervised(state.model, env_.client(i).train,
                               config_.local, client_rng,
                               state.model.all_params(), hook);
  }
  ++state.participations;

  // Control-variate update (eq. 10, option II), committed client-side.
  std::vector<float> dc(enc_dim, 0.0f);
  if (options_.gradient_control) {
    const auto w_enc_i = nn::flatten_values(state.model.encoder_params());
    const double k_lr = fl::control_k_lr(
        config_.local, double(std::max<std::size_t>(1, stats.steps)));
    for (std::size_t j = 0; j < enc_dim; ++j) {
      const float c_new = fl::control_update(
          state.control[j], server_control_[j], base[j], w_enc_i[j], k_lr);
      dc[j] = c_new - state.control[j];
      state.control[j] = c_new;
    }
  }

  // Salient parameter selection (§IV-B): the agent evaluates the trained
  // encoder and picks the sparsity policy; the gates realize it.
  std::size_t selected_indices = 0;
  if (options_.salient_selection) {
    SPATL_TRACE_SPAN("spatl/select");
    rl::PruningEnvConfig env_cfg;
    env_cfg.flops_budget = options_.flops_budget;
    env_cfg.criterion = options_.selection_criterion;
    rl::PruningEnv prune_env(state.model, env_.client(i).val, env_cfg);
    if (round_ <= options_.agent_finetune_rounds &&
        options_.agent_finetune_episodes > 0) {
      rl::train_on_pruning(*state.agent, prune_env, /*rounds=*/1,
                           options_.agent_finetune_episodes);
    }
    const auto graph = prune_env.reset();
    const auto actions = state.agent->act(graph, /*explore=*/false);
    const auto sr = prune_env.step(actions);
    state.last_flops_ratio = sr.flops_ratio;
    state.last_sparsity = prune::overall_sparsity(state.model);
    for (const auto* gate : state.model.gates()) {
      for (auto m : gate->mask()) selected_indices += m;
    }
  } else {
    state.model.reset_gates();
    state.last_flops_ratio = 1.0;
    state.last_sparsity = 0.0;
  }
  ledger_.add_uplink_indices(selected_indices);

  // Masked upload (eq. 12's (values, index) pairs). The salient values
  // and the control deltas on the same positions travel as one payload,
  // so in-flight corruption/loss and server-side validation see exactly
  // what crosses the wire.
  fl::ClientUpload up;
  auto& payload = up.update.values;
  up.update.mask = upload_mask(state.model, shared_dim);
  const auto& mask = up.update.mask;
  const auto w_i =
      nn::flatten_values(shared_views(state.model, options_.transfer_learning));
  payload.reserve(shared_dim);
  for (std::size_t j = 0; j < shared_dim; ++j) {
    if (mask[j]) payload.push_back(w_i[j]);
  }
  if (options_.gradient_control) {
    for (std::size_t j = 0; j < enc_dim; ++j) {
      if (mask[j]) payload.push_back(dc[j]);
    }
  }
  // Payload-aligned reference: the global weights on the salient
  // positions, zero on the control-delta segment. Byzantine crafting and
  // the norm-bound defense both operate about this center, so a sign-flip
  // genuinely reverses the client's *update* rather than its raw weights.
  payload_ref_.clear();
  for (std::size_t j = 0; j < shared_dim; ++j) {
    if (mask[j]) payload_ref_.push_back(base[j]);
  }
  payload_ref_.resize(payload.size(), 0.0f);
  up.wire_bytes = 4.0 * double(payload.size());
  up.reference = &payload_ref_;
  return up;
}

namespace {

/// Move a fresh payload's control-delta tail into `aux`, leaving the
/// compacted salient values in `values` — the layout late commits carry.
void split_control(fl::Contribution& up) {
  const auto salient =
      std::size_t(std::count(up.mask.begin(), up.mask.end(), 1));
  up.aux.assign(up.values.begin() + std::ptrdiff_t(salient), up.values.end());
  up.values.resize(salient);
}

}  // namespace

// The update parks raw (deltas against this round's base, no scale yet —
// the staleness discount depends on the actual commit round, which a
// skipped round can push further out).
fl::BufferedUpdate SpatlAlgorithm::park_conversion(
    fl::Contribution update, const std::vector<float>& base) {
  split_control(update);
  std::size_t p = 0;
  for (std::size_t j = 0; j < base.size(); ++j) {
    if (!update.mask[j]) continue;
    update.values[p] = float(double(update.values[p]) - double(base[j]));
    ++p;
  }
  return update;
}

void SpatlAlgorithm::combine(std::vector<fl::Contribution>& accepted,
                             const std::vector<float>& base) {
  const std::size_t shared_dim = base.size();
  const std::size_t enc_dim = server_control_.size();
  // One layout for every entry: compacted salient values in `values` (raw
  // weights when fresh, deltas when late), control deltas in `aux`.
  for (auto& up : accepted) {
    if (!up.late) split_control(up);
  }
  // Staleness-scaled delta at compact position p (coordinate j). Control
  // deltas commit full-strength (bookkeeping, not a step).
  const auto delta = [&](const fl::Contribution& up, std::size_t p,
                         std::size_t j) {
    return up.scale * (up.late ? double(up.values[p])
                               : double(up.values[p]) - double(base[j]));
  };
  std::vector<float> w_new = base;
  auto global_shared = shared_views(global_, options_.transfer_learning);

  if (robust_active()) {
    // Robust masked aggregation: per-coordinate statistics run over the
    // clients that transmitted each coordinate; Krum scores pairs on their
    // shared support. The center replaces eq. 12's per-coordinate mean.
    std::vector<fl::RobustUpdate> ups(accepted.size());
    for (std::size_t s = 0; s < accepted.size(); ++s) {
      auto& up = accepted[s];
      std::size_t p = 0;
      for (std::size_t j = 0; j < shared_dim; ++j) {
        if (!up.mask[j]) continue;
        up.values[p] = float(delta(up, p, j));
        ++p;
      }
      ups[s] = {up.client, 1.0, &up.values, &up.mask};
    }
    const auto outcome = robust_combine(ups, shared_dim, nullptr);
    for (std::size_t j = 0; j < shared_dim; ++j) {
      if (outcome.defined[j]) {
        w_new[j] += float(options_.server_lr * double(outcome.value[j]));
      }
    }
    nn::unflatten_values(w_new, global_shared);
    if (!options_.gradient_control) return;
    // eq. 11's c += sum(dc)/N with the per-coordinate owner mean replaced
    // by the robust center over the clients the aggregator kept.
    std::vector<fl::RobustUpdate> dc_ups;
    std::vector<std::vector<std::uint8_t>> cmasks(accepted.size());
    std::vector<std::uint32_t> c_count(enc_dim, 0);
    for (std::size_t s = 0; s < accepted.size(); ++s) {
      const auto& up = accepted[s];
      if (std::find(outcome.excluded.begin(), outcome.excluded.end(),
                    up.client) != outcome.excluded.end()) {
        continue;
      }
      cmasks[s].assign(up.mask.begin(),
                       up.mask.begin() + std::ptrdiff_t(enc_dim));
      dc_ups.push_back({up.client, 1.0, &up.aux, &cmasks[s]});
      for (std::size_t j = 0; j < enc_dim; ++j) c_count[j] += cmasks[s][j];
    }
    if (dc_ups.empty()) return;
    const auto dc_out = robust_->aggregate(dc_ups, enc_dim, nullptr);
    SPATL_DCHECK(dc_out.value.size() == enc_dim &&
                 dc_out.defined.size() == enc_dim);
    stats_.clipped += dc_out.clipped;
    const double inv_n = 1.0 / double(env_.num_clients());
    for (std::size_t j = 0; j < enc_dim; ++j) {
      if (dc_out.defined[j]) {
        server_control_[j] +=
            float(double(c_count[j]) * inv_n * double(dc_out.value[j]));
      }
    }
    return;
  }

  // Server: masked aggregation (eq. 12) over each coordinate's owners ...
  std::vector<double> delta_sum(shared_dim, 0.0);
  std::vector<std::uint32_t> count(shared_dim, 0);
  std::vector<double> dc_sum(enc_dim, 0.0);
  for (const auto& up : accepted) {
    std::size_t p = 0;
    for (std::size_t j = 0; j < shared_dim; ++j) {
      if (!up.mask[j]) continue;
      delta_sum[j] += delta(up, p, j);
      ++count[j];
      ++p;
    }
    if (!options_.gradient_control) continue;
    p = 0;
    for (std::size_t j = 0; j < enc_dim; ++j) {
      if (up.mask[j]) dc_sum[j] += double(up.aux[p++]);
    }
  }
  for (std::size_t j = 0; j < shared_dim; ++j) {
    if (count[j] == 0) continue;
    w_new[j] += float(options_.server_lr * delta_sum[j] / double(count[j]));
  }
  nn::unflatten_values(w_new, global_shared);
  // ... and the control update (eq. 11): c += sum(dc)/N.
  if (options_.gradient_control) {
    const double inv_n = 1.0 / double(env_.num_clients());
    for (std::size_t j = 0; j < enc_dim; ++j) {
      server_control_[j] += float(dc_sum[j] * inv_n);
    }
  }
}

models::SplitModel& SpatlAlgorithm::deployed_model(std::size_t client) {
  SpatlClientState& state = client_state(client);
  sync_encoder_to_client(state);  // deploy the current shared encoder
  return state.model;
}

std::vector<double> SpatlAlgorithm::client_flops_ratios() const {
  std::vector<double> out;
  out.reserve(clients_.size());
  for (const auto& c : clients_) {
    out.push_back(c ? c->last_flops_ratio : 1.0);
  }
  return out;
}

std::vector<double> SpatlAlgorithm::client_sparsities() const {
  std::vector<double> out;
  out.reserve(clients_.size());
  for (const auto& c : clients_) {
    out.push_back(c ? c->last_sparsity : 0.0);
  }
  return out;
}

void SpatlAlgorithm::state(fl::StateArchive& ar) {
  fl::FederatedAlgorithm::state(ar);
  ar.floats("spatl/c", server_control_);
  ar.u64("spatl/round", round_);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    // Only materialized clients travel, keyed on their weights entry; a
    // slot absent from the snapshot is reset and recreated lazily on first
    // use, which is deterministic by construction.
    std::vector<float> w;
    if (clients_[i]) w = nn::flatten_values(clients_[i]->model.all_params());
    const std::string p = "spatl/client/" + std::to_string(i) + "/";
    if (!ar.optional(clients_[i] != nullptr).floats(p + "w", w)) {
      clients_[i].reset();
      continue;
    }
    SpatlClientState& c = client_state(i);
    if (ar.loading()) nn::unflatten_values(w, c.model.all_params());
    fl::walk_bn(ar, p + "bn", c.model);
    ar.floats(p + "c", c.control);
    ar.u64(p + "part", c.participations);
    ar.f64(p + "metrics", c.last_flops_ratio, c.last_sparsity);
    rl::PpoAgent& agent = *c.agent;
    fl::walk_params(ar, p + "agent/net", agent.network().all_params());
    std::vector<float> m = flatten_nested(agent.adam().first_moments());
    std::vector<float> v = flatten_nested(agent.adam().second_moments());
    std::int64_t t = agent.adam().step_count();
    bool finetune = agent.finetune();
    ar.floats(p + "agent/m", m);
    ar.floats(p + "agent/v", v);
    ar.u64(p + "agent/t", t);
    ar.u64(p + "agent/finetune", finetune);
    ar.rng(p + "agent/rng", agent.rng());
    if (ar.loading()) {
      // Finetune first: flipping it rebinds the optimizer to the matching
      // trainable set, so the moment layout below lines up.
      agent.set_finetune(finetune);
      restore_nested(m, agent.adam().first_moments());
      restore_nested(v, agent.adam().second_moments());
      agent.adam().set_step_count(t);
    }
  }
}

double SpatlAlgorithm::adapt_cold_client(std::size_t client,
                                         std::size_t epochs) {
  SpatlClientState& state = client_state(client);
  sync_encoder_to_client(state);
  ledger_.add_downlink_floats(server_control_.size());
  data::TrainOptions opts = config_.local;
  opts.epochs = epochs;
  common::Rng rng(config_.seed ^ (0xC01DULL * (client + 1)));
  // eq. 4: optimize the local predictor only; the encoder stays fixed.
  data::train_supervised(state.model, env_.client(client).train, opts, rng,
                         state.model.predictor_params());
  return data::evaluate(state.model, env_.client(client).val).accuracy;
}

}  // namespace spatl::core
