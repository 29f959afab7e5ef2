// SPATL: Salient Parameter Aggregation and Transfer Learning (paper §IV).
//
// Per round, each selected client:
//   1. downloads the shared encoder (and the server control variate c),
//   2. runs local SGD with encoder-gradient correction  g += c - c_i  (eq. 9)
//      while its private predictor transfers the encoder's knowledge to the
//      local non-IID data (eq. 3),
//   3. updates its control variate c_i via eq. 10,
//   4. asks its (fine-tuned) GNN-RL agent for per-layer sparsity actions,
//      realizes them as channel masks, and uploads only the selected salient
//      parameters + channel indices (+ the correction delta on the same
//      positions),
// and the server applies the masked aggregation of eq. 12 and the variate
// update of eq. 11.
//
// Ablation toggles map 1:1 to the paper's §V-F studies: salient selection
// (Fig. 4), transfer learning (Fig. 5a), gradient control (Fig. 5b).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "fl/algorithm.hpp"
#include "rl/ppo.hpp"
#include "rl/pruning_env.hpp"

namespace spatl::core {

struct SpatlOptions {
  bool salient_selection = true;   // off => upload the dense encoder
  bool transfer_learning = true;   // off => predictor is shared/aggregated too
  bool gradient_control = true;    // off => plain local SGD
  double flops_budget = 0.6;       // RL selection budget (fraction of dense)
  double server_lr = 1.0;          // eq. 12 step size
  rl::PpoConfig ppo;               // agent hyper-parameters
  std::size_t agent_finetune_rounds = 10;   // paper: first 10 rounds
  std::size_t agent_finetune_episodes = 4;  // episodes per fine-tune round
  prune::Criterion selection_criterion = prune::Criterion::kL2;
};

/// Persistent client-side state: the private predictor (and BN statistics)
/// live inside `model`; `control` is c_i; `agent` is the locally customized
/// salient-parameter selector.
// ckpt-struct: spatl/client/<i>/
struct SpatlClientState {
  models::SplitModel model;    // ckpt: w, bn
  std::vector<float> control;  // ckpt: c (c_i over encoder params)
  // ckpt: agent/net, agent/m, agent/v, agent/t, agent/finetune, agent/rng
  std::unique_ptr<rl::PpoAgent> agent;
  std::size_t participations = 0;  // ckpt: part
  double last_flops_ratio = 1.0;   // ckpt: metrics
  double last_sparsity = 0.0;      // ckpt: metrics
};

// ckpt-struct: spatl/
class SpatlAlgorithm : public fl::FederatedAlgorithm {
 public:
  /// `pretrained_agent` is the network-pruning-pretrained selector that
  /// clients clone and fine-tune (§IV-B). Pass nullptr to start clients
  /// from a fresh agent (used by ablations/tests).
  SpatlAlgorithm(fl::FlEnvironment& env, fl::FlConfig config,
                 SpatlOptions options,
                 const rl::PpoAgent* pretrained_agent = nullptr);

  std::string name() const override { return "spatl"; }
  /// Admission-budget estimate: the dense shared encoder (doubled when
  /// gradient control ships deltas on the same positions) — a conservative
  /// bound on the masked salient payload.
  std::size_t uplink_cost_floats() override;

  /// Per-client FLOPs ratio / sparsity after the latest selection
  /// (Table "inference").
  std::vector<double> client_flops_ratios() const;
  std::vector<double> client_sparsities() const;

  const SpatlOptions& options() const { return options_; }

  /// Adapt a client that never participated: download the encoder and train
  /// only the local predictor (eq. 4). Returns its validation accuracy.
  double adapt_cold_client(std::size_t client, std::size_t epochs);

  /// Access a client's current model (creates state lazily).
  models::SplitModel& client_model(std::size_t client);

  std::size_t current_round() const { return round_; }

  /// Crash-recoverable rounds: walks the round counter, server control
  /// variate, and every materialized client's model, BN statistics, control
  /// variate, and PPO agent (network, Adam moments, RNG cursor). Clients
  /// not yet materialized at capture time are recreated lazily after
  /// restore, which is deterministic by construction.
  void state(fl::StateArchive& ar) override;

 private:
  // Client-round skeleton hooks. The round base is the flat shared vector
  // (the encoder, plus the predictor when transfer learning is off).
  std::vector<float> open_round() override;
  fl::ClientUpload train_client(std::size_t client,
                                const std::vector<float>& base) override;
  /// A parked salient update keeps its upload mask alongside the compacted
  /// deltas, so a late commit replays through the same per-coordinate owner
  /// counting (or the masked-payload aware robust aggregator) as a fresh one.
  fl::BufferedUpdate park_conversion(fl::Contribution update,
                                     const std::vector<float>& base) override;
  void combine(std::vector<fl::Contribution>& accepted,
               const std::vector<float>& base) override;
  /// SPATL deploys heterogeneous models: evaluation uses each client's own
  /// predictor and BN statistics with the current global encoder.
  models::SplitModel& deployed_model(std::size_t client) override;

  SpatlClientState& client_state(std::size_t client);
  void sync_encoder_to_client(SpatlClientState& state);
  /// 0/1 include-mask over the flat shared vector from the client's gates.
  std::vector<std::uint8_t> upload_mask(models::SplitModel& model,
                                        std::size_t shared_dim) const;

  SpatlOptions options_;  // ckpt: none(configuration)
  // ckpt: none(cloned from the caller's pretrained selector at construction)
  std::unique_ptr<rl::PpoAgent> pretrained_;
  // Lazily built per client; a slot travels keyed on its weights entry.
  // ckpt: w (then SpatlClientState's keys, under spatl/client/<i>/)
  std::vector<std::unique_ptr<SpatlClientState>> clients_;
  std::vector<float> server_control_;  // ckpt: spatl/c (c over encoder params)
  std::size_t round_ = 0;              // ckpt: spatl/round
  // ckpt: none(the uploading client's payload center, per-upload scratch)
  std::vector<float> payload_ref_;
};

}  // namespace spatl::core
