// Federated optimization algorithms on one client-round skeleton.
//
// FederatedAlgorithm::run_round is the only round loop (DESIGN.md §8.1). It
// is handed the round's RoundPolicy — the runner's fault model, defences,
// async settings and churn engine, borrowed for the one call — and returns
// the round's RoundStats. Late commits due this round are drained first,
// then every selected client is trained, its payload delivered (where the
// policy's FaultModel may corrupt or lose it and its ResilienceConfig vets
// it) and either parked for a late commit or accepted; a quorum gate over
// the accepted list precedes the combine step. Algorithms override only the
// hooks they differ in: the local gradient hook, the payload and park
// conversions, and the server combine/step. A clean round is the default
// policy: no fault model and the default ResilienceConfig, so nothing is
// injected and only a non-finite update is turned away.
//
// Per-round communication is metered through CommLedger; SCAFFOLD and
// FedNova pay the ~2x per-round cost the paper reports because their
// control/normalization state travels with the weights.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/train.hpp"
#include "fl/async.hpp"
#include "fl/checkpoint.hpp"
#include "fl/churn.hpp"
#include "fl/comm.hpp"
#include "fl/environment.hpp"
#include "fl/fault.hpp"
#include "fl/robust.hpp"
#include "models/split_model.hpp"

namespace spatl::fl {

struct FlConfig {
  models::ModelConfig model;
  data::TrainOptions local;        // paper: 10 local epochs
  double server_lr = 1.0;          // server-side step on aggregated updates
  double fedprox_mu = 0.01;        // FedProx proximal coefficient
  double topk_fraction = 0.1;      // fedavg+topk: kept share of the delta
  std::uint64_t seed = 42;
};

/// One entry of a round's accepted list: a fresh upload as delivered (its
/// `values` are the payload that crossed the wire) or a late commit replayed
/// from the straggler buffer (its `values` are whatever the algorithm's park
/// conversion stored).
struct Contribution : BufferedUpdate {
  double scale = 1.0;  // staleness / straggler down-weight
  bool late = false;   // replayed from the straggler buffer
};

/// What a client hands to the uplink: the payload plus its wire size and the
/// payload-aligned center that Byzantine crafting and the norm bound use.
struct ClientUpload {
  Contribution update;
  double wire_bytes = 0.0;
  const std::vector<float>* reference = nullptr;
};

/// The runner's policy for one round, handed to run_round (DESIGN.md §8.1):
/// everything the round reads that the algorithm does not own. The pointers
/// are borrowed for the one call. The default is a clean synchronous round
/// over a static population.
struct RoundPolicy {
  std::size_t round = 0;  // keys fault decisions and straggler-buffer rounds
  RoundStats admission;   // the runner's admission counts; seeds the stats
  const FaultModel* fault = nullptr;  // null: nothing is injected
  /// The server's defences and its aggregation rule for this round.
  ResilienceConfig rule;
  /// Semi-async straggler commit (DESIGN.md §11); null: stragglers are
  /// down-weighted or rejected within the round.
  const AsyncConfig* async = nullptr;
  ChurnEngine* churn = nullptr;  // null: static population
};

/// The round's robust aggregation rule as combine() applies it. combine()
/// gets none under kWeightedMean, whose arithmetic each algorithm fuses
/// into its own loop.
class RobustRule {
 public:
  RobustRule(const ResilienceConfig& rule, RoundStats& stats)
      : aggregator_(make_robust_aggregator(rule)), stats_(stats) {}
  /// The rule's center of `updates` (`dim` long); the clients it excluded
  /// join the round's suspects and its clips the round's clip count.
  /// `reference` centers norm clipping (may be null).
  AggregateOutcome aggregate(const std::vector<RobustUpdate>& updates,
                             std::size_t dim,
                             const std::vector<float>* reference);
  /// The center of a companion vector (control deltas) of the clients
  /// aggregate() kept: only its clips count.
  AggregateOutcome companion(const std::vector<RobustUpdate>& updates,
                             std::size_t dim);

 private:
  std::unique_ptr<RobustAggregator> aggregator_;
  RoundStats& stats_;
};

struct EvalSummary {
  double avg_accuracy = 0.0;  // mean top-1 over clients' validation sets
  double avg_loss = 0.0;
};

// Checkpoint audit (DESIGN.md §14): every data member below must either
// name the checkpoint key(s) persisting it or opt out with a reason —
// spatl_lint's ckpt pass cross-checks the tags against the real pack /
// unpack sites, so adding resume-relevant state without persisting it
// fails lint instead of a bit-identity test several PRs later.
// ckpt-struct: algo/
class FederatedAlgorithm {
 public:
  FederatedAlgorithm(FlEnvironment& env, FlConfig config);
  virtual ~FederatedAlgorithm() = default;

  virtual std::string name() const = 0;

  /// One communication round over the given participating clients under
  /// `policy`; returns the round's statistics, seeded with
  /// policy.admission.
  virtual RoundStats run_round(const std::vector<std::size_t>& selected,
                               const RoundPolicy& policy = RoundPolicy());

  /// Average validation accuracy of the deployed model across ALL clients
  /// (the paper evaluates heterogeneous per-client performance; for the
  /// uniform-model baselines this is the global model on each client's
  /// validation set).
  EvalSummary evaluate_clients();

  /// Per-client validation accuracy of the deployed model (Fig. local_acc).
  std::vector<double> per_client_accuracy();

  CommLedger& ledger() { return ledger_; }
  const CommLedger& ledger() const { return ledger_; }
  FlEnvironment& environment() { return env_; }
  const FlConfig& config() const { return config_; }
  models::SplitModel& global_model() { return global_; }

  /// Parked updates that would commit at `round` (quorum admission input).
  std::size_t buffered_due(std::size_t round) const {
    return buffer_.due_count(round);
  }
  /// Current straggler-buffer occupancy.
  std::size_t buffered_total() const { return buffer_.size(); }
  /// Drop every parked update, as a run ends; returns how many there were.
  std::size_t drop_parked();

  /// Estimated per-client uplink payload in float32 units, used by the
  /// runner's admission byte budget: the dense parameter vector by default,
  /// 2x for the control-carrying algorithms (FedNova, SCAFFOLD), and the
  /// dense shared encoder (x2 under gradient control) for SPATL — a
  /// conservative bound on its masked payload.
  virtual std::size_t uplink_cost_floats();

  /// Capture / restore the algorithm's complete mutable state for
  /// crash-recoverable rounds: state() in one direction or the other.
  void save_state(RunCheckpoint& out);
  void load_state(const RunCheckpoint& in);
  /// The one walk over the algorithm's checkpointed state (DESIGN.md §8.4).
  /// The base walks the global flat weights and BN statistics ("algo/w",
  /// "algo/bn") and the straggler buffer; subclasses with more server or
  /// per-client state walk the base first, then their own.
  virtual void state(StateArchive& ar);

 protected:
  // ---- round hooks (called by run_round, in this order) ----

  /// Once per round, before any client: the flat server vector uploads are
  /// measured against (the round base). Default: all global parameters.
  virtual std::vector<float> open_round();
  /// Download + local training + payload for one client. Default: train the
  /// worker from the global model with local_grad_hook(); the payload is the
  /// trained flat weights about `base`, metered as uplink_cost_floats().
  virtual ClientUpload train_client(std::size_t client,
                                    const std::vector<float>& base);
  /// Gradient hook for the default local training (none by default).
  virtual data::GradHook local_grad_hook(std::size_t /*client*/,
                                         const std::vector<float>& /*base*/) {
    return nullptr;
  }
  /// Buffer representation of a deferred fresh upload (default: as is).
  virtual BufferedUpdate park_conversion(Contribution update,
                                         const std::vector<float>& /*base*/) {
    return update;
  }
  /// Apply the round from the accepted list (late commits first, then
  /// fresh uploads in selection order). `robust` is the round's robust rule,
  /// null under kWeightedMean. Default: FedAvg's sample-weighted mean of
  /// absolute weights and BN statistics.
  virtual void combine(std::vector<Contribution>& accepted,
                       const std::vector<float>& base, RobustRule* robust);

  /// Client `client`'s deployed model, ready to evaluate; an evaluation pass
  /// asks for clients 0..n-1 in order. Default: the worker holding the
  /// global model, loaded once per pass.
  virtual models::SplitModel& deployed_model(std::size_t client);

  /// Load global weights + BN stats into the worker model.
  void load_global_into_worker();

  /// Aggregation weights over the accepted list: sample count times
  /// staleness scale, normalized (classic FedAvg weighting when everyone
  /// survives with scale 1).
  std::vector<double> accepted_weights(
      const std::vector<Contribution>& accepted) const;
  /// Weighted mean of the accepted BN statistics over the clients the
  /// robust aggregator kept, renormalized over the survivors.
  static std::vector<float> robust_bn_mean(
      const std::vector<Contribution>& accepted,
      const std::vector<double>& weights,
      const std::vector<std::size_t>& excluded);

  FlEnvironment& env_;       // ckpt: none(borrowed substrate, rebuilt by the caller)
  FlConfig config_;          // ckpt: none(configuration, rebuilt from flags/seed)
  common::Rng rng_;          // ckpt: none(consumed at construction for weight init only)
  CommLedger ledger_;        // ckpt: run/ledger
  models::SplitModel global_;  // ckpt: algo/w, algo/bn
  models::SplitModel worker_;  // ckpt: none(scratch, reloaded from global_ every round)
  StragglerBuffer buffer_;     // ckpt: algo/async/
};

// ---------------------------------------------------------------------------

class FedAvg : public FederatedAlgorithm {
 public:
  using FederatedAlgorithm::FederatedAlgorithm;
  std::string name() const override { return "fedavg"; }
};

/// FedAvg plus the proximal term g += mu (w - w_global).
class FedProx : public FedAvg {
 public:
  using FedAvg::FedAvg;
  std::string name() const override { return "fedprox"; }

 private:
  data::GradHook local_grad_hook(std::size_t client,
                                 const std::vector<float>& base) override;
};

/// Normalized averaging (Wang et al., NeurIPS'20): each client's update is
/// divided by its local step count tau_i, then the server applies the
/// effective step tau_eff = sum p_i tau_i.
class FedNova : public FederatedAlgorithm {
 public:
  using FederatedAlgorithm::FederatedAlgorithm;
  std::string name() const override { return "fednova"; }
  /// Normalized update + a_i normalization state: ~2x FedAvg per uplink.
  std::size_t uplink_cost_floats() override {
    return 2 * FederatedAlgorithm::uplink_cost_floats();
  }

 private:
  BufferedUpdate park_conversion(Contribution update,
                                 const std::vector<float>& base) override;
  void combine(std::vector<Contribution>& accepted,
               const std::vector<float>& base, RobustRule* robust) override;
};

// ckpt-struct: algo/scaffold/
class Scaffold : public FederatedAlgorithm {
 public:
  Scaffold(FlEnvironment& env, FlConfig config);
  std::string name() const override { return "scaffold"; }
  void state(StateArchive& ar) override;
  /// Delta weights + delta control variate: ~2x FedAvg per uplink.
  std::size_t uplink_cost_floats() override {
    return 2 * FederatedAlgorithm::uplink_cost_floats();
  }

 private:
  ClientUpload train_client(std::size_t client,
                            const std::vector<float>& base) override;
  data::GradHook local_grad_hook(std::size_t client,
                                 const std::vector<float>& base) override;
  BufferedUpdate park_conversion(Contribution update,
                                 const std::vector<float>& base) override;
  void combine(std::vector<Contribution>& accepted,
               const std::vector<float>& base, RobustRule* robust) override;
  /// Fresh weights -> (values = dw = w_i - w_base, aux = dc), in place.
  void to_deltas(Contribution& update, const std::vector<float>& base) const;

  std::vector<float> server_c_;  // ckpt: algo/scaffold/c
  // Lazily sized per client.
  std::vector<std::vector<float>> client_c_;  // ckpt: algo/scaffold/ci/
};

/// Factory over every `fl` algorithm the CLI exposes: "fedavg", "fedprox",
/// "fednova", "scaffold", "fedavgm", "fedadam", "fedavg+topk",
/// "fedavg+int8" and "local-only" (SPATL lives in core/).
std::unique_ptr<FederatedAlgorithm> make_baseline(const std::string& name,
                                                  FlEnvironment& env,
                                                  FlConfig config);

}  // namespace spatl::fl
