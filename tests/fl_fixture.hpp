// Shared federated-learning test fixture: a small synthetic federation, a
// factory over every CLI algorithm, and the restart drill the resume, chaos
// and churn suites crash their runs with.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"

namespace spatl::fl {

inline data::Dataset small_source(std::uint64_t seed = 11) {
  data::SyntheticConfig cfg;
  cfg.num_samples = 400;
  cfg.image_size = 8;
  cfg.num_classes = 10;
  cfg.noise_stddev = 0.2f;
  cfg.seed = seed;
  return data::make_synth_cifar(cfg);
}

inline FlConfig small_config() {
  FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 32;
  cfg.local.lr = 0.05;
  cfg.seed = 21;
  return cfg;
}

inline std::vector<float> global_weights(FederatedAlgorithm& algo) {
  return nn::flatten_values(algo.global_model().all_params());
}

inline std::unique_ptr<FederatedAlgorithm> make_algorithm(
    const std::string& name, FlEnvironment& env) {
  if (name == "spatl") {
    core::SpatlOptions sopts;
    // One fine-tune round with one episode exercises the PPO agent state
    // (policy net, Adam moments, RNG cursor) without dominating runtime.
    sopts.agent_finetune_rounds = 1;
    sopts.agent_finetune_episodes = 1;
    return std::make_unique<core::SpatlAlgorithm>(env, small_config(), sopts);
  }
  return make_baseline(name, env, small_config());
}

/// A run crashed at the end of each of `crash_rounds` and restarted.
struct Restarted {
  std::unique_ptr<FederatedAlgorithm> algo;  // the last segment's
  /// The last segment's result, which carries the run's checkpointed totals,
  /// with the evaluated history stitched across the segments and the store
  /// counters summed over them.
  RunResult result;
};

/// A crash drill the way a real crash happens (DESIGN.md §12): run to each
/// crash round, drop the algorithm, build a fresh one with `build` and
/// resume it — through the store ladder when `opts` configures a store, else
/// from the previous segment's last in-memory checkpoint. The last segment
/// runs to opts.rounds.
inline Restarted run_with_restarts(
    const std::function<std::unique_ptr<FederatedAlgorithm>()>& build,
    RunOptions opts, const std::vector<std::size_t>& crash_rounds) {
  const std::size_t rounds = opts.rounds;
  Restarted out;
  std::vector<RoundRecord> history;
  std::size_t commits = 0, commit_failures = 0, recoveries = 0, rejected = 0;
  for (std::size_t k = 0; k <= crash_rounds.size(); ++k) {
    const bool last = k == crash_rounds.size();
    opts.rounds = last ? rounds : crash_rounds[k];
    if (k > 0) {
      opts.resume_from_store = opts.ckpt_store.has_value();
      opts.resume = opts.ckpt_store ? nullptr : &out.result.last_checkpoint;
    }
    out.algo = build();
    RunResult seg = run_federated(*out.algo, opts);
    // A segment's final-round evaluation at an off-stride crash round is one
    // the uncrashed run never makes.
    if (!last && opts.rounds % opts.eval_every != 0 && !seg.history.empty() &&
        seg.history.back().round == opts.rounds) {
      seg.history.pop_back();
    }
    // The rounds this segment replays replace the ones the crash lost.
    if (!seg.history.empty()) {
      std::erase_if(history, [&](const RoundRecord& r) {
        return r.round >= seg.history.front().round;
      });
    }
    history.insert(history.end(), seg.history.begin(), seg.history.end());
    commits += seg.store_commits;
    commit_failures += seg.store_commit_failures;
    recoveries += seg.recoveries_from_store;
    rejected += seg.recovery_attempts_failed;
    out.result = std::move(seg);
  }
  out.result.history = std::move(history);
  out.result.store_commits = commits;
  out.result.store_commit_failures = commit_failures;
  out.result.recoveries_from_store = recoveries;
  out.result.recovery_attempts_failed = rejected;
  return out;
}

}  // namespace spatl::fl
