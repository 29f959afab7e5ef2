// Quickstart: train SPATL on a small synthetic non-IID federation and
// compare against FedAvg on the two axes the paper optimizes — accuracy
// under heterogeneity, and communication spent to reach a target accuracy.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "common/log.hpp"
#include "common/units.hpp"
#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/runner.hpp"

using namespace spatl;

int main() {
  common::set_log_level(common::LogLevel::kWarn);

  // 1. A CIFAR-like synthetic dataset, split across 8 clients with strong
  //    Dirichlet(0.25) label skew — the regime federated personalization
  //    is built for.
  data::SyntheticConfig dcfg;
  dcfg.num_samples = 8 * 100;
  dcfg.image_size = 12;
  const data::Dataset source = data::make_synth_cifar(dcfg);

  // 2. A ResNet-20 encoder/predictor pair, CPU-sized.
  fl::FlConfig cfg;
  cfg.model.arch = "resnet20";
  cfg.model.input_size = 12;
  cfg.model.width_mult = 0.25;
  cfg.local.epochs = 3;
  cfg.local.batch_size = 16;
  cfg.local.lr = 0.05;

  const double target = 0.45;
  const std::size_t max_rounds = 14;

  struct Outcome {
    std::string name;
    fl::RunResult result;
  };
  std::vector<Outcome> outcomes;

  // 3. SPATL: salient selection + knowledge transfer + gradient control.
  {
    common::Rng rng(42);
    fl::FlEnvironment env(source, 8, /*beta=*/0.25, 0.25, rng);
    core::SpatlOptions opts;
    opts.flops_budget = 0.7;
    opts.agent_finetune_rounds = 2;
    opts.agent_finetune_episodes = 2;
    core::SpatlAlgorithm spatl(env, cfg, opts);
    fl::RunOptions ro;
    ro.rounds = max_rounds;
    ro.target_accuracy = target;
    std::printf("training SPATL (ResNet-20, 8 clients, Dirichlet 0.25)...\n");
    outcomes.push_back(
        {"SPATL", fl::run_federated(spatl, ro,
                                    [](std::size_t round,
                                       const fl::RoundRecord& rec) {
                                      std::printf(
                                          "  round %2zu: avg accuracy %5.1f%%"
                                          "  (%s sent)\n",
                                          round, rec.avg_accuracy * 100.0,
                                          common::format_bytes(
                                              rec.cumulative_bytes)
                                              .c_str());
                                    })});
  }

  // 4. The FedAvg reference under the identical federation.
  {
    common::Rng rng(42);
    fl::FlEnvironment env(source, 8, 0.25, 0.25, rng);
    auto fedavg = fl::make_baseline("fedavg", env, cfg);
    fl::RunOptions ro;
    ro.rounds = max_rounds;
    ro.target_accuracy = target;
    std::printf("training FedAvg on the same federation...\n");
    outcomes.push_back({"FedAvg", fl::run_federated(*fedavg, ro)});
  }

  std::printf("\nreaching %.0f%% average client accuracy:\n", target * 100.0);
  for (const auto& o : outcomes) {
    if (o.result.rounds_to_target) {
      std::printf("  %-6s: %2zu rounds, %s communicated\n", o.name.c_str(),
                  *o.result.rounds_to_target,
                  common::format_bytes(o.result.comm.total()).c_str());
    } else {
      std::printf("  %-6s: not reached in %zu rounds (best %.1f%%, %s)\n",
                  o.name.c_str(), max_rounds,
                  o.result.best_accuracy * 100.0,
                  common::format_bytes(o.result.comm.total()).c_str());
    }
  }
  return 0;
}
