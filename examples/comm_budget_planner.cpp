// Communication-budget planner: given a byte budget per deployment, which
// FL algorithm reaches the target accuracy within it?
//
// Uses the library's byte-accurate CommLedger at bench scale plus the
// analytic full-scale (paper-sized) per-round costs, the way an
// infrastructure team would size an edge-FL rollout.
#include <cstdio>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "common/log.hpp"
#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/runner.hpp"
#include "models/split_model.hpp"

using namespace spatl;

namespace {

double full_scale_round_bytes(const std::string& algo, double sel_fraction) {
  common::Rng rng(1);
  models::ModelConfig cfg;
  cfg.arch = "resnet20";
  cfg = cfg.full_scale();
  models::SplitModel m = models::build_model(cfg, rng);
  const double enc = double(m.encoder_param_count());
  const double full = enc + double(m.predictor_param_count());
  if (algo == "fedavg" || algo == "fedprox") return 2 * full * 4;
  if (algo == "fednova") return 3 * full * 4;
  if (algo == "scaffold") return 4 * full * 4;
  return (2 * enc + 2 * sel_fraction * enc) * 4;  // spatl
}

}  // namespace

int main() {
  common::set_log_level(common::LogLevel::kWarn);

  data::SyntheticConfig dcfg;
  dcfg.num_samples = 10 * 80;
  dcfg.image_size = 10;
  const data::Dataset source = data::make_synth_cifar(dcfg);

  fl::FlConfig cfg;
  cfg.model.arch = "resnet20";
  cfg.model.input_size = 10;
  cfg.model.width_mult = 0.25;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 16;
  cfg.local.lr = 0.05;

  const double target = 0.45;
  const std::size_t max_rounds = 25;

  std::printf("planning: ResNet-20, 10 clients, target %.0f%% accuracy\n\n",
              target * 100.0);
  std::printf("%-10s %8s %16s %20s\n", "method", "rounds",
              "bench-scale cost", "full-scale estimate");

  struct Plan {
    std::string algo;
    std::size_t rounds;
    double full_bytes;
  };
  std::vector<Plan> plans;

  for (const std::string algo :
       {"fedavg", "fedprox", "fednova", "scaffold", "spatl"}) {
    common::Rng rng(42);
    fl::FlEnvironment env(source, 10, 0.5, 0.25, rng);
    std::unique_ptr<fl::FederatedAlgorithm> algorithm;
    core::SpatlAlgorithm* spatl = nullptr;
    if (algo == "spatl") {
      core::SpatlOptions opts;
      opts.agent_finetune_rounds = 1;
      opts.agent_finetune_episodes = 2;
      auto sp = std::make_unique<core::SpatlAlgorithm>(env, cfg, opts);
      spatl = sp.get();
      algorithm = std::move(sp);
    } else {
      algorithm = fl::make_baseline(algo, env, cfg);
    }
    fl::RunOptions ro;
    ro.rounds = max_rounds;
    ro.target_accuracy = target;
    const auto result = fl::run_federated(*algorithm, ro);
    const std::size_t rounds = result.rounds_to_target.value_or(max_rounds);

    double sel = 1.0;
    if (spatl != nullptr) {
      double sp_sum = 0.0;
      for (double s : spatl->client_sparsities()) sp_sum += s;
      sel = 1.0 - sp_sum / double(spatl->client_sparsities().size());
    }
    const double full =
        full_scale_round_bytes(algo, sel) * double(rounds) * 10.0;
    plans.push_back({algo, rounds, full});
    std::printf("%-10s %7zu%s %16s %20s\n", algo.c_str(), rounds,
                result.rounds_to_target ? "" : "*",
                common::format_bytes(result.comm.total()).c_str(),
                common::format_bytes(full).c_str());
  }

  std::printf("\nbudget check at paper-scale model sizes:\n");
  for (double budget_gb : {1.0, 3.0, 10.0}) {
    std::printf("  %.0f GB budget: ", budget_gb);
    bool any = false;
    for (const auto& p : plans) {
      if (p.full_bytes <= budget_gb * 1e9) {
        std::printf("%s%s", any ? ", " : "", p.algo.c_str());
        any = true;
      }
    }
    std::printf("%s\n", any ? " fit" : "no algorithm fits");
  }
  return 0;
}
