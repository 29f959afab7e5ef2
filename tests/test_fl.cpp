#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"

namespace spatl::fl {
namespace {

data::Dataset small_source(std::uint64_t seed = 11) {
  data::SyntheticConfig cfg;
  cfg.num_samples = 400;
  cfg.image_size = 8;
  cfg.num_classes = 10;
  cfg.noise_stddev = 0.2f;
  cfg.seed = seed;
  return data::make_synth_cifar(cfg);
}

FlConfig small_config() {
  FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 32;
  cfg.local.lr = 0.05;
  cfg.seed = 21;
  return cfg;
}

TEST(Environment, PartitionsAndSplitsClients) {
  const auto source = small_source();
  common::Rng rng(13);
  FlEnvironment env(source, 5, /*beta=*/0.5, /*val_fraction=*/0.25, rng);
  EXPECT_EQ(env.num_clients(), 5u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < env.num_clients(); ++i) {
    EXPECT_GT(env.client(i).train.size(), 0u);
    EXPECT_GT(env.client(i).val.size(), 0u);
    total += env.client(i).train.size() + env.client(i).val.size();
  }
  EXPECT_EQ(total, source.size());
  EXPECT_EQ(env.total_train_samples() + 0u, total - [&] {
    std::size_t v = 0;
    for (std::size_t i = 0; i < env.num_clients(); ++i) {
      v += env.client(i).val.size();
    }
    return v;
  }());
}

TEST(FlatUtils, ProximalHookPullsTowardAnchor) {
  common::Rng rng(1);
  models::ModelConfig mc = small_config().model;
  auto m = models::build_model(mc, rng);
  auto views = m.all_params();
  const auto anchor = std::vector<float>(nn::param_count(views), 0.0f);
  m.zero_grad();
  const auto hook = make_proximal_hook(anchor, 2.0);
  hook(views);
  // g == 2 * (w - 0) == 2w.
  std::size_t off = 0;
  const auto w = nn::flatten_values(views);
  const auto g = nn::flatten_grads(views);
  for (std::size_t i = 0; i < w.size(); ++i, ++off) {
    EXPECT_NEAR(g[i], 2.0f * w[i], 1e-5f);
  }
}

TEST(FlatUtils, CorrectionHookAddsVector) {
  common::Rng rng(2);
  auto m = models::build_model(small_config().model, rng);
  auto views = m.all_params();
  std::vector<float> corr(nn::param_count(views), 0.25f);
  m.zero_grad();
  make_correction_hook(corr)(views);
  for (float g : nn::flatten_grads(views)) EXPECT_FLOAT_EQ(g, 0.25f);
}

TEST(FlatUtils, BnStatsRoundTrip) {
  common::Rng rng(3);
  auto a = models::build_model(small_config().model, rng);
  auto b = models::build_model(small_config().model, rng);
  // Perturb a's stats, move to b.
  for (auto* bn : a.batch_norms()) {
    bn->running_mean().fill(0.5f);
    bn->running_var().fill(2.0f);
  }
  unflatten_bn_stats(flatten_bn_stats(a), b);
  for (auto* bn : b.batch_norms()) {
    EXPECT_FLOAT_EQ(bn->running_mean()[0], 0.5f);
    EXPECT_FLOAT_EQ(bn->running_var()[0], 2.0f);
  }
  EXPECT_THROW(unflatten_bn_stats({1.0f}, b), std::invalid_argument);
}

TEST(Baselines, FactoryKnowsAllFourAndRejectsUnknown) {
  const auto source = small_source();
  common::Rng rng(17);
  FlEnvironment env(source, 4, 0.5, 0.25, rng);
  for (const char* name : {"fedavg", "fedprox", "fednova", "scaffold"}) {
    auto algo = make_baseline(name, env, small_config());
    EXPECT_EQ(algo->name(), name);
  }
  EXPECT_THROW(make_baseline("fedsgd", env, small_config()),
               std::invalid_argument);
}

class BaselineLearning : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineLearning, ImprovesAccuracyOverRounds) {
  const auto source = small_source();
  common::Rng rng(19);
  FlEnvironment env(source, 4, /*beta=*/5.0 /*mild skew*/, 0.25, rng);
  auto algo = make_baseline(GetParam(), env, small_config());
  const double before = algo->evaluate_clients().avg_accuracy;
  RunOptions opts;
  opts.rounds = 4;
  const auto result = run_federated(*algo, opts);
  EXPECT_GT(result.final_accuracy, before + 0.1)
      << GetParam() << " failed to learn";
  EXPECT_GT(result.comm.total(), 0.0);
  ASSERT_EQ(result.history.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, BaselineLearning,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold"));

TEST(Baselines, CommunicationAccountingMatchesClosedForm) {
  const auto source = small_source();
  common::Rng rng(23);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  auto cfg = small_config();
  cfg.local.epochs = 1;

  FedAvg fedavg(env, cfg);
  const double p = double(nn::param_count(fedavg.global_model().all_params()));
  RunOptions opts;
  opts.rounds = 2;
  opts.sample_ratio = 1.0;
  run_federated(fedavg, opts);
  // 2 rounds x 4 clients x (down + up) x 4 bytes.
  EXPECT_DOUBLE_EQ(fedavg.ledger().total_bytes(), 2 * 4 * 2 * p * 4.0);

  Scaffold scaffold(env, cfg);
  run_federated(scaffold, opts);
  // SCAFFOLD ships weights + control variates both ways: exactly 2x.
  EXPECT_DOUBLE_EQ(scaffold.ledger().total_bytes(),
                   2.0 * fedavg.ledger().total_bytes());
}

TEST(Baselines, FedNovaUplinkIsDoubleFedAvg) {
  const auto source = small_source();
  common::Rng rng(29);
  FlEnvironment env(source, 3, 5.0, 0.25, rng);
  auto cfg = small_config();
  cfg.local.epochs = 1;
  FedAvg fedavg(env, cfg);
  FedNova fednova(env, cfg);
  RunOptions opts;
  opts.rounds = 1;
  run_federated(fedavg, opts);
  run_federated(fednova, opts);
  EXPECT_DOUBLE_EQ(fednova.ledger().uplink_bytes(),
                   2.0 * fedavg.ledger().uplink_bytes());
  EXPECT_DOUBLE_EQ(fednova.ledger().downlink_bytes(),
                   fedavg.ledger().downlink_bytes());
}

TEST(Runner, DeterministicForSameSeeds) {
  const auto source = small_source();
  common::Rng rng1(31), rng2(31);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  FedAvg a(env1, small_config());
  FedAvg b(env2, small_config());
  RunOptions opts;
  opts.rounds = 2;
  const auto ra = run_federated(a, opts);
  const auto rb = run_federated(b, opts);
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.history[i].avg_accuracy, rb.history[i].avg_accuracy);
  }
}

TEST(Runner, TargetAccuracyStopsEarly) {
  const auto source = small_source();
  common::Rng rng(37);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());
  RunOptions opts;
  opts.rounds = 20;
  opts.target_accuracy = 0.0;  // trivially reached at the first eval
  const auto r = run_federated(algo, opts);
  ASSERT_TRUE(r.rounds_to_target.has_value());
  EXPECT_EQ(*r.rounds_to_target, 1u);
  EXPECT_EQ(r.history.size(), 1u);
}

TEST(Runner, SampleRatioControlsParticipants) {
  const auto source = small_source();
  common::Rng rng(41);
  FlEnvironment env(source, 8, 5.0, 0.25, rng);
  auto cfg = small_config();
  cfg.local.epochs = 1;
  FedAvg algo(env, cfg);
  const double p = double(nn::param_count(algo.global_model().all_params()));
  RunOptions opts;
  opts.rounds = 1;
  opts.sample_ratio = 0.5;  // 4 of 8 clients
  run_federated(algo, opts);
  EXPECT_DOUBLE_EQ(algo.ledger().total_bytes(), 4 * 2 * p * 4.0);
}

TEST(Runner, PerClientAccuracyHasOneEntryPerClient) {
  const auto source = small_source();
  common::Rng rng(43);
  FlEnvironment env(source, 5, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());
  const auto acc = algo.per_client_accuracy();
  EXPECT_EQ(acc.size(), 5u);
  for (double a : acc) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

}  // namespace
}  // namespace spatl::fl
