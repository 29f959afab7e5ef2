#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "fl/compression.hpp"
#include "fl/runner.hpp"

namespace spatl::fl {
namespace {

TEST(Codec, NoneRoundTripsExactly) {
  std::vector<float> delta = {1.0f, -2.5f, 0.0f, 3.25f};
  const auto msg = compress_update(delta, Codec::kNone);
  EXPECT_EQ(decompress_update(msg), delta);
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), 16.0);
}

TEST(Codec, TopKKeepsLargestMagnitudes) {
  std::vector<float> delta = {0.1f, -5.0f, 0.2f, 4.0f, -0.3f};
  const auto msg = compress_update(delta, Codec::kTopK, 0.4);  // k = 2
  const auto decoded = decompress_update(msg);
  EXPECT_FLOAT_EQ(decoded[1], -5.0f);
  EXPECT_FLOAT_EQ(decoded[3], 4.0f);
  EXPECT_FLOAT_EQ(decoded[0], 0.0f);
  EXPECT_FLOAT_EQ(decoded[2], 0.0f);
  EXPECT_FLOAT_EQ(decoded[4], 0.0f);
  // 2 indices + 2 values = 16 bytes vs 20 dense.
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), 16.0);
}

TEST(Codec, TopKAlwaysKeepsAtLeastOne) {
  std::vector<float> delta = {1.0f, 2.0f, 3.0f};
  const auto msg = compress_update(delta, Codec::kTopK, 0.0001);
  EXPECT_EQ(msg.indices.size(), 1u);
  EXPECT_FLOAT_EQ(decompress_update(msg)[2], 3.0f);
}

TEST(Codec, TopKRejectsBadFraction) {
  std::vector<float> delta = {1.0f};
  EXPECT_THROW(compress_update(delta, Codec::kTopK, 0.0),
               std::invalid_argument);
  EXPECT_THROW(compress_update(delta, Codec::kTopK, 1.5),
               std::invalid_argument);
}

TEST(Codec, Int8QuantizationBoundsError) {
  common::Rng rng(3);
  std::vector<float> delta(257);
  for (auto& v : delta) v = rng.uniform_float(-2.0f, 2.0f);
  const auto msg = compress_update(delta, Codec::kInt8);
  const auto decoded = decompress_update(msg);
  float max_abs = 0.0f;
  for (float v : delta) max_abs = std::max(max_abs, std::fabs(v));
  const float step = max_abs / 127.0f;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    EXPECT_NEAR(decoded[i], delta[i], step * 0.5f + 1e-6f);
  }
  // 1 byte per entry + scale; ~4x smaller than dense.
  EXPECT_DOUBLE_EQ(msg.wire_bytes(), double(delta.size()) + 4.0);
}

TEST(Codec, Int8HandlesAllZeroDelta) {
  std::vector<float> delta(16, 0.0f);
  const auto msg = compress_update(delta, Codec::kInt8);
  for (float v : decompress_update(msg)) EXPECT_EQ(v, 0.0f);
}

data::Dataset small_source() {
  data::SyntheticConfig cfg;
  cfg.num_samples = 240;
  cfg.image_size = 8;
  cfg.seed = 11;
  return data::make_synth_cifar(cfg);
}

FlConfig small_config() {
  FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 16;
  cfg.local.lr = 0.05;
  cfg.seed = 13;
  return cfg;
}

TEST(CompressedFedAvg, NoneCodecMatchesFedAvgUplinkBytes) {
  const auto source = small_source();
  common::Rng rng1(5), rng2(5);
  FlEnvironment env1(source, 3, 0.5, 0.25, rng1);
  FlEnvironment env2(source, 3, 0.5, 0.25, rng2);
  FedAvg plain(env1, small_config());
  CompressedFedAvg none(env2, small_config(), Codec::kNone);
  RunOptions ro;
  ro.rounds = 1;
  run_federated(plain, ro);
  run_federated(none, ro);
  EXPECT_DOUBLE_EQ(plain.ledger().uplink_bytes(),
                   none.ledger().uplink_bytes());
}

TEST(CompressedFedAvg, TopKShrinksUplinkAndStillLearns) {
  const auto source = small_source();
  common::Rng rng(7);
  FlEnvironment env(source, 3, 5.0, 0.25, rng);
  auto algo = make_baseline("fedavg+topk", env, small_config());
  const double before = algo->evaluate_clients().avg_accuracy;
  RunOptions ro;
  ro.rounds = 4;
  const auto result = run_federated(*algo, ro);
  EXPECT_GT(result.final_accuracy, before);
  // Uplink must be ~10x smaller than downlink-per-direction.
  EXPECT_LT(algo->ledger().uplink_bytes(),
            0.25 * algo->ledger().downlink_bytes());
}

TEST(CompressedFedAvg, Int8QuartersUplink) {
  const auto source = small_source();
  common::Rng rng(9);
  FlEnvironment env(source, 3, 5.0, 0.25, rng);
  auto algo = make_baseline("fedavg+int8", env, small_config());
  RunOptions ro;
  ro.rounds = 1;
  run_federated(*algo, ro);
  EXPECT_NEAR(algo->ledger().uplink_bytes(),
              algo->ledger().downlink_bytes() / 4.0,
              0.01 * algo->ledger().downlink_bytes());
}

TEST(ServerOpt, FedAvgMAndFedAdamLearn) {
  const auto source = small_source();
  for (auto opt : {ServerOptimizer::kMomentum, ServerOptimizer::kAdam}) {
    common::Rng rng(15);
    FlEnvironment env(source, 3, 5.0, 0.25, rng);
    // Momentum accumulates ~1/(1-m) of the averaged delta, so at this tiny
    // scale the server step must be damped to stay stable (the factory's
    // FedAvgM runs at lr 0.5, momentum 0.5; FedAdam at lr 0.1).
    auto algo = make_baseline(
        opt == ServerOptimizer::kMomentum ? "fedavgm" : "fedadam", env,
        small_config());
    const double before = algo->evaluate_clients().avg_accuracy;
    RunOptions ro;
    ro.rounds = 6;
    const auto result = run_federated(*algo, ro);
    EXPECT_GT(result.best_accuracy, before)
        << algo->name() << " failed to learn";
  }
}

TEST(ServerOpt, NamesDistinguishVariants) {
  const auto source = small_source();
  common::Rng rng(17);
  FlEnvironment env(source, 3, 0.5, 0.25, rng);
  auto m = make_baseline("fedavgm", env, small_config());
  auto a = make_baseline("fedadam", env, small_config());
  EXPECT_EQ(m->name(), "fedavgm");
  EXPECT_EQ(a->name(), "fedadam");
}

}  // namespace
}  // namespace spatl::fl
