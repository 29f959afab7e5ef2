// Second-round coverage: behaviours surfaced while building the benches —
// mobilenet graph structure, codec determinism, loader edge cases, Adam
// bias correction, and SPATL accounting details.
#include <gtest/gtest.h>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/compression.hpp"
#include "fl/local_only.hpp"
#include "fl/runner.hpp"
#include "graph/compute_graph.hpp"
#include "nn/optimizer.hpp"
#include "prune/flops.hpp"

namespace spatl {
namespace {

TEST(MobileNetGraph, DepthwiseNodesAreConvNodesWithoutActions) {
  models::ModelConfig cfg;
  cfg.arch = "mobilenet";
  cfg.input_size = 16;
  cfg.width_mult = 0.25;
  common::Rng rng(3);
  auto m = models::build_model(cfg, rng);
  const auto g = graph::build_compute_graph(m);
  ASSERT_EQ(g.action_nodes.size(), m.gates().size());
  // Depthwise layers appear as conv nodes but are never action targets.
  std::size_t depthwise_nodes = 0;
  for (std::size_t i = 0; i < m.layers().size(); ++i) {
    if (m.layers()[i].kind == models::LayerKind::kDepthwiseConv) {
      ++depthwise_nodes;
      const int node = int(i) + 1;
      EXPECT_EQ(g.node_features[std::size_t(node) *
                                    graph::kNumNodeFeatures +
                                graph::kIsConv],
                1.0f);
      for (int a : g.action_nodes) EXPECT_NE(a, node);
    }
  }
  EXPECT_EQ(depthwise_nodes, 6u);  // one per separable block
}

TEST(MobileNetGraph, PruningReducesFlopsThroughBothStages) {
  models::ModelConfig cfg;
  cfg.arch = "mobilenet";
  cfg.input_size = 16;
  cfg.width_mult = 0.25;
  common::Rng rng(5);
  auto m = models::build_model(cfg, rng);
  const double dense = prune::dense_encoder_flops(m.layers());
  prune::apply_uniform_sparsity(m, 0.5, prune::Criterion::kL2);
  const double gated = prune::encoder_flops(m);
  // Pointwise convs scale ~quadratically (in+out gated), depthwise
  // linearly; total must drop well below 60%.
  EXPECT_LT(gated / dense, 0.6);
}

TEST(Codec, CompressionIsDeterministic) {
  common::Rng rng(7);
  std::vector<float> delta(512);
  for (auto& v : delta) v = rng.normal_float(0.0f, 1.0f);
  const auto a = fl::compress_update(delta, fl::Codec::kTopK, 0.2);
  const auto b = fl::compress_update(delta, fl::Codec::kTopK, 0.2);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.values, b.values);
  const auto qa = fl::compress_update(delta, fl::Codec::kInt8);
  const auto qb = fl::compress_update(delta, fl::Codec::kInt8);
  EXPECT_EQ(qa.qvalues, qb.qvalues);
  EXPECT_EQ(qa.scale, qb.scale);
}

TEST(Codec, TopKIndicesAreSortedAndUnique) {
  common::Rng rng(9);
  std::vector<float> delta(300);
  for (auto& v : delta) v = rng.normal_float(0.0f, 1.0f);
  const auto msg = fl::compress_update(delta, fl::Codec::kTopK, 0.25);
  for (std::size_t i = 1; i < msg.indices.size(); ++i) {
    EXPECT_LT(msg.indices[i - 1], msg.indices[i]);
  }
}

TEST(DataLoader, BatchLargerThanDatasetYieldsSingleBatch) {
  data::SyntheticConfig dc;
  dc.num_samples = 10;
  dc.image_size = 8;
  const auto d = data::make_synth_cifar(dc);
  common::Rng rng(11);
  data::DataLoader loader(d, 64, rng);
  nn::Tensor images;
  std::vector<int> labels;
  ASSERT_TRUE(loader.next(images, labels));
  EXPECT_EQ(labels.size(), 10u);
  EXPECT_FALSE(loader.next(images, labels));
}

TEST(Synthetic, ExplicitLabelsArePreserved) {
  data::SyntheticConfig dc;
  dc.num_samples = 6;
  dc.image_size = 8;
  dc.num_classes = 4;
  const std::vector<int> labels = {3, 1, 0, 2, 3, 3};
  const auto d = data::make_synthetic_with_labels(dc, labels);
  EXPECT_EQ(d.labels(), labels);
}

TEST(Adam, FirstStepEqualsLearningRateInMagnitude) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  nn::Linear lin(1, 1, /*bias=*/false);
  lin.weight() = nn::Tensor({1, 1}, std::vector<float>{0.0f});
  auto params = lin.params();
  (*params[0].grad)[0] = 123.0f;  // magnitude must not matter
  nn::Adam opt(params, {.lr = 0.01});
  opt.step();
  EXPECT_NEAR(lin.weight()[0], -0.01f, 1e-4f);
}

TEST(SpatlAccounting, IndicesAreMeteredWhenSelecting) {
  data::SyntheticConfig dc;
  dc.num_samples = 180;
  dc.image_size = 8;
  const auto source = data::make_synth_cifar(dc);
  common::Rng rng(13);
  fl::FlEnvironment env(source, 3, 0.5, 0.25, rng);
  fl::FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 16;
  core::SpatlOptions opts;
  opts.gradient_control = false;
  opts.agent_finetune_rounds = 0;
  opts.flops_budget = 0.5;
  core::SpatlAlgorithm spatl(env, cfg, opts);
  spatl.run_round({0, 1, 2});
  const double enc =
      double(nn::param_count(spatl.global_model().encoder_params()));
  // Uplink must be below the dense encoder (values) but above zero, and
  // include the (small) channel-index overhead.
  EXPECT_LT(spatl.ledger().uplink_bytes(), 3 * enc * 4.0);
  EXPECT_GT(spatl.ledger().uplink_bytes(), 0.0);
}

TEST(SpatlAccounting, ColdClientChargesDownlinkOnly) {
  data::SyntheticConfig dc;
  dc.num_samples = 180;
  dc.image_size = 8;
  const auto source = data::make_synth_cifar(dc);
  common::Rng rng(17);
  fl::FlEnvironment env(source, 3, 0.5, 0.25, rng);
  fl::FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.local.epochs = 1;
  core::SpatlAlgorithm spatl(env, cfg, {});
  const double up_before = spatl.ledger().uplink_bytes();
  spatl.adapt_cold_client(2, 1);
  EXPECT_DOUBLE_EQ(spatl.ledger().uplink_bytes(), up_before);
  EXPECT_GT(spatl.ledger().downlink_bytes(), 0.0);
}

TEST(Runner, FinalRoundAlwaysEvaluated) {
  data::SyntheticConfig dc;
  dc.num_samples = 120;
  dc.image_size = 8;
  const auto source = data::make_synth_cifar(dc);
  common::Rng rng(19);
  fl::FlEnvironment env(source, 3, 0.5, 0.25, rng);
  fl::FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.local.epochs = 1;
  auto algo = fl::make_baseline("fedavg", env, cfg);
  fl::RunOptions ro;
  ro.rounds = 5;
  ro.eval_every = 3;  // rounds 3 and 5 (final) get evaluated
  const auto r = fl::run_federated(*algo, ro);
  ASSERT_EQ(r.history.size(), 2u);
  EXPECT_EQ(r.history[0].round, 3u);
  EXPECT_EQ(r.history[1].round, 5u);
}

TEST(LocalOnly, TrainsWithoutAnyCommunication) {
  data::SyntheticConfig dc;
  dc.num_samples = 150;
  dc.image_size = 8;
  const auto source = data::make_synth_cifar(dc);
  common::Rng rng(21);
  fl::FlEnvironment env(source, 3, 0.3, 0.25, rng);
  fl::FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.local.epochs = 2;
  cfg.local.batch_size = 16;
  cfg.local.lr = 0.05;
  fl::LocalOnly algo(env, cfg);
  const double before = algo.evaluate_clients().avg_accuracy;
  fl::RunOptions ro;
  ro.rounds = 3;
  const auto result = fl::run_federated(algo, ro);
  EXPECT_GT(result.final_accuracy, before);
  EXPECT_DOUBLE_EQ(result.comm.total(), 0.0);
  EXPECT_EQ(algo.per_client_accuracy().size(), 3u);
}

TEST(LocalOnly, ClientsNeverShareWeights) {
  data::SyntheticConfig dc;
  dc.num_samples = 120;
  dc.image_size = 8;
  const auto source = data::make_synth_cifar(dc);
  common::Rng rng(23);
  fl::FlEnvironment env(source, 2, 0.3, 0.25, rng);
  fl::FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.local.epochs = 1;
  fl::LocalOnly algo(env, cfg);
  algo.run_round({0, 1});
  // Global model untouched: local-only has no aggregation.
  common::Rng ref_rng(cfg.seed);
  auto reference = models::build_model(cfg.model, ref_rng);
  EXPECT_EQ(nn::flatten_values(algo.global_model().all_params()),
            nn::flatten_values(reference.all_params()));
}

}  // namespace
}  // namespace spatl
