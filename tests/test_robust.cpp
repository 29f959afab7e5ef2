#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/fault.hpp"
#include "fl/flat_utils.hpp"
#include "fl/robust.hpp"
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
  cfg.local.epochs = 1;
  cfg.local.batch_size = 32;
  cfg.local.lr = 0.05;
  cfg.seed = 21;
  return cfg;
}

std::vector<float> global_weights(FederatedAlgorithm& algo) {
  return nn::flatten_values(algo.global_model().all_params());
}

std::unique_ptr<RobustAggregator> make_kind(AggregatorKind kind,
                                            double trim = 0.2,
                                            std::size_t krum_f = 0,
                                            std::size_t multi_krum = 1,
                                            double clip = 0.0) {
  ResilienceConfig rc;
  rc.aggregator = kind;
  rc.trim_fraction = trim;
  rc.krum_f = krum_f;
  rc.multi_krum = multi_krum;
  rc.clip_norm = clip;
  return make_robust_aggregator(rc);
}

RobustUpdate dense(std::size_t client, double weight,
                   const std::vector<float>& values) {
  RobustUpdate u;
  u.client = client;
  u.weight = weight;
  u.values = &values;
  return u;
}

RobustUpdate masked(std::size_t client, double weight,
                    const std::vector<float>& values,
                    const std::vector<std::uint8_t>& mask) {
  RobustUpdate u = dense(client, weight, values);
  u.mask = &mask;
  return u;
}

// ---------------------------------------------------- names and factory ---

TEST(RobustAggregator, KindNamesRoundTrip) {
  for (const auto kind :
       {AggregatorKind::kWeightedMean, AggregatorKind::kCoordinateMedian,
        AggregatorKind::kTrimmedMean, AggregatorKind::kKrum,
        AggregatorKind::kNormClippedMean}) {
    EXPECT_EQ(parse_aggregator_kind(aggregator_kind_name(kind)), kind);
    EXPECT_EQ(make_kind(kind)->kind(), kind);
  }
  EXPECT_THROW(parse_aggregator_kind("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_aggregator_kind(""), std::invalid_argument);
}

TEST(RobustAggregator, AttackKindNamesRoundTrip) {
  for (const auto kind :
       {AttackKind::kSignFlip, AttackKind::kScale, AttackKind::kGaussianNoise,
        AttackKind::kFixedDirection}) {
    EXPECT_EQ(parse_attack_kind(attack_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_attack_kind("bogus"), std::invalid_argument);
}

// ------------------------------------------------- hand-computed exactness --

TEST(RobustAggregator, WeightedMeanMatchesClosedForm) {
  const std::vector<float> a = {1.0f, 2.0f};
  const std::vector<float> b = {3.0f, 6.0f};
  const auto out = make_kind(AggregatorKind::kWeightedMean)
                       ->aggregate({dense(0, 1.0, a), dense(1, 3.0, b)}, 2);
  ASSERT_EQ(out.value.size(), 2u);
  EXPECT_FLOAT_EQ(out.value[0], 2.5f);  // (1*1 + 3*3) / 4
  EXPECT_FLOAT_EQ(out.value[1], 5.0f);  // (1*2 + 3*6) / 4
  EXPECT_EQ(out.defined, (std::vector<std::uint8_t>{1, 1}));
  EXPECT_TRUE(out.excluded.empty());
  EXPECT_EQ(out.clipped, 0u);
}

TEST(RobustAggregator, CoordinateMedianOddAndEvenCounts) {
  const std::vector<float> a = {1.0f};
  const std::vector<float> b = {5.0f};
  const std::vector<float> c = {100.0f};
  const auto median = make_kind(AggregatorKind::kCoordinateMedian);
  // Odd count: the middle order statistic; weights are ignored.
  auto out = median->aggregate(
      {dense(0, 1.0, a), dense(1, 9.0, b), dense(2, 1.0, c)}, 1);
  EXPECT_FLOAT_EQ(out.value[0], 5.0f);
  // Even count: average of the two middle order statistics.
  const std::vector<float> d = {2.0f};
  out = median->aggregate(
      {dense(0, 1.0, a), dense(1, 1.0, d), dense(2, 1.0, b),
       dense(3, 1.0, c)},
      1);
  EXPECT_FLOAT_EQ(out.value[0], 3.5f);  // (2 + 5) / 2
}

TEST(RobustAggregator, TrimmedMeanDropsTailsAndKeepsWeights) {
  const std::vector<float> v1 = {1.0f};
  const std::vector<float> v2 = {2.0f};
  const std::vector<float> v3 = {3.0f};
  const std::vector<float> v4 = {100.0f};
  // trim 0.25 over 4 samples cuts 1 order statistic per side.
  auto out = make_kind(AggregatorKind::kTrimmedMean, 0.25)
                 ->aggregate({dense(0, 1.0, v1), dense(1, 1.0, v2),
                              dense(2, 3.0, v3), dense(3, 1.0, v4)},
                             1);
  EXPECT_FLOAT_EQ(out.value[0], 2.75f);  // (1*2 + 3*3) / 4
  // Degenerate trim that would drop everything keeps the middle element.
  out = make_kind(AggregatorKind::kTrimmedMean, 0.5)
            ->aggregate({dense(0, 1.0, v1), dense(1, 1.0, v3)}, 1);
  EXPECT_FLOAT_EQ(out.value[0], 2.0f);
}

TEST(RobustAggregator, NormClippedMeanClipsAboutOriginAndReference) {
  const std::vector<float> big = {3.0f, 4.0f};     // norm 5, clipped to 0.5
  const std::vector<float> small = {0.0f, 0.25f};  // norm 0.25, untouched
  auto out = make_kind(AggregatorKind::kNormClippedMean, 0.2, 0, 1, 0.5)
                 ->aggregate({dense(0, 1.0, big), dense(1, 1.0, small)}, 2);
  EXPECT_EQ(out.clipped, 1u);
  EXPECT_NEAR(out.value[0], 0.15f, 1e-6);   // mean({0.3, 0.4}, {0, 0.25})
  EXPECT_NEAR(out.value[1], 0.325f, 1e-6);

  // With a reference, the deviation (not the absolute vector) is clipped.
  const std::vector<float> ref = {1.0f, 0.0f};
  const std::vector<float> update = {1.0f, 2.0f};  // deviation {0, 2}, norm 2
  out = make_kind(AggregatorKind::kNormClippedMean, 0.2, 0, 1, 1.0)
            ->aggregate({dense(0, 1.0, update)}, 2, &ref);
  EXPECT_EQ(out.clipped, 1u);
  EXPECT_NEAR(out.value[0], 1.0f, 1e-6);
  EXPECT_NEAR(out.value[1], 1.0f, 1e-6);  // ref + 1.0 * unit deviation
}

TEST(RobustAggregator, NormClipAutoThresholdUsesMedianNorm) {
  const std::vector<float> v1 = {1.0f};
  const std::vector<float> v2 = {2.0f};
  const std::vector<float> v3 = {100.0f};
  // clip_norm = 0 auto-tunes to the median norm (2), so only the boosted
  // update is rescaled and the honest majority pins the threshold.
  const auto out =
      make_kind(AggregatorKind::kNormClippedMean, 0.2, 0, 1, 0.0)
          ->aggregate(
              {dense(0, 1.0, v1), dense(1, 1.0, v2), dense(2, 1.0, v3)}, 1);
  EXPECT_EQ(out.clipped, 1u);
  EXPECT_NEAR(out.value[0], 5.0f / 3.0f, 1e-6);  // mean(1, 2, 100 -> 2)
}

// ------------------------------------------------------ breakdown points --

TEST(RobustAggregator, MeanBreaksButMedianTrimmedKrumHold) {
  const std::vector<float> h1 = {0.9f, 1.1f};
  const std::vector<float> h2 = {1.0f, 1.0f};
  const std::vector<float> h3 = {1.1f, 0.9f};
  const std::vector<float> h4 = {1.0f, 1.05f};
  const std::vector<float> adv = {1.0e6f, -1.0e6f};
  const std::vector<RobustUpdate> ups = {dense(0, 1.0, h1), dense(1, 1.0, h2),
                                         dense(2, 1.0, h3), dense(3, 1.0, h4),
                                         dense(4, 1.0, adv)};
  // One unbounded attacker out of five drags the mean arbitrarily far...
  const auto mean = make_kind(AggregatorKind::kWeightedMean)->aggregate(ups, 2);
  EXPECT_GT(std::abs(mean.value[0]), 1.0e5f);
  // ...while the robust estimators stay inside the honest range.
  for (const auto kind : {AggregatorKind::kCoordinateMedian,
                          AggregatorKind::kTrimmedMean}) {
    const auto out = make_kind(kind, 0.2)->aggregate(ups, 2);
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_GE(out.value[j], 0.9f) << aggregator_kind_name(kind);
      EXPECT_LE(out.value[j], 1.1f) << aggregator_kind_name(kind);
    }
  }
  const auto krum = make_kind(AggregatorKind::kKrum, 0.2, 1, 1)
                        ->aggregate(ups, 2);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_GE(krum.value[j], 0.9f);
    EXPECT_LE(krum.value[j], 1.1f);
  }
  // Krum names the non-selected clients; the attacker must be among them.
  EXPECT_EQ(krum.excluded.size(), 4u);
  EXPECT_NE(std::find(krum.excluded.begin(), krum.excluded.end(), 4u),
            krum.excluded.end());
}

TEST(RobustAggregator, MultiKrumAveragesTheSelectedUpdates) {
  const std::vector<float> h1 = {1.0f};
  const std::vector<float> h2 = {2.0f};
  const std::vector<float> h3 = {1.5f};
  const std::vector<float> adv = {1000.0f};
  const auto out =
      make_kind(AggregatorKind::kKrum, 0.2, 1, 3)
          ->aggregate({dense(0, 1.0, h1), dense(1, 1.0, h2),
                       dense(2, 1.0, h3), dense(3, 1.0, adv)},
                      1);
  EXPECT_EQ(out.excluded, (std::vector<std::size_t>{3}));
  EXPECT_FLOAT_EQ(out.value[0], 1.5f);  // mean of the three honest updates
}

// ------------------------------------------------------- masked payloads --

TEST(RobustAggregator, MaskedMedianIsPerCoordinateOverOwners) {
  const std::vector<std::uint8_t> m1 = {1, 1, 0, 0};
  const std::vector<std::uint8_t> m2 = {1, 0, 1, 0};
  const std::vector<std::uint8_t> m3 = {0, 1, 1, 0};
  const std::vector<float> v1 = {1.0f, 10.0f};
  const std::vector<float> v2 = {3.0f, 7.0f};
  const std::vector<float> v3 = {20.0f, 9.0f};
  const auto out = make_kind(AggregatorKind::kCoordinateMedian)
                       ->aggregate({masked(0, 1.0, v1, m1),
                                    masked(1, 1.0, v2, m2),
                                    masked(2, 1.0, v3, m3)},
                                   4);
  EXPECT_FLOAT_EQ(out.value[0], 2.0f);   // owners {1, 3}
  EXPECT_FLOAT_EQ(out.value[1], 15.0f);  // owners {10, 20}
  EXPECT_FLOAT_EQ(out.value[2], 8.0f);   // owners {7, 9}
  EXPECT_EQ(out.defined, (std::vector<std::uint8_t>{1, 1, 1, 0}));
  EXPECT_FLOAT_EQ(out.value[3], 0.0f);   // nobody transmitted coordinate 3
}

TEST(RobustAggregator, MaskedMeanRenormalizesWeightsPerCoordinate) {
  const std::vector<std::uint8_t> m1 = {1, 1, 0};
  const std::vector<std::uint8_t> m2 = {1, 0, 0};
  const std::vector<float> v1 = {2.0f, 4.0f};
  const std::vector<float> v2 = {6.0f};
  const auto out =
      make_kind(AggregatorKind::kWeightedMean)
          ->aggregate({masked(0, 1.0, v1, m1), masked(1, 3.0, v2, m2)}, 3);
  EXPECT_FLOAT_EQ(out.value[0], 5.0f);  // (1*2 + 3*6) / 4
  EXPECT_FLOAT_EQ(out.value[1], 4.0f);  // only client 0 owns it
  EXPECT_EQ(out.defined, (std::vector<std::uint8_t>{1, 1, 0}));
}

TEST(RobustAggregator, SparseAttackerCannotHideFromKrum) {
  // The attacker uploads a single coordinate; distances are scaled back to
  // the full dimension, so under-reporting does not shrink its Krum score.
  const std::vector<float> h1 = {1.0f, 1.0f, 1.0f, 1.0f};
  const std::vector<float> h2 = {1.1f, 0.9f, 1.0f, 1.0f};
  const std::vector<float> h3 = {0.9f, 1.1f, 1.0f, 1.0f};
  const std::vector<std::uint8_t> madv = {1, 0, 0, 0};
  const std::vector<float> vadv = {50.0f};
  const auto out = make_kind(AggregatorKind::kKrum, 0.2, 1, 1)
                       ->aggregate({dense(0, 1.0, h1), dense(1, 1.0, h2),
                                    dense(2, 1.0, h3),
                                    masked(3, 1.0, vadv, madv)},
                                   4);
  EXPECT_NE(std::find(out.excluded.begin(), out.excluded.end(), 3u),
            out.excluded.end());
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_GE(out.value[j], 0.9f);
    EXPECT_LE(out.value[j], 1.1f);
  }
}

// ------------------------------------------------- Byzantine fault model --

TEST(FaultModelByzantine, ExplicitCohortOverridesFraction) {
  FaultConfig cfg;
  cfg.byzantine_fraction = 1.0;  // would mark everyone...
  cfg.byzantine_clients = {0, 1};  // ...but the explicit mask wins
  const FaultModel fm(cfg);
  EXPECT_FALSE(fm.is_byzantine(0));
  EXPECT_TRUE(fm.is_byzantine(1));
  EXPECT_FALSE(fm.is_byzantine(2));  // mask repeats modulo its size
  EXPECT_TRUE(fm.is_byzantine(3));
}

TEST(FaultModelByzantine, FractionIsStableAndSeedKeyed) {
  FaultConfig cfg;
  cfg.byzantine_fraction = 0.5;
  cfg.seed = 1;
  const FaultModel a(cfg);
  cfg.seed = 2;
  const FaultModel b(cfg);
  std::size_t count = 0;
  std::vector<std::uint8_t> ma, mb;
  for (std::size_t c = 0; c < 200; ++c) {
    ma.push_back(a.is_byzantine(c) ? 1 : 0);
    mb.push_back(b.is_byzantine(c) ? 1 : 0);
    if (ma.back()) ++count;
    // Membership is static: re-querying never changes the answer.
    EXPECT_EQ(a.is_byzantine(c), ma.back() != 0);
  }
  EXPECT_NEAR(double(count) / 200.0, 0.5, 0.12);
  EXPECT_NE(ma, mb);  // different seed, different cohort
}

TEST(FaultModelByzantine, SignFlipAndScaleMatchClosedForm) {
  FaultConfig cfg;
  cfg.byzantine_clients = {1};  // everyone attacks
  cfg.attack_kind = AttackKind::kSignFlip;
  const std::vector<float> ref = {0.5f, 0.5f};
  std::vector<float> p = {1.0f, 2.0f};
  EXPECT_TRUE(FaultModel(cfg).attack(1, 0, p, &ref));
  EXPECT_FLOAT_EQ(p[0], 0.0f);   // 2*0.5 - 1
  EXPECT_FLOAT_EQ(p[1], -1.0f);  // 2*0.5 - 2

  // Null reference treats the payload as a delta about the origin.
  p = {1.0f, -2.0f};
  EXPECT_TRUE(FaultModel(cfg).attack(1, 0, p, nullptr));
  EXPECT_FLOAT_EQ(p[0], -1.0f);
  EXPECT_FLOAT_EQ(p[1], 2.0f);

  cfg.attack_kind = AttackKind::kScale;
  cfg.attack_scale = 3.0;
  p = {1.0f, 2.0f};
  EXPECT_TRUE(FaultModel(cfg).attack(1, 0, p, &ref));
  EXPECT_FLOAT_EQ(p[0], 2.0f);  // 0.5 + 3*0.5
  EXPECT_FLOAT_EQ(p[1], 5.0f);  // 0.5 + 3*1.5

  // Honest clients are never touched.
  cfg.byzantine_clients = {0};
  p = {1.0f, 2.0f};
  EXPECT_FALSE(FaultModel(cfg).attack(1, 0, p, &ref));
  EXPECT_FLOAT_EQ(p[0], 1.0f);
  EXPECT_FLOAT_EQ(p[1], 2.0f);
}

TEST(FaultModelByzantine, CollusionPushesIdenticalPayloads) {
  FaultConfig cfg;
  cfg.byzantine_clients = {1};
  cfg.attack_kind = AttackKind::kFixedDirection;
  cfg.attack_scale = 2.0;
  const FaultModel fm(cfg);
  const std::vector<float> ref = {0.0f, 0.0f, 0.0f};
  std::vector<float> p1 = {5.0f, -3.0f, 1.0f};
  std::vector<float> p2 = {-9.0f, 4.0f, 0.0f};
  EXPECT_TRUE(fm.attack(3, 0, p1, &ref));
  EXPECT_TRUE(fm.attack(3, 1, p2, &ref));
  // Colluders erase their own updates and all push the same direction.
  EXPECT_EQ(std::memcmp(p1.data(), p2.data(), p1.size() * sizeof(float)), 0);
  for (const float x : p1) EXPECT_EQ(std::abs(x), 2.0f);
}

TEST(FaultModelByzantine, NoiseAttackIsDeterministicPerRoundAndClient) {
  FaultConfig cfg;
  cfg.byzantine_clients = {1};
  cfg.attack_kind = AttackKind::kGaussianNoise;
  cfg.attack_noise_std = 0.5;
  const FaultModel a(cfg), b(cfg);
  std::vector<float> p1(16, 1.0f), p2(16, 1.0f), p3(16, 1.0f);
  EXPECT_TRUE(a.attack(2, 3, p1));
  EXPECT_TRUE(b.attack(2, 3, p2));
  EXPECT_EQ(std::memcmp(p1.data(), p2.data(), p1.size() * sizeof(float)), 0);
  EXPECT_TRUE(a.attack(3, 3, p3));  // a different round draws fresh noise
  EXPECT_NE(std::memcmp(p1.data(), p3.data(), p1.size() * sizeof(float)), 0);
}

// ------------------------------------------------------- end-to-end runs --

// Zero attack rates plus an explicit mean aggregator must stay bit-identical
// to the undefended run (the robust layer is strictly opt-in).
class RobustCleanIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(RobustCleanIdentity, MeanAggregatorIsBitIdenticalToUndefended) {
  const auto source = small_source();
  common::Rng rng1(31), rng2(31);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto a = make_baseline(GetParam(), env1, small_config());
  auto b = make_baseline(GetParam(), env2, small_config());

  RunOptions clean;
  clean.rounds = 3;
  clean.sample_ratio = 0.5;
  RunOptions defended = clean;
  FaultConfig fc;  // all rates zero, no Byzantine cohort
  defended.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kWeightedMean;
  defended.resilience = rc;

  const auto ra = run_federated(*a, clean);
  const auto rb = run_federated(*b, defended);
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
  EXPECT_EQ(ra.comm.total(), rb.comm.total());
  EXPECT_EQ(rb.total("attacked"), 0u);
  EXPECT_EQ(rb.total("suspected"), 0u);
  const auto wa = global_weights(*a);
  const auto wb = global_weights(*b);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, RobustCleanIdentity,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "fedavgm", "fedadam",
                                           "fedavg+topk", "fedavg+int8"));

// The server-optimizer and codec variants run on the shared client-round
// skeleton, so the fault model, the Byzantine attack and the robust
// aggregator all reach them.
class ReroutedDefenceStack : public ::testing::TestWithParam<const char*> {};

TEST_P(ReroutedDefenceStack, AttacksDropoutsAndMedianAllApply) {
  const auto source = small_source();
  common::Rng rng(97);
  FlEnvironment env(source, 6, 5.0, 0.25, rng);
  auto algo = make_baseline(GetParam(), env, small_config());

  RunOptions opts;
  opts.rounds = 3;
  FaultConfig fc;
  fc.byzantine_fraction = 0.5;
  fc.dropout_rate = 0.5;
  fc.seed = 404;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kCoordinateMedian;
  opts.resilience = rc;

  const auto result = run_federated(*algo, opts);
  EXPECT_GT(result.total("attacked"), 0u);
  EXPECT_GT(result.total("accepted"), 0u);
  EXPECT_GT(result.total("dropped"), 0u);
  EXPECT_TRUE(is_finite(global_weights(*algo)));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ReroutedDefenceStack,
                         ::testing::Values("fedadam", "fedavg+topk"));

TEST(RobustRun, AttackersAreAttributedInRoundStats) {
  const auto source = small_source();
  common::Rng rng(83);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 2;
  FaultConfig fc;
  fc.byzantine_clients = {1, 0, 0, 0};  // client 0 only
  fc.attack_kind = AttackKind::kSignFlip;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kCoordinateMedian;
  opts.resilience = rc;

  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.total("attacked"), 2u);  // one attacker, two rounds
  for (const auto& rec : result.history) {
    EXPECT_EQ(rec.stats.attackers, (std::vector<std::size_t>{0}));
  }
  EXPECT_TRUE(is_finite(global_weights(algo)));
}

TEST(RobustRun, KrumSuspectsTheScaledAttacker) {
  const auto source = small_source();
  common::Rng rng(89);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 2;
  FaultConfig fc;
  fc.byzantine_clients = {1, 0, 0, 0};
  fc.attack_kind = AttackKind::kScale;
  fc.attack_scale = 100.0;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kKrum;
  rc.krum_f = 1;
  rc.multi_krum = 3;
  opts.resilience = rc;

  const auto result = run_federated(algo, opts);
  EXPECT_GT(result.total("suspected"), 0u);
  for (const auto& rec : result.history) {
    EXPECT_EQ(rec.stats.suspects, (std::vector<std::size_t>{0}));
  }
  EXPECT_TRUE(is_finite(global_weights(algo)));
}

TEST(RobustRun, MedianBeatsMeanUnderScaledAttack) {
  const auto source = small_source();
  auto run_with = [&source](AggregatorKind kind) {
    common::Rng rng(97);
    FlEnvironment env(source, 4, 5.0, 0.25, rng);
    FedAvg algo(env, small_config());
    RunOptions opts;
    opts.rounds = 4;
    FaultConfig fc;
    fc.byzantine_clients = {1, 0, 0, 0};
    fc.attack_kind = AttackKind::kScale;
    fc.attack_scale = 50.0;
    opts.faults = fc;
    ResilienceConfig rc;
    rc.aggregator = kind;
    opts.resilience = rc;
    return run_federated(algo, opts);
  };
  const auto mean = run_with(AggregatorKind::kWeightedMean);
  const auto median = run_with(AggregatorKind::kCoordinateMedian);
  // The boosted update passes validation and wrecks the mean; the median
  // keeps learning.
  EXPECT_GT(median.final_accuracy, mean.final_accuracy + 0.05);
}

TEST(RobustRun, NormClippedMeanNeutralizesBoostedUpdates) {
  const auto source = small_source();
  common::Rng rng(101);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 2;
  FaultConfig fc;
  fc.byzantine_clients = {1, 0, 0, 0};
  fc.attack_kind = AttackKind::kScale;
  fc.attack_scale = 100.0;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kNormClippedMean;
  rc.clip_norm = 0.0;  // auto: median update norm
  opts.resilience = rc;

  const auto result = run_federated(algo, opts);
  std::size_t clipped = 0;
  for (const auto& rec : result.history) clipped += rec.stats.clipped;
  EXPECT_GT(clipped, 0u);
  EXPECT_TRUE(is_finite(global_weights(algo)));
}

TEST(RobustRun, SpatlMaskedUplinksSurviveByzantineClients) {
  const auto source = small_source();
  common::Rng rng(103);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  core::SpatlOptions sopts;
  sopts.agent_finetune_rounds = 0;  // keep the run fast; selection still on
  core::SpatlAlgorithm algo(env, small_config(), sopts);

  RunOptions opts;
  opts.rounds = 3;
  FaultConfig fc;
  fc.byzantine_clients = {1, 0, 0, 0};
  fc.attack_kind = AttackKind::kSignFlip;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kCoordinateMedian;
  opts.resilience = rc;

  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.total("attacked"), 3u);
  EXPECT_TRUE(is_finite(
      nn::flatten_values(algo.global_model().encoder_params())));
  EXPECT_GE(result.final_accuracy, 0.0);
}

}  // namespace
}  // namespace spatl::fl
