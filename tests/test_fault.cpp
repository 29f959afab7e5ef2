#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/fault.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"

namespace spatl::fl {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

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

// ----------------------------------------------------- flat_utils helpers --

TEST(FlatUtils, IsFiniteDetectsNanAndInf) {
  EXPECT_TRUE(is_finite({}));
  EXPECT_TRUE(is_finite({0.0f, -1.5f, 3.0e37f}));
  EXPECT_FALSE(is_finite({0.0f, kNaN}));
  EXPECT_FALSE(is_finite({kInf}));
  EXPECT_FALSE(is_finite({-kInf, 1.0f}));
}

TEST(FlatUtils, L2NormMatchesClosedForm) {
  EXPECT_DOUBLE_EQ(l2_norm({}), 0.0);
  EXPECT_DOUBLE_EQ(l2_norm({3.0f, 4.0f}), 5.0);
  EXPECT_DOUBLE_EQ(l2_norm({-2.0f}), 2.0);
  EXPECT_TRUE(std::isnan(l2_norm({kNaN})));
  EXPECT_TRUE(std::isinf(l2_norm({kInf, 1.0f})));
}

// ------------------------------------------------------------ FaultModel --

TEST(FaultModel, DisabledWhenAllRatesZero) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.any_faults());
  cfg.dropout_rate = 0.1;
  EXPECT_TRUE(cfg.any_faults());
  cfg.dropout_rate = 0.0;
  cfg.availability = {0.5};
  EXPECT_TRUE(cfg.any_faults());
}

TEST(FaultModel, RejectsOutOfRangeRates) {
  FaultConfig cfg;
  cfg.dropout_rate = 1.5;
  EXPECT_THROW(FaultModel{cfg}, std::invalid_argument);
  cfg.dropout_rate = 0.0;
  cfg.loss_rate = -0.1;
  EXPECT_THROW(FaultModel{cfg}, std::invalid_argument);
}

// The runner builds no fault model from a config without faults, but it
// still refuses one whose rates are out of range.
TEST(FaultModel, RunRejectsOutOfRangeRatesWithoutFaults) {
  const auto source = small_source();
  common::Rng rng(5);
  FlEnvironment env(source, 2, 0.5, 0.25, rng);
  FedAvg algo(env, small_config());
  RunOptions opts;
  opts.rounds = 1;
  opts.faults = FaultConfig{};
  opts.faults->loss_rate = -0.1;
  EXPECT_THROW(run_federated(algo, opts), std::invalid_argument);
}

TEST(FaultModel, DeterministicAndOrderIndependent) {
  FaultConfig cfg;
  cfg.dropout_rate = 0.4;
  cfg.straggler_rate = 0.3;
  cfg.corruption_rate = 0.5;
  cfg.loss_rate = 0.3;
  cfg.seed = 99;
  const FaultModel a(cfg), b(cfg);
  // Query b in reverse order: per-decision streams are keyed, not stateful.
  std::vector<ClientFault> fa, fb;
  for (std::size_t r = 1; r <= 5; ++r) {
    for (std::size_t c = 0; c < 6; ++c) fa.push_back(a.assess(r, c));
  }
  for (std::size_t r = 5; r >= 1; --r) {
    for (std::size_t c = 6; c-- > 0;) fb.push_back(b.assess(r, c));
  }
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const auto& x = fa[i];
    const auto& y = fb[fb.size() - 1 - i];
    EXPECT_EQ(x.fate, y.fate);
    EXPECT_DOUBLE_EQ(x.compute_time, y.compute_time);
  }
  // Corruption draws are likewise repeatable.
  std::vector<float> p1(64, 1.0f), p2(64, 1.0f);
  EXPECT_EQ(a.corrupt(3, 2, p1), b.corrupt(3, 2, p2));
  EXPECT_EQ(std::memcmp(p1.data(), p2.data(), p1.size() * sizeof(float)), 0);
}

TEST(FaultModel, DropoutRateIsRespectedStatistically) {
  FaultConfig cfg;
  cfg.dropout_rate = 0.5;
  const FaultModel fm(cfg);
  std::size_t down = 0, total = 0;
  for (std::size_t r = 1; r <= 200; ++r) {
    for (std::size_t c = 0; c < 10; ++c, ++total) {
      if (fm.assess(r, c).fate == ClientFate::kUnavailable) ++down;
    }
  }
  const double frac = double(down) / double(total);
  EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(FaultModel, AvailabilityTraceOverridesDropout) {
  FaultConfig cfg;
  cfg.dropout_rate = 0.0;
  cfg.availability = {1.0, 0.0};  // even clients always up, odd never
  const FaultModel fm(cfg);
  for (std::size_t r = 1; r <= 20; ++r) {
    EXPECT_NE(fm.assess(r, 0).fate, ClientFate::kUnavailable);
    EXPECT_EQ(fm.assess(r, 1).fate, ClientFate::kUnavailable);
    EXPECT_NE(fm.assess(r, 2).fate, ClientFate::kUnavailable);
  }
}

TEST(FaultModel, StragglersMissTheDeadline) {
  FaultConfig cfg;
  cfg.straggler_rate = 1.0;
  cfg.slowdown_factor = 10.0;
  cfg.compute_time_mean = 1.0;
  cfg.compute_time_jitter = 0.05;
  cfg.round_deadline = 2.0;
  const FaultModel fm(cfg);
  for (std::size_t c = 0; c < 10; ++c) {
    const auto f = fm.assess(1, c);
    EXPECT_EQ(f.fate, ClientFate::kStraggler);
    EXPECT_GT(f.compute_time, cfg.round_deadline);
  }
  // No deadline => no stragglers regardless of compute time.
  cfg.round_deadline = 0.0;
  const FaultModel relaxed(cfg);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_EQ(relaxed.assess(1, c).fate, ClientFate::kOk);
  }
}

TEST(FaultModel, CorruptionKindsPerturbPayload) {
  FaultConfig cfg;
  cfg.corruption_rate = 1.0;
  cfg.corruption_fraction = 0.25;
  cfg.corruption_kind = CorruptionKind::kNaN;
  std::vector<float> payload(32, 1.0f);
  EXPECT_TRUE(FaultModel(cfg).corrupt(1, 0, payload));
  EXPECT_FALSE(is_finite(payload));

  cfg.corruption_kind = CorruptionKind::kInf;
  payload.assign(32, 1.0f);
  EXPECT_TRUE(FaultModel(cfg).corrupt(1, 0, payload));
  EXPECT_FALSE(is_finite(payload));

  cfg.corruption_kind = CorruptionKind::kBitFlip;
  payload.assign(32, 1.0f);
  EXPECT_TRUE(FaultModel(cfg).corrupt(1, 0, payload));
  bool changed = false;
  for (const float x : payload) changed = changed || x != 1.0f;
  EXPECT_TRUE(changed);

  cfg.corruption_rate = 0.0;
  payload.assign(32, 1.0f);
  EXPECT_FALSE(FaultModel(cfg).corrupt(1, 0, payload));
  for (const float x : payload) EXPECT_EQ(x, 1.0f);
}

TEST(FaultModel, TransmissionRetriesAreBounded) {
  RetryPolicy retry;
  retry.max_retries = 3;
  FaultConfig cfg;
  cfg.loss_rate = 0.0;
  EXPECT_TRUE(FaultModel(cfg).transmit(1, 0, retry).delivered);
  EXPECT_EQ(FaultModel(cfg).transmit(1, 0, retry).attempts, 1u);

  cfg.loss_rate = 1.0;
  const Transmission t = FaultModel(cfg).transmit(1, 0, retry);
  EXPECT_FALSE(t.delivered);
  EXPECT_EQ(t.attempts, 4u);  // first try + 3 retries
  EXPECT_EQ(t.backoff_wait, 0.0);  // backoff off by default
}

// ------------------------------------------------------------- runner -----

TEST(Runner, ParticipantCountNeverZeroAndRatioClamped) {
  const auto source = small_source();
  common::Rng rng(41);
  FlEnvironment env(source, 8, 5.0, 0.25, rng);
  const auto cfg = small_config();
  const double p = 4.0 * double(nn::param_count(
                             FedAvg(env, cfg).global_model().all_params()));

  // A tiny positive ratio floors to a single participant.
  {
    FedAvg algo(env, cfg);
    RunOptions opts;
    opts.rounds = 1;
    opts.sample_ratio = 1e-6;
    run_federated(algo, opts);
    EXPECT_DOUBLE_EQ(algo.ledger().total_bytes(), 1 * 2 * p);
  }
  // Negative ratios clamp to 0 => still one participant.
  {
    FedAvg algo(env, cfg);
    RunOptions opts;
    opts.rounds = 1;
    opts.sample_ratio = -0.5;
    run_federated(algo, opts);
    EXPECT_DOUBLE_EQ(algo.ledger().total_bytes(), 1 * 2 * p);
  }
  // Ratios above 1 clamp to the full federation.
  {
    FedAvg algo(env, cfg);
    RunOptions opts;
    opts.rounds = 1;
    opts.sample_ratio = 7.0;
    run_federated(algo, opts);
    EXPECT_DOUBLE_EQ(algo.ledger().total_bytes(), 8 * 2 * p);
  }
}

class CleanPathIdentity : public ::testing::TestWithParam<const char*> {};

// The fault path is strictly opt-in: all-zero fault rates plus default
// resilience must reproduce the undefended run bit for bit.
TEST_P(CleanPathIdentity, ZeroRatesAreBitIdenticalToUndefended) {
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
  defended.faults = FaultConfig{};          // all rates zero
  defended.resilience = ResilienceConfig{}; // defenses on, nothing to catch

  const auto ra = run_federated(*a, clean);
  const auto rb = run_federated(*b, defended);
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    EXPECT_EQ(ra.history[i].avg_accuracy, rb.history[i].avg_accuracy);
    EXPECT_EQ(ra.history[i].avg_loss, rb.history[i].avg_loss);
    EXPECT_EQ(ra.history[i].cumulative_bytes, rb.history[i].cumulative_bytes);
  }
  EXPECT_EQ(ra.comm.total(), rb.comm.total());
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
  const auto wa = global_weights(*a);
  const auto wb = global_weights(*b);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(rb.total("skipped"), 0u);
  EXPECT_EQ(rb.total("rejected"), 0u);
  EXPECT_EQ(rb.comm.retransmitted, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, CleanPathIdentity,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "fedavgm", "fedadam",
                                           "fedavg+topk", "fedavg+int8"));

TEST(Resilience, NanCorruptedUpdatesAreRejectedAndGlobalStaysFinite) {
  const auto source = small_source();
  common::Rng rng(47);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 4;
  FaultConfig fc;
  fc.corruption_rate = 0.5;
  fc.corruption_kind = CorruptionKind::kNaN;
  fc.seed = 7;
  opts.faults = fc;

  const auto result = run_federated(algo, opts);
  EXPECT_TRUE(is_finite(global_weights(algo)));
  EXPECT_GT(result.total("rejected"), 0u);
  EXPECT_GT(result.total("accepted"), 0u);
  // Per-round reject counts surface in the history records.
  std::size_t history_rejects = 0;
  for (const auto& rec : result.history) {
    history_rejects += rec.stats.rejected_non_finite;
  }
  EXPECT_GT(history_rejects, 0u);
}

TEST(Resilience, FullCorruptionSkipsAggregationAndLeavesWeightsUntouched) {
  const auto source = small_source();
  common::Rng rng(53);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());
  const auto before = global_weights(algo);

  RunOptions opts;
  opts.rounds = 2;
  FaultConfig fc;
  fc.corruption_rate = 1.0;
  fc.corruption_kind = CorruptionKind::kNaN;
  opts.faults = fc;

  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.total("skipped"), 2u);
  EXPECT_EQ(result.total("accepted"), 0u);
  const auto after = global_weights(algo);
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(float)),
            0);
}

// Validation runs on every path: with no fault model and no resilience
// configured, an update that local training overflowed is rejected as
// non-finite instead of averaged in, and a round no update survives is
// skipped after validation with the global model untouched.
TEST(Resilience, CleanRunRejectsUpdatesThatOverflowInTraining) {
  const auto source = small_source();
  common::Rng rng(61);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FlConfig cfg = small_config();
  cfg.local.lr = 1.0e30;
  FedAvg algo(env, cfg);
  const auto before = global_weights(algo);

  RunOptions opts;
  opts.rounds = 2;
  const auto result = run_federated(algo, opts);
  ASSERT_EQ(result.history.size(), 2u);
  for (const auto& rec : result.history) {
    EXPECT_EQ(rec.stats.rejected_non_finite, 4u);
    EXPECT_EQ(rec.stats.accepted, 0u);
    EXPECT_TRUE(rec.stats.skipped);
    EXPECT_EQ(rec.stats.skip_reason, SkipReason::kPostValidationQuorum);
  }
  EXPECT_EQ(result.total("rejected"), 8u);
  EXPECT_EQ(result.total("skipped"), 2u);
  const auto after = global_weights(algo);
  EXPECT_TRUE(is_finite(after));
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(Resilience, QuorumSkipsRoundsWithTooFewLiveClients) {
  const auto source = small_source();
  common::Rng rng(59);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());
  const auto before = global_weights(algo);

  RunOptions opts;
  opts.rounds = 3;
  FaultConfig fc;
  fc.dropout_rate = 1.0;  // nobody shows up
  opts.faults = fc;
  ResilienceConfig rc;
  rc.min_quorum = 2;
  opts.resilience = rc;

  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.total("skipped"), 3u);
  EXPECT_EQ(result.total("dropped"), 3u * 4u);
  const auto after = global_weights(algo);
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(Resilience, NormBoundRejectsOversizedUpdates) {
  const auto source = small_source();
  common::Rng rng(61);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());
  const auto before = global_weights(algo);

  RunOptions opts;
  opts.rounds = 1;
  ResilienceConfig rc;
  rc.max_update_norm = 1e-12;  // no real update is this small
  opts.resilience = rc;

  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.total("accepted"), 0u);
  EXPECT_EQ(result.total("skipped"), 1u);
  EXPECT_GT(result.total("rejected"), 0u);
  const auto after = global_weights(algo);
  EXPECT_EQ(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(Resilience, RetryPathMetersRetransmittedBytes) {
  const auto source = small_source();
  common::Rng rng(67);
  FlEnvironment env1(source, 4, 5.0, 0.25, rng);
  common::Rng rng2(67);
  FlEnvironment env2(source, 4, 5.0, 0.25, rng2);
  FedAvg lossy(env1, small_config());
  FedAvg clean(env2, small_config());

  RunOptions opts;
  opts.rounds = 3;
  const auto clean_result = run_federated(clean, opts);

  FaultConfig fc;
  fc.loss_rate = 0.5;
  fc.seed = 13;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.retry.max_retries = 3;
  opts.resilience = rc;
  const auto lossy_result = run_federated(lossy, opts);

  EXPECT_GT(lossy_result.total("retransmissions"), 0u);
  EXPECT_GT(lossy_result.comm.retransmitted, 0.0);
  EXPECT_DOUBLE_EQ(lossy.ledger().retransmitted_bytes(),
                   lossy_result.comm.retransmitted);
  // Retransmissions are part of the uplink totals (eq. 13 stays honest).
  EXPECT_GT(lossy.ledger().uplink_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(
      lossy.ledger().uplink_bytes() - lossy.ledger().retransmitted_bytes() +
          lossy.ledger().downlink_bytes(),
      clean_result.comm.total());
  EXPECT_EQ(clean.ledger().retransmitted_bytes(), 0.0);
}

TEST(Resilience, StragglersAreDownWeightedOrRejected) {
  const auto source = small_source();
  common::Rng rng(71);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);

  FaultConfig fc;
  fc.straggler_rate = 1.0;
  fc.slowdown_factor = 10.0;
  fc.round_deadline = 2.0;

  // stale_weight > 0: stragglers participate with a discount.
  {
    FedAvg algo(env, small_config());
    RunOptions opts;
    opts.rounds = 2;
    opts.faults = fc;
    const auto result = run_federated(algo, opts);
    EXPECT_EQ(result.total("stragglers"), 2u * 4u);
    EXPECT_EQ(result.total("accepted"), 2u * 4u);
    EXPECT_EQ(result.total("skipped"), 0u);
  }
  // stale_weight == 0: past-deadline updates are rejected outright.
  {
    FedAvg algo(env, small_config());
    const auto before = global_weights(algo);
    RunOptions opts;
    opts.rounds = 2;
    opts.faults = fc;
    ResilienceConfig rc;
    rc.stale_weight = 0.0;
    opts.resilience = rc;
    const auto result = run_federated(algo, opts);
    EXPECT_EQ(result.total("accepted"), 0u);
    EXPECT_EQ(result.total("skipped"), 2u);
    const auto after = global_weights(algo);
    EXPECT_EQ(std::memcmp(before.data(), after.data(),
                          before.size() * sizeof(float)),
              0);
  }
}

// Same sampling seed + same FaultModel seed => bit-identical histories.
TEST(Resilience, FaultInjectionIsDeterministicAcrossRuns) {
  const auto source = small_source();
  auto run_once = [&source]() {
    common::Rng rng(31);
    FlEnvironment env(source, 6, 0.5, 0.25, rng);
    FedAvg algo(env, small_config());
    RunOptions opts;
    opts.rounds = 4;
    opts.sample_ratio = 0.8;
    opts.sampling_seed = 7;
    FaultConfig fc;
    fc.dropout_rate = 0.3;
    fc.corruption_rate = 0.3;
    fc.loss_rate = 0.3;
    fc.straggler_rate = 0.3;
    fc.seed = 1234;
    opts.faults = fc;
    return run_federated(algo, opts);
  };
  const auto ra = run_once();
  const auto rb = run_once();
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (std::size_t i = 0; i < ra.history.size(); ++i) {
    const auto& x = ra.history[i];
    const auto& y = rb.history[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.avg_accuracy, y.avg_accuracy);
    EXPECT_EQ(x.avg_loss, y.avg_loss);
    EXPECT_EQ(x.cumulative_bytes, y.cumulative_bytes);
    EXPECT_EQ(x.stats.dropped, y.stats.dropped);
    EXPECT_EQ(x.stats.stragglers, y.stats.stragglers);
    EXPECT_EQ(x.stats.accepted, y.stats.accepted);
    EXPECT_EQ(x.stats.retransmissions, y.stats.retransmissions);
    EXPECT_EQ(x.stats.skipped, y.stats.skipped);
  }
  EXPECT_EQ(ra.comm.total(), rb.comm.total());
  EXPECT_EQ(ra.comm.retransmitted, rb.comm.retransmitted);
  EXPECT_EQ(ra.total("dropped"), rb.total("dropped"));
  EXPECT_EQ(ra.total("rejected"), rb.total("rejected"));
  EXPECT_EQ(ra.total("skipped"), rb.total("skipped"));
}

TEST(Resilience, SpatlSurvivesCorruptionAndDropout) {
  const auto source = small_source();
  common::Rng rng(73);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  core::SpatlOptions sopts;
  sopts.salient_selection = false;  // dense upload keeps the test fast
  core::SpatlAlgorithm algo(env, small_config(), sopts);

  RunOptions opts;
  opts.rounds = 3;
  FaultConfig fc;
  fc.dropout_rate = 0.3;
  fc.corruption_rate = 0.5;
  fc.corruption_kind = CorruptionKind::kNaN;
  fc.seed = 77;
  opts.faults = fc;

  const auto result = run_federated(algo, opts);
  EXPECT_TRUE(is_finite(
      nn::flatten_values(algo.global_model().encoder_params())));
  EXPECT_GT(result.total("rejected") + result.total("dropped"), 0u);
  ASSERT_FALSE(result.history.empty());
  EXPECT_GE(result.final_accuracy, 0.0);
}

}  // namespace
}  // namespace spatl::fl
