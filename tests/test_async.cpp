// Semi-asynchronous straggler commit (DESIGN.md §11): virtual-time lag
// arithmetic, deterministic buffer ordering and serialization, the
// off-switch bit-identity guarantee, the deadline-vs-stale_weight policy
// matrix, quorum-skip attribution, checkpoint/resume with a non-empty
// buffer, adaptive aggregator escalation, and per-phase latency histograms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/async.hpp"
#include "fl/checkpoint.hpp"
#include "fl/fault.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"
#include "fl_fixture.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spatl::fl {
namespace {

/// Straggler-heavy fault schedule with a deadline clients overshoot by
/// roughly one period (slowdown 3 vs deadline 2 => lag 1 almost always).
FaultConfig straggler_faults() {
  FaultConfig fc;
  fc.straggler_rate = 0.9;
  fc.slowdown_factor = 3.0;
  fc.round_deadline = 2.0;
  fc.seed = 515;
  return fc;
}

// ------------------------------------------------- virtual-time arithmetic --

TEST(AsyncMath, StragglerLagCountsExtraDeadlinePeriods) {
  EXPECT_EQ(straggler_lag(1.0, 2.0), 0u);   // met the deadline
  EXPECT_EQ(straggler_lag(2.0, 2.0), 0u);   // exactly on time
  EXPECT_EQ(straggler_lag(2.1, 2.0), 1u);   // one extra period
  EXPECT_EQ(straggler_lag(4.0, 2.0), 1u);   // ceil(2) - 1
  EXPECT_EQ(straggler_lag(4.1, 2.0), 2u);
  EXPECT_EQ(straggler_lag(10.0, 2.0), 4u);
  EXPECT_EQ(straggler_lag(5.0, 0.0), 0u);   // deadlines disabled
  // Pathological draws saturate instead of overflowing the cast.
  EXPECT_EQ(straggler_lag(1.0e300, 1.0), 999999u);
}

TEST(AsyncMath, StalenessScaleIsGeometricInLag) {
  EXPECT_DOUBLE_EQ(staleness_scale(0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(staleness_scale(0.5, 1), 0.5);
  EXPECT_DOUBLE_EQ(staleness_scale(0.5, 3), 0.125);
  EXPECT_DOUBLE_EQ(staleness_scale(1.0, 7), 1.0);
  EXPECT_DOUBLE_EQ(staleness_scale(0.0, 2), 0.0);
}

// ------------------------------------------------------- straggler buffer --

BufferedUpdate make_update(std::size_t client, std::size_t source,
                           std::size_t commit) {
  BufferedUpdate u;
  u.client = client;
  u.source_round = source;
  u.commit_round = commit;
  u.values = {float(client), float(commit)};
  return u;
}

TEST(StragglerBufferTest, OrdersByCommitThenSourceThenClient) {
  StragglerBuffer buf;
  EXPECT_EQ(buf.park(make_update(2, 3, 5)), 0u);
  EXPECT_EQ(buf.park(make_update(0, 4, 5)), 0u);
  EXPECT_EQ(buf.park(make_update(1, 1, 4)), 0u);
  EXPECT_EQ(buf.park(make_update(3, 3, 5)), 0u);
  ASSERT_EQ(buf.size(), 4u);
  const auto& e = buf.entries();
  EXPECT_EQ(e[0].client, 1u);  // commit 4 first
  EXPECT_EQ(e[1].client, 2u);  // commit 5, source 3, client 2
  EXPECT_EQ(e[2].client, 3u);  // commit 5, source 3, client 3
  EXPECT_EQ(e[3].client, 0u);  // commit 5, source 4

  EXPECT_EQ(buf.due_count(3), 0u);
  EXPECT_EQ(buf.due_count(4), 1u);
  EXPECT_EQ(buf.due_count(5), 4u);

  // Entries whose commit round has already passed drain too (skipped-round
  // carry-over): nothing is ever stranded.
  const auto due = buf.take_due(4);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].client, 1u);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.take_due(100).size(), 3u);
  EXPECT_TRUE(buf.empty());
}

TEST(StragglerBufferTest, ParkDedupsPerClientLatestWins) {
  // A client that straggles again before its parked update drains
  // supersedes the stale one: at most one buffered update per client, and
  // park() reports how many older entries it evicted.
  StragglerBuffer buf;
  EXPECT_EQ(buf.park(make_update(0, 2, 4)), 0u);
  EXPECT_EQ(buf.park(make_update(1, 2, 3)), 0u);
  EXPECT_EQ(buf.park(make_update(0, 3, 6)), 1u);  // evicts the source-2 park
  ASSERT_EQ(buf.size(), 2u);
  // The surviving client-0 entry is the newest one.
  for (const auto& u : buf.entries()) {
    if (u.client == 0) {
      EXPECT_EQ(u.source_round, 3u);
      EXPECT_EQ(u.commit_round, 6u);
      EXPECT_EQ(u.values, (std::vector<float>{0.0f, 6.0f}));
    }
  }
  // Other clients' entries are untouched.
  EXPECT_EQ(buf.due_count(3), 1u);
}

TEST(StragglerBufferTest, SaveLoadRoundTripsAllFields) {
  StragglerBuffer buf;
  BufferedUpdate u = make_update(3, 2, 4);
  u.tau = 7.5;
  u.bn = {0.25f, -1.0f};
  u.aux = {0.5f};
  u.mask = {1, 0, 1, 1};
  buf.park(std::move(u));
  buf.park(make_update(1, 2, 3));

  RunCheckpoint ckpt;
  StateArchive out = StateArchive::save_to(ckpt);
  buf.state(out, "t/");
  StragglerBuffer back;
  StateArchive in = StateArchive::load_from(ckpt);
  back.state(in, "t/");
  ASSERT_EQ(back.size(), 2u);
  const auto& a = back.entries()[1];  // commit 4 entry
  EXPECT_EQ(a.client, 3u);
  EXPECT_EQ(a.source_round, 2u);
  EXPECT_EQ(a.commit_round, 4u);
  EXPECT_DOUBLE_EQ(a.tau, 7.5);
  EXPECT_EQ(a.values, (std::vector<float>{3.0f, 4.0f}));
  EXPECT_EQ(a.bn, (std::vector<float>{0.25f, -1.0f}));
  EXPECT_EQ(a.aux, (std::vector<float>{0.5f}));
  EXPECT_EQ(a.mask, (std::vector<std::uint8_t>{1, 0, 1, 1}));
}

TEST(StragglerBufferTest, EmptyBufferWritesNothing) {
  // Synchronous checkpoints must stay byte-identical: an empty buffer adds
  // no entries, and loading from a pre-async checkpoint is a no-op.
  StragglerBuffer buf;
  RunCheckpoint ckpt;
  StateArchive out = StateArchive::save_to(ckpt);
  buf.state(out, "t/");
  EXPECT_TRUE(ckpt.empty());
  StragglerBuffer back;
  back.park(make_update(0, 1, 2));
  StateArchive in = StateArchive::load_from(ckpt);
  back.state(in, "t/");
  EXPECT_TRUE(back.empty());
}

// ------------------------------------------------- off-switch bit-identity --

RunOptions straggler_options() {
  RunOptions opts;
  opts.rounds = 3;
  opts.sample_ratio = 0.75;
  opts.eval_every = 1;
  opts.sampling_seed = 9;
  opts.faults = straggler_faults();
  return opts;
}

// A run with async set but no fault model must be float-for-float identical
// to a run with no AsyncConfig at all: with no deadline nothing parks, and
// the async settings may not touch a single code path that feeds the model.
class AsyncOffBitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(AsyncOffBitIdentity, DisabledAsyncMatchesAbsentAsync) {
  const auto source = small_source();
  RunOptions opts = straggler_options();
  opts.faults.reset();  // no fault model, so no deadline

  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto plain = make_algorithm(GetParam(), env1);
  const auto a = run_federated(*plain, opts);

  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto off = make_algorithm(GetParam(), env2);
  opts.async = AsyncConfig{};
  const auto b = run_federated(*off, opts);

  const auto wa = global_weights(*plain);
  const auto wb = global_weights(*off);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.comm.total(), b.comm.total());
  EXPECT_EQ(a.total("stragglers"), b.total("stragglers"));
  EXPECT_EQ(b.total("parked"), 0u);
  EXPECT_EQ(b.total("late_commits"), 0u);
  EXPECT_EQ(b.buffered_remaining, 0u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AsyncOffBitIdentity,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "spatl", "fedavgm",
                                           "fedadam", "fedavg+topk",
                                           "fedavg+int8"));

// ------------------------------------------- semi-async commit behaviour --

TEST(AsyncCommit, StragglersAreParkedAndCommitLate) {
  const auto source = small_source();
  common::Rng rng(61);
  FlEnvironment env(source, 4, 0.5, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 5;
  opts.eval_every = 1;
  opts.faults = straggler_faults();
  AsyncConfig ac;
  ac.stale_weight = 0.5;
  ac.max_lag = 8;
  opts.async = ac;

  const auto result = run_federated(algo, opts);
  EXPECT_GT(result.total("parked"), 0u);
  EXPECT_GT(result.total("late_commits"), 0u);
  // Every park either commits late, stays buffered, or was superseded by a
  // newer park from the same client (latest-wins dedup).
  EXPECT_EQ(result.total("parked"),
            result.total("late_commits") + result.buffered_remaining +
                result.total("dedup_dropped"));
  // Deadline rejections are gone on the async path (lag 1 << max_lag 8).
  std::size_t rejected_deadline = 0;
  for (const auto& rec : result.history) {
    rejected_deadline += rec.stats.rejected_deadline;
  }
  EXPECT_EQ(rejected_deadline, 0u);
  EXPECT_TRUE(is_finite(global_weights(algo)));
}

TEST(AsyncCommit, LagBeyondMaxLagIsRejectedAsDeadline) {
  const auto source = small_source();
  common::Rng rng(61);
  FlEnvironment env(source, 4, 0.5, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 3;
  opts.eval_every = 1;
  FaultConfig fc = straggler_faults();
  fc.straggler_rate = 1.0;
  fc.slowdown_factor = 10.0;  // lag ~ ceil(10/2) - 1 = 4 > max_lag
  opts.faults = fc;
  AsyncConfig ac;
  ac.max_lag = 2;
  opts.async = ac;

  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.total("parked"), 0u);
  std::size_t rejected_deadline = 0;
  for (const auto& rec : result.history) {
    rejected_deadline += rec.stats.rejected_deadline;
  }
  EXPECT_GT(rejected_deadline, 0u);
}

// -------------------------- deadline-vs-stale_weight regression (bugfix 1) --

// The kDeadline contract: a within-grace straggler is down-weighted on the
// synchronous path (stale_weight > 0) or parked on the async path;
// kDeadline fires only when stale_weight == 0 (sync) or lag > max_lag
// (async). Four policy cells, one fault schedule.
TEST(DeadlinePolicy, StaleWeightAndAsyncMatrix) {
  const auto source = small_source();
  FaultConfig fc;
  fc.straggler_rate = 1.0;
  fc.slowdown_factor = 3.0;
  fc.round_deadline = 2.0;
  fc.seed = 77;

  const auto run_cell = [&](double stale_weight,
                            std::optional<AsyncConfig> async) {
    common::Rng rng(71);
    FlEnvironment env(source, 4, 5.0, 0.25, rng);
    FedAvg algo(env, small_config());
    RunOptions opts;
    opts.rounds = 2;
    opts.eval_every = 1;
    opts.faults = fc;
    ResilienceConfig rc;
    rc.stale_weight = stale_weight;
    opts.resilience = rc;
    opts.async = async;
    return run_federated(algo, opts);
  };
  const auto sum_deadline = [](const RunResult& r) {
    std::size_t n = 0;
    for (const auto& rec : r.history) n += rec.stats.rejected_deadline;
    return n;
  };

  // Sync, stale_weight > 0: down-weighted, never rejected (the occasional
  // on-time draw under straggler_rate 1.0 is accepted at full weight).
  const auto grace = run_cell(0.5, std::nullopt);
  EXPECT_GT(grace.total("stragglers"), 0u);
  EXPECT_EQ(sum_deadline(grace), 0u);
  EXPECT_EQ(grace.total("accepted"), grace.total("selected"));
  EXPECT_EQ(grace.total("parked"), 0u);

  // Sync, stale_weight == 0: the only synchronous kDeadline case — every
  // rejection is a deadline rejection, everything else is accepted.
  const auto drop = run_cell(0.0, std::nullopt);
  EXPECT_GT(sum_deadline(drop), 0u);
  EXPECT_EQ(drop.total("accepted") + sum_deadline(drop),
            drop.total("selected"));

  // Async, lag within max_lag: parked, regardless of the sync stale_weight.
  AsyncConfig within;
  within.max_lag = 4;
  const auto parked = run_cell(0.0, within);
  EXPECT_EQ(sum_deadline(parked), 0u);
  EXPECT_GT(parked.total("parked"), 0u);

  // Async, lag beyond max_lag: kDeadline is back (the only async case).
  AsyncConfig beyond;
  beyond.max_lag = 0;
  const auto rejected = run_cell(0.5, beyond);
  EXPECT_GT(sum_deadline(rejected), 0u);
  EXPECT_EQ(rejected.total("parked"), 0u);
}

// ------------------------------------ quorum attribution (bugfix 2) --------

TEST(QuorumSkip, PostValidationThinningIsReCheckedAndAttributed) {
  const auto source = small_source();
  common::Rng rng(83);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());
  const auto before = global_weights(algo);

  RunOptions opts;
  opts.rounds = 2;
  opts.eval_every = 1;
  FaultConfig fc;
  fc.corruption_rate = 1.0;  // every uplink arrives NaN-poisoned
  fc.corruption_kind = CorruptionKind::kNaN;
  fc.seed = 90;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.min_quorum = 2;
  opts.resilience = rc;

  const auto result = run_federated(algo, opts);
  // Admission passes (everyone shows up) but validation rejects every
  // update, so the quorum must be re-checked on the survivor set.
  EXPECT_EQ(result.total("skipped"), 2u);
  for (const auto& rec : result.history) {
    ASSERT_TRUE(rec.stats.skipped);
    EXPECT_EQ(rec.stats.skip_reason, SkipReason::kPostValidationQuorum);
    EXPECT_GT(rec.stats.delivered, 0u);
  }
  const auto after = global_weights(algo);
  EXPECT_EQ(
      std::memcmp(before.data(), after.data(), before.size() * sizeof(float)),
      0);
}

TEST(QuorumSkip, AdmissionShortfallIsAttributedSeparately) {
  const auto source = small_source();
  common::Rng rng(83);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 2;
  opts.eval_every = 1;
  FaultConfig fc;
  fc.dropout_rate = 1.0;  // nobody shows up at all
  fc.seed = 91;
  opts.faults = fc;

  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.total("skipped"), 2u);
  for (const auto& rec : result.history) {
    ASSERT_TRUE(rec.stats.skipped);
    EXPECT_EQ(rec.stats.skip_reason, SkipReason::kAdmissionQuorum);
    EXPECT_EQ(rec.stats.delivered, 0u);
  }
  EXPECT_EQ(skip_reason_name(SkipReason::kNone), std::string("none"));
  EXPECT_EQ(skip_reason_name(SkipReason::kAdmissionQuorum),
            std::string("admission_quorum"));
  EXPECT_EQ(skip_reason_name(SkipReason::kPostValidationQuorum),
            std::string("post_validation_quorum"));
}

// --------------------------------------- checkpoint/resume mid-buffer -----

RunOptions async_resume_options() {
  RunOptions opts;
  opts.rounds = 4;
  opts.sample_ratio = 0.75;
  opts.eval_every = 2;
  opts.sampling_seed = 9;
  opts.faults = straggler_faults();
  AsyncConfig ac;
  ac.stale_weight = 0.5;
  ac.max_lag = 4;
  opts.async = ac;
  return opts;
}

// A run checkpointed at round 2 — with updates still parked in the
// straggler buffer — and resumed into a fresh algorithm must finish
// bit-identical to the uninterrupted twin: the buffer itself serializes.
class AsyncResumeBitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(AsyncResumeBitIdentity, MidBufferResumeMatchesStraightThrough) {
  const auto source = small_source();

  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto straight = make_algorithm(GetParam(), env1);
  const auto full = run_federated(*straight, async_resume_options());
  ASSERT_GT(full.total("parked"), 0u);  // the schedule must actually buffer

  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto first = make_algorithm(GetParam(), env2);
  RunOptions leg1 = async_resume_options();
  leg1.rounds = 2;
  leg1.checkpoint_every = 2;
  const auto half = run_federated(*first, leg1);
  ASSERT_EQ(half.checkpoints_written, 1u);
  // The snapshot must carry a live buffer — otherwise this test is not
  // exercising mid-buffer resume at all.
  ASSERT_NE(half.last_checkpoint.find("algo/async/n"), nullptr);

  common::Rng rng3(37);
  FlEnvironment env3(source, 4, 0.5, 0.25, rng3);
  auto second = make_algorithm(GetParam(), env3);
  RunOptions leg2 = async_resume_options();
  leg2.resume = &half.last_checkpoint;
  const auto resumed = run_federated(*second, leg2);

  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*second);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);

  EXPECT_EQ(full.final_accuracy, resumed.final_accuracy);
  EXPECT_EQ(full.best_accuracy, resumed.best_accuracy);
  EXPECT_EQ(full.comm.total(), resumed.comm.total());
  EXPECT_EQ(full.total("stragglers"), resumed.total("stragglers"));
  EXPECT_EQ(full.total("accepted"), resumed.total("accepted"));
  EXPECT_EQ(full.total("parked"), resumed.total("parked"));
  EXPECT_EQ(full.total("late_commits"), resumed.total("late_commits"));
  EXPECT_EQ(full.buffered_remaining, resumed.buffered_remaining);
  EXPECT_EQ(full.total("skipped"), resumed.total("skipped"));
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AsyncResumeBitIdentity,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "spatl", "fedavgm",
                                           "fedadam", "fedavg+topk",
                                           "fedavg+int8"));

// ------------------------------------------------- adaptive escalation ----

TEST(Escalation, SustainedSuspicionEscalatesTheAggregator) {
  const auto source = small_source();
  const auto run_once = [&](bool escalate) {
    common::Rng rng(97);
    FlEnvironment env(source, 4, 0.5, 0.25, rng);
    FedAvg algo(env, small_config());
    RunOptions opts;
    opts.rounds = 6;
    opts.eval_every = 1;
    FaultConfig fc;
    fc.corruption_rate = 0.5;
    fc.corruption_kind = CorruptionKind::kNaN;
    fc.seed = 105;
    opts.faults = fc;
    if (escalate) {
      opts.escalation.enabled = true;
      opts.escalation.suspect_threshold = 0.25;
      opts.escalation.patience = 2;
      opts.escalation.aggregator = AggregatorKind::kCoordinateMedian;
    }
    return run_federated(algo, opts);
  };

  const auto escalated = run_once(true);
  EXPECT_GT(escalated.total("escalated"), 0u);
  bool flagged = false;
  for (const auto& rec : escalated.history) flagged |= rec.stats.escalated;
  EXPECT_TRUE(flagged);

  // Off by default: the same hostile run never escalates.
  const auto baseline = run_once(false);
  EXPECT_EQ(baseline.total("escalated"), 0u);
}

TEST(Escalation, TrackerTripsOnceAfterPatienceAndIsSticky) {
  EscalationConfig cfg;
  cfg.enabled = true;
  cfg.suspect_threshold = 0.5;
  cfg.patience = 2;
  EscalationTracker tracker(cfg);

  RoundStats quiet;
  quiet.delivered = 4;
  RoundStats noisy;
  noisy.delivered = 4;
  noisy.rejected_non_finite = 3;

  using Action = EscalationTracker::Action;
  EXPECT_EQ(tracker.observe(noisy), Action::kNone);  // streak 1
  EXPECT_EQ(tracker.observe(quiet), Action::kNone);  // streak resets
  EXPECT_EQ(tracker.observe(noisy), Action::kNone);  // streak 1
  EXPECT_EQ(tracker.observe(noisy), Action::kEscalate);  // trips exactly once
  EXPECT_TRUE(tracker.active());
  EXPECT_EQ(tracker.observe(noisy), Action::kNone);  // sticky, never re-trips

  // Skipped rounds teach nothing: the streak neither grows nor resets.
  EscalationTracker fresh(cfg);
  RoundStats skipped = noisy;
  skipped.skipped = true;
  EXPECT_EQ(fresh.observe(noisy), Action::kNone);
  EXPECT_EQ(fresh.observe(skipped), Action::kNone);
  EXPECT_EQ(fresh.observe(noisy), Action::kEscalate);
}

TEST(Escalation, ResetDropsBackAndQuietStreakDeescalates) {
  using Action = EscalationTracker::Action;
  EscalationConfig cfg;
  cfg.enabled = true;
  cfg.suspect_threshold = 0.5;
  cfg.patience = 1;

  RoundStats quiet;
  quiet.delivered = 4;
  RoundStats noisy;
  noisy.delivered = 4;
  noisy.rejected_non_finite = 3;

  // Explicit reset: drops the escalation and clears both streaks.
  EscalationTracker tracker(cfg);
  EXPECT_EQ(tracker.observe(noisy), Action::kEscalate);
  EXPECT_TRUE(tracker.active());
  tracker.reset();
  EXPECT_FALSE(tracker.active());
  EXPECT_EQ(tracker.streak(), 0u);
  EXPECT_EQ(tracker.quiet_streak(), 0u);
  // And the tracker can trip again afterwards.
  EXPECT_EQ(tracker.observe(noisy), Action::kEscalate);

  // Opt-in de-escalation after a sustained quiet streak.
  cfg.reset_after_quiet = 2;
  EscalationTracker relax(cfg);
  EXPECT_EQ(relax.observe(noisy), Action::kEscalate);
  EXPECT_EQ(relax.observe(quiet), Action::kNone);  // quiet 1
  EXPECT_EQ(relax.observe(noisy), Action::kNone);  // noise resets the quiet streak
  EXPECT_EQ(relax.observe(quiet), Action::kNone);  // quiet 1
  EXPECT_EQ(relax.observe(quiet), Action::kDeescalate);  // quiet 2: drops back
  EXPECT_FALSE(relax.active());
  // One-way by default: without reset_after_quiet, quiet rounds never drop
  // the escalation.
  cfg.reset_after_quiet = 0;
  EscalationTracker sticky(cfg);
  EXPECT_EQ(sticky.observe(noisy), Action::kEscalate);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sticky.observe(quiet), Action::kNone);
  }
  EXPECT_TRUE(sticky.active());
}

// ------------------------------------------------ per-phase latency sketches --

TEST(PhaseHistograms, TracedRoundsRecordPerPhaseLatency) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  obs::Tracer::instance().set_enabled(true);

  const std::string path = "async_phase_histograms_test.jsonl";
  {
    obs::JsonlWriter sink(path);
    const auto source = small_source();
    common::Rng rng(29);
    FlEnvironment env(source, 4, 0.5, 0.25, rng);
    FedAvg algo(env, small_config());
    RunOptions opts;
    opts.rounds = 2;
    opts.faults = straggler_faults();
    AsyncConfig ac;
    opts.async = ac;
    opts.telemetry = &sink;
    run_federated(algo, opts);
  }
  obs::Tracer::instance().set_enabled(false);
  std::remove(path.c_str());

  const auto snap = registry.snapshot();
  for (const char* name :
       {"fl.train.round_ms", "fl.uplink.round_ms", "fl.aggregate.round_ms"}) {
    const auto it = snap.sketches.find(name);
    ASSERT_NE(it, snap.sketches.end()) << name;
    EXPECT_GT(it->second.count, 0u) << name;
  }
  // The sketch is the only per-phase latency distribution.
  for (const auto& [name, histogram] : snap.histograms) {
    EXPECT_EQ(name.find(".round_ms"), std::string::npos) << name;
  }
  // The run counters ride the same registry as fl.<name>.
  const auto parked = snap.counters.find("fl.parked");
  ASSERT_NE(parked, snap.counters.end());
  EXPECT_GT(parked->second, 0u);
}

}  // namespace
}  // namespace spatl::fl
