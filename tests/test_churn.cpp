// Elastic membership under churn (DESIGN.md §12): deterministic trace
// materialization, the join/leave/return status machine, checkpoint
// round-trips of churn state, the churn off-switch bit-identity guarantee
// (floats AND telemetry bytes) across all five algorithms, admission
// control (shed/defer/budget-skip), the backoff-disciplined RetryPolicy,
// server-failover drills, and the threshold->alert hook.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/checkpoint.hpp"
#include "fl/churn.hpp"
#include "fl/fault.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"
#include "fl_fixture.hpp"
#include "obs/alert.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace spatl::fl {
namespace {

bool is_finite(const std::vector<float>& v) {
  for (const float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Busy membership schedule: partial initial enrollment plus all three
/// event kinds firing at plausible rates.
ChurnConfig busy_churn() {
  ChurnConfig cc;
  cc.initial_fraction = 0.75;
  cc.join_rate = 0.3;
  cc.leave_rate = 0.25;
  cc.return_rate = 0.5;
  cc.seed = 99;
  return cc;
}

// ------------------------------------------------------ trace determinism --

TEST(ChurnTrace, MaterializationIsDeterministicAndSeedKeyed) {
  const ChurnConfig cc = busy_churn();
  const ChurnTrace a = make_churn_trace(cc, 12, 16);
  const ChurnTrace b = make_churn_trace(cc, 12, 16);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  ASSERT_EQ(a.initial_enrolled, b.initial_enrolled);
  bool any_event = false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].joins, b.rounds[r].joins);
    EXPECT_EQ(a.rounds[r].leaves, b.rounds[r].leaves);
    EXPECT_EQ(a.rounds[r].returns, b.rounds[r].returns);
    any_event = any_event || !a.rounds[r].empty();
  }
  EXPECT_TRUE(any_event);

  ChurnConfig other = cc;
  other.seed = 100;
  const ChurnTrace c = make_churn_trace(other, 12, 16);
  bool differs = c.initial_enrolled != a.initial_enrolled;
  for (std::size_t r = 0; r < a.rounds.size() && !differs; ++r) {
    differs = a.rounds[r].joins != c.rounds[r].joins ||
              a.rounds[r].leaves != c.rounds[r].leaves ||
              a.rounds[r].returns != c.rounds[r].returns;
  }
  EXPECT_TRUE(differs);
}

TEST(ChurnTrace, EventSetsAreDisjointPerRound) {
  // A client's status is read once per round, so it can appear in at most
  // one of the three event sets.
  const ChurnTrace t = make_churn_trace(busy_churn(), 20, 12);
  for (const ChurnRound& r : t.rounds) {
    std::vector<std::size_t> all;
    all.insert(all.end(), r.joins.begin(), r.joins.end());
    all.insert(all.end(), r.leaves.begin(), r.leaves.end());
    all.insert(all.end(), r.returns.begin(), r.returns.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  }
}

TEST(ChurnTrace, ZeroRatesAndFullEnrollmentYieldEmptyTrace) {
  ChurnConfig cc;  // defaults: rates 0, initial_fraction 1
  EXPECT_FALSE(cc.any_churn());
  const ChurnTrace t = make_churn_trace(cc, 10, 8);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.initial_enrolled, 8u);

  EXPECT_FALSE(make_churn_trace(busy_churn(), 10, 8).empty());
}

TEST(ChurnTrace, InitialEnrollmentIsAtLeastOneClient) {
  ChurnConfig cc;
  cc.initial_fraction = 0.0;
  cc.join_rate = 0.5;
  const ChurnTrace t = make_churn_trace(cc, 4, 6);
  EXPECT_EQ(t.initial_enrolled, 1u);  // floored at one, never an empty run
}

// ------------------------------------------------------- engine behaviour --

TEST(ChurnEngine, ReplaysTraceAndTracksEnrollment) {
  const ChurnConfig cc = busy_churn();
  const std::size_t n = 12, rounds = 15;
  ChurnEngine engine(cc, rounds, n);
  const ChurnTrace& trace = engine.trace();
  EXPECT_EQ(engine.enrolled().size(), trace.initial_enrolled);

  for (std::size_t r = 1; r <= rounds; ++r) {
    const ChurnDelta d = engine.advance(r);
    EXPECT_EQ(d.joined, trace.rounds[r].joins.size());
    EXPECT_EQ(d.left, trace.rounds[r].leaves.size());
    EXPECT_EQ(d.returned, trace.rounds[r].returns.size());
    // enrolled() is ascending, duplicate-free, and agrees with is_enrolled.
    const auto& pool = engine.enrolled();
    EXPECT_TRUE(std::is_sorted(pool.begin(), pool.end()));
    EXPECT_EQ(std::adjacent_find(pool.begin(), pool.end()), pool.end());
    std::size_t enrolled_count = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (engine.is_enrolled(c)) ++enrolled_count;
    }
    EXPECT_EQ(pool.size(), enrolled_count);
  }
}

TEST(ChurnEngine, ReturningClientsCarryCappedStalenessDebt) {
  // With leave_rate 1 every enrolled client departs each round, so clients
  // cycle departed -> returned -> departed; the pending discount must count
  // the absence since the MOST RECENT departure, capped at staleness_cap.
  ChurnConfig cc;
  cc.leave_rate = 1.0;
  cc.return_rate = 0.4;
  cc.staleness_cap = 3;
  cc.seed = 7;
  const std::size_t n = 8, rounds = 12;
  ChurnEngine engine(cc, rounds, n);
  const ChurnTrace& trace = engine.trace();
  ASSERT_EQ(engine.advance(1).left, n);  // everyone departs at round 1
  EXPECT_TRUE(engine.enrolled().empty());

  std::vector<std::size_t> last_left(n, 1);
  std::size_t returned_checked = 0;
  bool cap_hit = false;
  for (std::size_t r = 2; r <= rounds; ++r) {
    engine.advance(r);
    for (const std::size_t c : trace.rounds[r].returns) {
      ++returned_checked;
      EXPECT_TRUE(engine.is_enrolled(c));
      const std::size_t expected =
          std::min(r - last_left[c], cc.staleness_cap);
      EXPECT_EQ(engine.pending_staleness(c), expected);
      cap_hit = cap_hit || expected == cc.staleness_cap;
      engine.clear_pending(c);
      EXPECT_EQ(engine.pending_staleness(c), 0u);
    }
    for (const std::size_t c : trace.rounds[r].leaves) last_left[c] = r;
  }
  EXPECT_GT(returned_checked, 0u);
  EXPECT_TRUE(cap_hit);  // at least one absence long enough to hit the cap
}

TEST(ChurnEngine, StateRoundTripsThroughCheckpointBitIdentically) {
  const ChurnConfig cc = busy_churn();
  const std::size_t n = 10, rounds = 14;

  ChurnEngine full(cc, rounds, n);
  ChurnEngine resumed(cc, rounds, n);
  for (std::size_t r = 1; r <= 6; ++r) {
    full.advance(r);
    resumed.advance(r);
  }
  RunCheckpoint ckpt;
  StateArchive out = StateArchive::save_to(ckpt);
  resumed.state(out, "run/churn/");
  // Wreck the copy, then restore: state must come back exactly.
  resumed.advance(rounds);
  StateArchive in = StateArchive::load_from(ckpt);
  resumed.state(in, "run/churn/");
  EXPECT_EQ(resumed.cursor(), full.cursor());
  EXPECT_EQ(resumed.enrolled(), full.enrolled());
  for (std::size_t c = 0; c < n; ++c) {
    EXPECT_EQ(resumed.status(c), full.status(c));
    EXPECT_EQ(resumed.pending_staleness(c), full.pending_staleness(c));
  }
  // And replay continues identically from the restored cursor.
  for (std::size_t r = 7; r <= rounds; ++r) {
    full.advance(r);
    resumed.advance(r);
    EXPECT_EQ(resumed.enrolled(), full.enrolled());
  }
}

TEST(ChurnEngine, LoadWithoutEntriesResetsToInitialState) {
  ChurnEngine engine(busy_churn(), 10, 8);
  engine.advance(5);
  const RunCheckpoint empty_ckpt;  // pre-churn checkpoint
  StateArchive in = StateArchive::load_from(empty_ckpt);
  engine.state(in, "run/churn/");
  EXPECT_EQ(engine.cursor(), 0u);
  EXPECT_EQ(engine.enrolled().size(), engine.trace().initial_enrolled);
}

// ------------------------------------------------- off-switch bit-identity --

// A run with an inert ChurnConfig (a join rate but full enrollment, so
// nobody is left to join: the engine is built and dropped), no admission
// budget, and the default RetryPolicy must be byte-identical to the plain
// run — floats AND telemetry.
class ChurnOffBitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(ChurnOffBitIdentity, InertChurnMatchesAbsentChurn) {
  const auto source = small_source();
  const std::string path_a =
      std::string("churn_off_a_") + GetParam() + ".jsonl";
  const std::string path_b =
      std::string("churn_off_b_") + GetParam() + ".jsonl";

  RunOptions opts;
  opts.rounds = 3;
  opts.sample_ratio = 0.75;
  opts.eval_every = 1;
  opts.sampling_seed = 9;
  FaultConfig fc;
  fc.dropout_rate = 0.2;
  fc.loss_rate = 0.2;
  fc.seed = 515;
  opts.faults = fc;

  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto plain = make_algorithm(GetParam(), env1);
  RunResult a;
  {
    obs::JsonlWriter sink(path_a);
    RunOptions o = opts;
    o.telemetry = &sink;
    a = run_federated(*plain, o);
  }

  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto inert = make_algorithm(GetParam(), env2);
  RunResult b;
  {
    obs::JsonlWriter sink(path_b);
    RunOptions o = opts;
    o.telemetry = &sink;
    o.churn.join_rate = 0.5;       // inert: empty trace
    o.admission = AdmissionConfig{};  // unlimited
    b = run_federated(*inert, o);
  }

  const auto wa = global_weights(*plain);
  const auto wb = global_weights(*inert);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.comm.total(), b.comm.total());
  EXPECT_EQ(b.total("joined"), 0u);
  EXPECT_EQ(b.total("left"), 0u);
  EXPECT_EQ(b.total("shed"), 0u);
  // Telemetry bytes, not just floats.
  EXPECT_EQ(slurp(path_a), slurp(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ChurnOffBitIdentity,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "spatl", "fedavgm",
                                           "fedadam", "fedavg+topk",
                                           "fedavg+int8"));

// --------------------------------------------------- churn-active behaviour --

class ChurnActive : public ::testing::TestWithParam<const char*> {};

TEST_P(ChurnActive, AllAlgorithmsSurviveEnrollmentChanges) {
  const auto source = small_source();
  common::Rng rng(41);
  FlEnvironment env(source, 6, 0.5, 0.25, rng);
  auto algo = make_algorithm(GetParam(), env);

  RunOptions opts;
  opts.rounds = 6;
  opts.eval_every = 2;
  opts.churn = busy_churn();
  const auto result = run_federated(*algo, opts);

  EXPECT_GT(result.total("left") + result.total("joined") +
                result.total("returned"),
            0u);
  EXPECT_TRUE(is_finite(global_weights(*algo)));
  EXPECT_GT(result.final_accuracy, 0.0);
  // Selected never exceeds the enrolled population.
  for (const auto& rec : result.history) {
    EXPECT_LE(rec.stats.selected, rec.stats.enrolled);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ChurnActive,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "spatl"));

TEST(ChurnRun, ReturningClientsAreDiscountedOnce) {
  const auto source = small_source();
  common::Rng rng(43);
  FlEnvironment env(source, 6, 0.5, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 10;
  opts.eval_every = 5;
  ChurnConfig cc;
  cc.leave_rate = 0.4;
  cc.return_rate = 0.7;
  cc.seed = 17;
  opts.churn = cc;
  const auto result = run_federated(algo, opts);
  EXPECT_GT(result.total("returned"), 0u);
  EXPECT_GT(result.total("returning_discounted"), 0u);
  // At most one discount per return event.
  EXPECT_LE(result.total("returning_discounted"), result.total("returned"));
  EXPECT_TRUE(is_finite(global_weights(algo)));
}

TEST(ChurnRun, ResumeWithActiveChurnIsBitIdentical) {
  const auto source = small_source();
  RunOptions opts;
  opts.rounds = 6;
  opts.eval_every = 2;
  opts.churn = busy_churn();
  opts.checkpoint_every = 3;

  common::Rng rng1(47);
  FlEnvironment env1(source, 6, 0.5, 0.25, rng1);
  FedAvg full(env1, small_config());
  const auto full_result = run_federated(full, opts);

  // Run only to the checkpoint, then resume a fresh algorithm from it.
  common::Rng rng2(47);
  FlEnvironment env2(source, 6, 0.5, 0.25, rng2);
  FedAvg head(env2, small_config());
  RunOptions head_opts = opts;
  head_opts.rounds = 3;
  const auto head_result = run_federated(head, head_opts);
  ASSERT_FALSE(head_result.last_checkpoint.empty());

  common::Rng rng3(47);
  FlEnvironment env3(source, 6, 0.5, 0.25, rng3);
  FedAvg tail(env3, small_config());
  RunOptions tail_opts = opts;
  tail_opts.resume = &head_result.last_checkpoint;
  const auto tail_result = run_federated(tail, tail_opts);

  const auto wa = global_weights(full);
  const auto wb = global_weights(tail);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(full_result.final_accuracy, tail_result.final_accuracy);
  EXPECT_EQ(full_result.total("joined"), tail_result.total("joined"));
  EXPECT_EQ(full_result.total("left"), tail_result.total("left"));
  EXPECT_EQ(full_result.total("returned"), tail_result.total("returned"));
}

// ---------------------------------------------------------- admission control --

TEST(Admission, ParticipantCapShedsDeterministically) {
  const auto source = small_source();

  const auto run_once = [&] {
    common::Rng rng(53);
    FlEnvironment env(source, 6, 0.5, 0.25, rng);
    FedAvg algo(env, small_config());
    RunOptions opts;
    opts.rounds = 4;
    opts.eval_every = 1;
    opts.admission.max_participants = 2;
    opts.admission.policy = AdmissionPolicy::kShed;
    return run_federated(algo, opts);
  };

  const auto a = run_once();
  EXPECT_GT(a.total("shed"), 0u);
  EXPECT_EQ(a.total("deferred"), 0u);
  for (const auto& rec : a.history) {
    EXPECT_LE(rec.stats.accepted, 2u);
  }
  // Deterministic: an identical run sheds identically.
  const auto b = run_once();
  EXPECT_EQ(a.total("shed"), b.total("shed"));
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
}

TEST(Admission, DeferQueuesExcessIntoNextRound) {
  const auto source = small_source();
  common::Rng rng(53);
  FlEnvironment env(source, 6, 0.5, 0.25, rng);
  FedAvg algo(env, small_config());
  RunOptions opts;
  opts.rounds = 4;
  opts.eval_every = 1;
  opts.admission.max_participants = 3;
  opts.admission.policy = AdmissionPolicy::kDefer;
  const auto result = run_federated(algo, opts);
  EXPECT_GT(result.total("deferred"), 0u);
  EXPECT_EQ(result.total("shed"), 0u);
}

TEST(Admission, ByteBudgetBelowOneUplinkSkipsWithBudgetReason) {
  const auto source = small_source();
  common::Rng rng(53);
  FlEnvironment env(source, 4, 0.5, 0.25, rng);
  FedAvg algo(env, small_config());
  RunOptions opts;
  opts.rounds = 2;
  opts.eval_every = 1;
  // Below the cost of a single uplink: every round is shed empty.
  opts.admission.max_uplink_bytes = 1.0;
  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.total("skipped"), 2u);
  for (const auto& rec : result.history) {
    EXPECT_TRUE(rec.stats.skipped);
    EXPECT_EQ(rec.stats.skip_reason, SkipReason::kAdmissionBudget);
  }
  EXPECT_EQ(std::string(skip_reason_name(SkipReason::kAdmissionBudget)),
            "admission_budget");
}

TEST(Admission, UplinkCostScalesWithAlgorithmProtocol) {
  const auto source = small_source();
  common::Rng rng(59);
  FlEnvironment env(source, 4, 0.5, 0.25, rng);
  FedAvg fedavg(env, small_config());
  common::Rng rng2(59);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  Scaffold scaffold(env2, small_config());

  // SCAFFOLD ships update + control delta: twice FedAvg's uplink.
  EXPECT_EQ(scaffold.uplink_cost_floats(), 2 * fedavg.uplink_cost_floats());
  EXPECT_GT(fedavg.uplink_cost_floats(), 0u);
}

// ----------------------------------------------------------- retry policy --

TEST(RetryPolicy, BackoffAccumulatesCappedExponentialWaits) {
  FaultConfig cfg;
  cfg.loss_rate = 1.0;  // every attempt lost: exercises the full ladder
  cfg.seed = 77;
  RetryPolicy retry;
  retry.max_retries = 3;
  retry.backoff_base = 1.0;
  retry.backoff_factor = 2.0;
  retry.backoff_max = 2.5;
  const Transmission t = FaultModel(cfg).transmit(1, 0, retry);
  EXPECT_FALSE(t.delivered);
  EXPECT_EQ(t.attempts, 4u);
  // Waits 1, 2, min(4, 2.5): no wait after the final (given-up) attempt.
  EXPECT_DOUBLE_EQ(t.backoff_wait, 1.0 + 2.0 + 2.5);
}

TEST(RetryPolicy, JitterStaysWithinFractionAndIsDeterministic) {
  FaultConfig cfg;
  cfg.loss_rate = 1.0;
  cfg.seed = 77;
  RetryPolicy retry;
  retry.max_retries = 2;
  retry.backoff_base = 1.0;
  retry.backoff_factor = 1.0;
  retry.backoff_max = 10.0;
  retry.jitter = 0.25;
  const Transmission a = FaultModel(cfg).transmit(3, 1, retry);
  const Transmission b = FaultModel(cfg).transmit(3, 1, retry);
  EXPECT_DOUBLE_EQ(a.backoff_wait, b.backoff_wait);  // keyed, not stateful
  // Two unit waits, each jittered within [0.75, 1.25].
  EXPECT_GE(a.backoff_wait, 2.0 * 0.75);
  EXPECT_LE(a.backoff_wait, 2.0 * 1.25);
  // A different client draws different jitter.
  const Transmission c = FaultModel(cfg).transmit(3, 2, retry);
  EXPECT_NE(a.backoff_wait, c.backoff_wait);
}

TEST(RetryPolicy, BackoffNeverChangesDeliveryOutcomes) {
  // The loss Bernoullis live on their own stream: turning backoff (and
  // jitter) on cannot flip which attempts are lost.
  FaultConfig cfg;
  cfg.loss_rate = 0.5;
  cfg.seed = 31;
  RetryPolicy plain;
  plain.max_retries = 2;
  RetryPolicy waits = plain;
  waits.backoff_base = 0.5;
  waits.jitter = 0.5;
  for (std::size_t round = 1; round <= 6; ++round) {
    for (std::size_t client = 0; client < 8; ++client) {
      const Transmission a = FaultModel(cfg).transmit(round, client, plain);
      const Transmission b = FaultModel(cfg).transmit(round, client, waits);
      EXPECT_EQ(a.delivered, b.delivered);
      EXPECT_EQ(a.attempts, b.attempts);
      EXPECT_EQ(a.backoff_wait, 0.0);
    }
  }
}

TEST(RetryPolicy, GiveUpsAreAccountedPerClient) {
  const auto source = small_source();
  common::Rng rng(61);
  FlEnvironment env(source, 4, 0.5, 0.25, rng);
  FedAvg algo(env, small_config());
  RunOptions opts;
  opts.rounds = 3;
  opts.eval_every = 1;
  FaultConfig fc;
  fc.loss_rate = 0.95;
  fc.seed = 13;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.retry.max_retries = 1;
  rc.retry.backoff_base = 0.5;
  opts.resilience = rc;
  const auto result = run_federated(algo, opts);
  EXPECT_GT(result.total("giveups"), 0u);
  std::size_t per_client = 0;
  for (const std::size_t g : result.client_giveups) per_client += g;
  EXPECT_EQ(per_client, result.total("giveups"));
  EXPECT_GT(result.total_backoff_wait, 0.0);
}

// --------------------------------------------------------- failover drills --

class FailoverDrill : public ::testing::TestWithParam<const char*> {};

TEST_P(FailoverDrill, CrashRecoveryIsBitIdenticalToUncrashedRun) {
  const auto source = small_source();
  RunOptions opts;
  opts.rounds = 5;
  opts.eval_every = 1;
  opts.checkpoint_every = 2;
  opts.churn = busy_churn();

  common::Rng rng1(67);
  FlEnvironment env1(source, 5, 0.5, 0.25, rng1);
  auto smooth = make_algorithm(GetParam(), env1);
  const auto smooth_result = run_federated(*smooth, opts);

  common::Rng rng2(67);
  FlEnvironment env2(source, 5, 0.5, 0.25, rng2);
  const Restarted crashed = run_with_restarts(
      [&] { return make_algorithm(GetParam(), env2); }, opts, {3});
  const RunResult& crash_result = crashed.result;

  const auto wa = global_weights(*smooth);
  const auto wb = global_weights(*crashed.algo);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(smooth_result.final_accuracy, crash_result.final_accuracy);
  EXPECT_EQ(smooth_result.best_accuracy, crash_result.best_accuracy);
  // The restart replays rounds 3..5; the stitched history is the same
  // evaluated series (no duplicate or phantom rounds).
  ASSERT_EQ(smooth_result.history.size(), crash_result.history.size());
  for (std::size_t i = 0; i < smooth_result.history.size(); ++i) {
    EXPECT_EQ(smooth_result.history[i].round, crash_result.history[i].round);
    EXPECT_EQ(smooth_result.history[i].avg_accuracy,
              crash_result.history[i].avg_accuracy);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, FailoverDrill,
                         ::testing::Values("fedavg", "scaffold", "spatl"));

TEST(FailoverDrill2, CrashBeforeFirstCheckpointRecoversFromBaseline) {
  const auto source = small_source();
  common::Rng rng(71);
  FlEnvironment env(source, 4, 0.5, 0.25, rng);
  RunOptions opts;
  opts.rounds = 3;
  opts.eval_every = 1;
  // No periodic checkpoint exists yet: the restart is a cold start.
  const Restarted run = run_with_restarts(
      [&] { return std::make_unique<FedAvg>(env, small_config()); }, opts,
      {1});
  const RunResult& result = run.result;
  EXPECT_TRUE(is_finite(global_weights(*run.algo)));
  // Round 1 was replayed after the crash; the history is still 1..3.
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.history.front().round, 1u);
}

// ------------------------------------------------------------ alert hook --

TEST(AlertWatcher, EdgeTriggersOncePerCrossingAndRearms) {
  obs::AlertRule rule;
  rule.name = "reject_high";
  rule.metric = "fl.reject_rate";
  rule.threshold = 0.5;
  obs::AlertWatcher watcher(nullptr);  // count-only
  watcher.add_rule(rule);

  watcher.observe("fl.reject_rate", 0.2, 1);
  EXPECT_EQ(watcher.alerts_emitted(), 0u);
  watcher.observe("fl.reject_rate", 0.6, 2);  // crossing: fires
  watcher.observe("fl.reject_rate", 0.8, 3);  // sustained: silent
  EXPECT_EQ(watcher.alerts_emitted(), 1u);
  watcher.observe("fl.reject_rate", 0.1, 4);  // re-arms
  watcher.observe("fl.reject_rate", 0.9, 5);  // second crossing
  EXPECT_EQ(watcher.alerts_emitted(), 2u);
  // Unwatched metrics are ignored.
  watcher.observe("fl.other", 99.0, 6);
  EXPECT_EQ(watcher.alerts_emitted(), 2u);
}

TEST(AlertWatcher, BelowDirectionAndSnapshotPolling) {
  obs::AlertRule low;
  low.name = "acc_low";
  low.metric = "fl.accuracy";
  low.threshold = 0.3;
  low.above = false;
  obs::AlertWatcher watcher(nullptr);
  watcher.add_rule(low);

  obs::MetricsSnapshot snap;
  snap.gauges["fl.accuracy"] = 0.5;
  watcher.poll(snap, 1);
  EXPECT_EQ(watcher.alerts_emitted(), 0u);
  snap.gauges["fl.accuracy"] = 0.2;
  watcher.poll(snap, 2);
  EXPECT_EQ(watcher.alerts_emitted(), 1u);
}

TEST(AlertWatcher, EmitsAlertRecordsIntoTheTelemetryStream) {
  const std::string path = "churn_alert_test.jsonl";
  {
    obs::JsonlWriter sink(path);
    obs::AlertWatcher watcher(&sink);
    watcher.add_rule({"shed_high", "fl.shed_rate", 0.4, true});

    const auto source = small_source();
    common::Rng rng(73);
    FlEnvironment env(source, 6, 0.5, 0.25, rng);
    FedAvg algo(env, small_config());
    RunOptions opts;
    opts.rounds = 3;
    opts.eval_every = 1;
    opts.admission.max_participants = 2;  // sheds 4 of 6 every round
    opts.alerts = &watcher;
    opts.telemetry = &sink;
    run_federated(algo, opts);
    EXPECT_GE(watcher.alerts_emitted(), 1u);
  }
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"type\":\"alert\""), std::string::npos);
  EXPECT_NE(text.find("\"rule\":\"shed_high\""), std::string::npos);
  EXPECT_NE(text.find("\"metric\":\"fl.shed_rate\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spatl::fl
