#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/checkpoint.hpp"
#include "fl/fault.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"
#include "fl_fixture.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "report/json.hpp"

namespace spatl::fl {
namespace {

// -------------------------------------------------- lossless pack helpers --

TEST(CheckpointPack, FloatsRoundTripBitExactly) {
  const std::vector<float> values = {0.0f, -0.0f, 1.5f,
                                     std::numeric_limits<float>::max(),
                                     std::numeric_limits<float>::denorm_min(),
                                     -3.1415927f};
  const auto t = pack_floats("x", values);
  EXPECT_EQ(t.name, "x");
  const auto back = unpack_floats(t.value);
  ASSERT_EQ(back.size(), values.size());
  EXPECT_EQ(
      std::memcmp(back.data(), values.data(), values.size() * sizeof(float)),
      0);
}

TEST(CheckpointPack, U64sSurviveTheFloat32Container) {
  // 64-bit words do not fit a float; the packing splits them into 16-bit
  // chunks, each exactly representable. Extremes must survive.
  const std::vector<std::uint64_t> values = {
      0ULL, 1ULL, 0xFFFFFFFFFFFFFFFFULL, 0x123456789ABCDEF0ULL,
      0x8000000000000001ULL};
  const auto back = unpack_u64s(pack_u64s("n", values).value);
  EXPECT_EQ(back, values);
}

TEST(CheckpointPack, DoublesRoundTripByBitPattern) {
  const std::vector<double> values = {
      0.0, -0.0, 1.5, -2.718281828459045, 1e300,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  const auto back = unpack_doubles(pack_doubles("d", values).value);
  ASSERT_EQ(back.size(), values.size());
  EXPECT_EQ(
      std::memcmp(back.data(), values.data(), values.size() * sizeof(double)),
      0);
  // An empty vector packs to the pad element alone and comes back empty.
  const auto empty = pack_doubles("e", {});
  EXPECT_EQ(empty.value.numel(), 1u);
  EXPECT_TRUE(unpack_doubles(empty.value).empty());
}

TEST(CheckpointPack, RngCursorResumesTheExactStream) {
  common::Rng rng(123);
  // Advance past a Box-Muller draw so the cached second deviate is live —
  // the cursor must carry it, or the next normal() diverges.
  for (int i = 0; i < 7; ++i) rng.uniform();
  (void)rng.normal();
  const auto t = pack_rng("r", rng);

  common::Rng restored(999);
  unpack_rng(t.value, restored);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rng.uniform(), restored.uniform());
    EXPECT_EQ(rng.normal(), restored.normal());
  }
}

TEST(CheckpointPack, RunCheckpointSaveLoadRoundTrips) {
  RunCheckpoint ckpt;
  ckpt.entries.push_back(pack_floats("a/w", {1.0f, 2.0f, 3.0f}));
  ckpt.entries.push_back(pack_u64s("a/round", {42}));

  EXPECT_EQ(unpack_floats(ckpt.at("a/w")),
            (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(unpack_u64s(ckpt.at("a/round")), (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(ckpt.find("missing"), nullptr);
  EXPECT_THROW(ckpt.at("missing"), std::runtime_error);
  EXPECT_FALSE(ckpt.empty());
  EXPECT_TRUE(RunCheckpoint{}.empty());
}

// ----------------------------------------------------- resume bit-identity --

RunOptions resume_options() {
  RunOptions opts;
  opts.rounds = 4;
  opts.sample_ratio = 0.75;
  opts.eval_every = 2;
  opts.sampling_seed = 9;
  FaultConfig fc;
  fc.dropout_rate = 0.2;
  fc.loss_rate = 0.2;
  fc.byzantine_clients = {1, 0, 0, 0};  // client 0 attacks every round
  fc.attack_kind = AttackKind::kScale;
  fc.attack_scale = 2.0;
  fc.seed = 400;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kCoordinateMedian;
  opts.resilience = rc;
  return opts;
}

// A run checkpointed at round 2 and resumed into a freshly-constructed
// algorithm must finish bit-identical to the uninterrupted twin: same
// global weights, same metrics, same byte and failure accounting.
class ResumeBitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(ResumeBitIdentity, ResumedRunMatchesStraightThrough) {
  const auto source = small_source();

  // Uninterrupted twin.
  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto straight = make_algorithm(GetParam(), env1);
  const auto full = run_federated(*straight, resume_options());

  // Leg 1: stop after round 2, capturing the snapshot.
  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto first = make_algorithm(GetParam(), env2);
  RunOptions leg1 = resume_options();
  leg1.rounds = 2;
  leg1.checkpoint_every = 2;
  const auto half = run_federated(*first, leg1);
  ASSERT_EQ(half.checkpoints_written, 1u);
  ASSERT_FALSE(half.last_checkpoint.empty());

  // Leg 2: fresh algorithm ("process restart"), restore, run rounds 3-4.
  common::Rng rng3(37);
  FlEnvironment env3(source, 4, 0.5, 0.25, rng3);
  auto second = make_algorithm(GetParam(), env3);
  RunOptions leg2 = resume_options();
  leg2.resume = &half.last_checkpoint;
  const auto resumed = run_federated(*second, leg2);

  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*second);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);

  EXPECT_EQ(full.final_accuracy, resumed.final_accuracy);
  EXPECT_EQ(full.best_accuracy, resumed.best_accuracy);
  EXPECT_EQ(full.comm.total(), resumed.comm.total());
  EXPECT_EQ(full.comm.retransmitted, resumed.comm.retransmitted);
  EXPECT_EQ(full.total("selected"), resumed.total("selected"));
  EXPECT_EQ(full.total("dropped"), resumed.total("dropped"));
  EXPECT_EQ(full.total("accepted"), resumed.total("accepted"));
  EXPECT_EQ(full.total("rejected"), resumed.total("rejected"));
  EXPECT_EQ(full.total("attacked"), resumed.total("attacked"));
  EXPECT_EQ(full.total("suspected"), resumed.total("suspected"));
  EXPECT_EQ(full.total("skipped"), resumed.total("skipped"));

  // The resumed history covers rounds 3-4 and must equal the straight
  // run's tail record for record.
  ASSERT_LE(resumed.history.size(), full.history.size());
  const std::size_t offset = full.history.size() - resumed.history.size();
  for (std::size_t i = 0; i < resumed.history.size(); ++i) {
    const auto& x = full.history[offset + i];
    const auto& y = resumed.history[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.avg_accuracy, y.avg_accuracy);
    EXPECT_EQ(x.avg_loss, y.avg_loss);
    EXPECT_EQ(x.cumulative_bytes, y.cumulative_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ResumeBitIdentity,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "spatl", "fedavgm",
                                           "fedadam", "fedavg+topk",
                                           "fedavg+int8", "local-only"));

TEST(CheckpointResume, ChurnTraceAndParkedCohortSurviveResume) {
  // The hard case: the snapshot is taken with a NON-EMPTY churn trace (the
  // membership machine is mid-replay, clients departed and pending return
  // discounts outstanding) AND a mid-flight parked straggler cohort in the
  // async buffer. Resume must replay both bit-identically.
  const auto source = small_source();

  const auto make_options = [] {
    RunOptions opts;
    opts.rounds = 6;
    opts.eval_every = 2;
    opts.sampling_seed = 9;
    FaultConfig fc;
    fc.straggler_rate = 0.6;
    fc.slowdown_factor = 3.0;
    fc.round_deadline = 2.0;
    fc.seed = 515;
    opts.faults = fc;
    AsyncConfig ac;
    ac.max_lag = 4;
    opts.async = ac;
    ChurnConfig cc;
    cc.initial_fraction = 0.75;
    cc.join_rate = 0.4;
    cc.leave_rate = 0.3;
    cc.return_rate = 0.5;
    cc.seed = 99;
    opts.churn = cc;
    return opts;
  };

  common::Rng rng1(37);
  FlEnvironment env1(source, 6, 0.5, 0.25, rng1);
  auto straight = make_algorithm("fedavg", env1);
  const auto full = run_federated(*straight, make_options());
  // The scenario must actually exercise both subsystems.
  ASSERT_GT(full.total("parked"), 0u);
  ASSERT_GT(
      full.total("joined") + full.total("left") + full.total("returned"), 0u);

  common::Rng rng2(37);
  FlEnvironment env2(source, 6, 0.5, 0.25, rng2);
  auto first = make_algorithm("fedavg", env2);
  RunOptions leg1 = make_options();
  leg1.rounds = 3;
  leg1.checkpoint_every = 3;
  const auto half = run_federated(*first, leg1);
  ASSERT_FALSE(half.last_checkpoint.empty());
  // The snapshot carries churn state and (when stragglers were in flight)
  // the parked cohort.
  EXPECT_NE(half.last_checkpoint.find("run/churn/cursor"), nullptr);
  if (half.buffered_remaining > 0) {
    EXPECT_NE(half.last_checkpoint.find("algo/async/n"), nullptr);
  }

  common::Rng rng3(37);
  FlEnvironment env3(source, 6, 0.5, 0.25, rng3);
  auto second = make_algorithm("fedavg", env3);
  RunOptions leg2 = make_options();
  leg2.resume = &half.last_checkpoint;
  const auto resumed = run_federated(*second, leg2);

  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*second);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(full.final_accuracy, resumed.final_accuracy);
  EXPECT_EQ(full.comm.total(), resumed.comm.total());
  EXPECT_EQ(full.total("parked"), resumed.total("parked"));
  EXPECT_EQ(full.total("late_commits"), resumed.total("late_commits"));
  EXPECT_EQ(full.buffered_remaining, resumed.buffered_remaining);
  EXPECT_EQ(full.total("joined"), resumed.total("joined"));
  EXPECT_EQ(full.total("left"), resumed.total("left"));
  EXPECT_EQ(full.total("returned"), resumed.total("returned"));
  EXPECT_EQ(full.total("returning_discounted"),
            resumed.total("returning_discounted"));
}

// --------------------------------------------------- run-total conservation --

RunOptions busy_options() {
  RunOptions opts;
  opts.rounds = 6;
  opts.eval_every = 1;
  opts.sample_ratio = 0.75;
  opts.sampling_seed = 9;
  FaultConfig fc;
  fc.dropout_rate = 0.15;
  fc.loss_rate = 0.3;
  fc.straggler_rate = 0.5;
  fc.slowdown_factor = 3.0;
  fc.round_deadline = 2.0;
  fc.byzantine_clients = {1, 0, 0, 0, 0, 0};
  fc.attack_kind = AttackKind::kScale;
  fc.attack_scale = 2.0;
  fc.seed = 400;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kCoordinateMedian;
  rc.retry.max_retries = 1;
  rc.retry.backoff_base = 0.5;
  opts.resilience = rc;
  AsyncConfig ac;
  ac.max_lag = 3;
  opts.async = ac;
  ChurnConfig cc;
  cc.initial_fraction = 0.75;
  cc.join_rate = 0.4;
  cc.leave_rate = 0.3;
  cc.return_rate = 0.5;
  cc.seed = 99;
  opts.churn = cc;
  opts.admission.max_participants = 2;
  opts.admission.policy = AdmissionPolicy::kDefer;
  return opts;
}

/// Every counter-table total equals its row summed over the round records,
/// and every parked update is committed, still buffered, or superseded.
void expect_conserved(const RunResult& result) {
  for (const RunCounter& c : run_counters()) {
    std::size_t summed = 0;
    for (const RoundRecord& rec : result.history) {
      summed += c.per_round(rec.stats);
    }
    EXPECT_EQ(result.total(c.name), summed) << c.name;
  }
  EXPECT_EQ(result.total("parked"), result.total("late_commits") +
                                        result.buffered_remaining +
                                        result.total("dedup_dropped"));
}

/// Runs `algo` with one telemetry record per round into a scratch file
/// named after `tag` and returns the parsed records; the metrics registry is
/// reset first, so its fl.<name> counters cover this run only.
std::vector<report::JsonValue> run_with_telemetry(FederatedAlgorithm& algo,
                                                  RunOptions opts,
                                                  const std::string& tag,
                                                  RunResult& result) {
  const std::string jsonl = (std::filesystem::temp_directory_path() /
                             ("spatl_run_totals_" + tag + ".jsonl"))
                                .string();
  obs::MetricsRegistry::instance().reset();
  {
    obs::JsonlWriter sink(jsonl);
    opts.telemetry = &sink;
    opts.telemetry_every = 1;
    result = run_federated(algo, opts);
  }
  std::ifstream in(jsonl);
  std::stringstream text;
  text << in.rdbuf();
  in.close();
  std::filesystem::remove(jsonl);
  std::vector<report::JsonValue> records;
  std::string err;
  EXPECT_TRUE(report::parse_jsonl(text.str(), &records, &err)) << err;
  return records;
}

/// Each row's per-round values in the round records sum to the run total,
/// which the registry's fl.<name> counter also reaches.
void expect_records_match_totals(const std::vector<report::JsonValue>& records,
                                 const RunResult& result) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  for (const RunCounter& c : run_counters()) {
    std::uint64_t summed = 0;
    for (const report::JsonValue& rec : records) {
      ASSERT_EQ(rec.str("type"), "round");
      const report::JsonValue* counts = rec.find("counts");
      ASSERT_NE(counts, nullptr);
      ASSERT_NE(counts->find(c.name), nullptr) << c.name;
      summed += counts->u64(c.name);
    }
    EXPECT_EQ(summed, result.total(c.name)) << c.name;
    const auto metric = snap.counters.find("fl." + std::string(c.name));
    ASSERT_NE(metric, snap.counters.end()) << c.name;
    EXPECT_EQ(metric->second, result.total(c.name)) << c.name;
  }
}

TEST(RunTotals, ConservedInStraightAndCrashRecoveredRuns) {
  const auto source = small_source();
  common::Rng rng1(37);
  FlEnvironment env1(source, 6, 0.5, 0.25, rng1);
  auto straight = make_algorithm("fedavg", env1);
  // The straight run also feeds the two other consumers of the counter
  // table: one telemetry record per round and the metrics registry.
  RunResult full;
  const auto records =
      run_with_telemetry(*straight, busy_options(), "busy", full);
  ASSERT_EQ(full.history.size(), 6u);
  // The scenario must exercise the subsystems the table counts.
  ASSERT_GT(full.total("dropped"), 0u);
  ASSERT_GT(full.total("stragglers"), 0u);
  ASSERT_GT(full.total("parked"), 0u);
  ASSERT_GT(full.total("attacked"), 0u);
  ASSERT_GT(full.total("deferred"), 0u);
  ASSERT_GT(
      full.total("joined") + full.total("left") + full.total("returned"), 0u);
  ASSERT_GT(full.total("retransmissions"), 0u);
  expect_conserved(full);
  ASSERT_EQ(records.size(), 6u);
  expect_records_match_totals(records, full);
  EXPECT_THROW(full.total("no_such_counter"), std::out_of_range);

  // Twin: crash after round 3 and recover from the round-2 store generation,
  // which carries a budget-deferred client into round 3.
  const auto dir =
      std::filesystem::temp_directory_path() / "spatl_run_totals_test";
  std::filesystem::remove_all(dir);
  common::Rng rng2(37);
  FlEnvironment env2(source, 6, 0.5, 0.25, rng2);
  RunOptions opts = busy_options();
  opts.checkpoint_every = 2;
  store::StoreConfig sc;
  sc.dir = dir.string();
  opts.ckpt_store = sc;
  const Restarted crashed = run_with_restarts(
      [&] { return make_algorithm("fedavg", env2); }, opts, {3});
  const RunResult& twin = crashed.result;
  std::filesystem::remove_all(dir);
  ASSERT_EQ(twin.recoveries_from_store, 1u);
  expect_conserved(twin);

  // The recovered loop state replays the lost rounds exactly, so the twin
  // ends on the straight run's totals, not merely self-consistent ones.
  EXPECT_EQ(twin.totals, full.totals);
  EXPECT_EQ(twin.total_backoff_wait, full.total_backoff_wait);
  EXPECT_EQ(twin.client_giveups, full.client_giveups);
  EXPECT_EQ(twin.buffered_remaining, full.buffered_remaining);
  EXPECT_EQ(twin.final_accuracy, full.final_accuracy);
  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*crashed.algo);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
}

// A clean run (no faults, default resilience) accepts every client it
// selects, and the round records, the run totals and the registry say so.
// Local-only sends no uplink, so nothing is ever accepted.
class RunTotalsClean : public ::testing::TestWithParam<const char*> {};

TEST_P(RunTotalsClean, EverySelectedClientIsAccepted) {
  const auto source = small_source();
  common::Rng rng(37);
  FlEnvironment env(source, 4, 0.5, 0.25, rng);
  auto algo = make_algorithm(GetParam(), env);
  RunOptions opts;
  opts.rounds = 3;
  opts.sample_ratio = 0.75;
  RunResult result;
  const auto records = run_with_telemetry(*algo, opts, GetParam(), result);
  ASSERT_EQ(records.size(), 3u);
  const bool uplink = std::string(GetParam()) != "local-only";
  for (const report::JsonValue& rec : records) {
    const report::JsonValue* counts = rec.find("counts");
    ASSERT_NE(counts, nullptr);
    ASSERT_EQ(counts->u64("selected"), 3u);
    EXPECT_EQ(counts->u64("accepted"), uplink ? 3u : 0u)
        << "round " << rec.u64("round");
  }
  EXPECT_EQ(result.total("accepted"), uplink ? 9u : 0u);
  expect_conserved(result);
  expect_records_match_totals(records, result);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, RunTotalsClean,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "spatl", "fedavgm",
                                           "fedadam", "fedavg+topk",
                                           "fedavg+int8", "local-only"));

// --------------------------------------------------------- divergence guard --

TEST(DivergenceGuard, RollsBackExplodedRoundsAndReaggregatesRobustly) {
  const auto source = small_source();
  common::Rng rng(109);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 3;
  FaultConfig fc;
  // One colluder pushing an enormous fixed direction: the payload stays
  // finite (so validation admits it) but the mean-aggregated model
  // overflows activations and the evaluation loss goes non-finite.
  fc.byzantine_clients = {1, 0, 0, 0};
  fc.attack_kind = AttackKind::kFixedDirection;
  fc.attack_scale = 1.0e30;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kWeightedMean;
  opts.resilience = rc;
  opts.divergence_factor = 2.0;

  const auto result = run_federated(algo, opts);
  EXPECT_GT(result.total("rolled_back"), 0u);
  bool flagged = false;
  for (const auto& rec : result.history) flagged |= rec.stats.rolled_back;
  EXPECT_TRUE(flagged);
  // The fallback median kept the model sane despite the guaranteed-hostile
  // mean path.
  EXPECT_TRUE(is_finite(global_weights(algo)));
  EXPECT_TRUE(std::isfinite(result.history.back().avg_loss));
}

TEST(DivergenceGuard, QuietRunsAreNeverRolledBack) {
  const auto source = small_source();
  common::Rng rng(113);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 3;
  opts.divergence_factor = 10.0;  // generous: normal training never trips it
  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.total("rolled_back"), 0u);
  for (const auto& rec : result.history) EXPECT_FALSE(rec.stats.rolled_back);
}

}  // namespace
}  // namespace spatl::fl
