// Golden checkpoint bytes for every algorithm the CLI exposes, plus one
// runner case that carries every optional run/* entry.
//
// Each case runs three rounds on the scalar backend with a checkpoint after
// round 3 and pins an FNV-1a digest over every RunCheckpoint entry, in
// order: the entry's name, then its packed float payload. Entry names, entry
// order and payloads are the checkpoint format, so this table must not move
// when the save/load code is restructured. Every algorithm except
// local-only runs under semi-async stragglers, so the algo/async/ buffer is
// non-empty at the snapshot; local-only runs clean.
//
// Each case also checks that a snapshot restores losslessly: save -> load
// into a freshly built object -> save reproduces the same bytes. On a
// mismatch the failure message prints the observed row in table syntax.
//
// Float rounding is pinned for x86-64 builds only.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/checkpoint.hpp"
#include "fl/runner.hpp"

namespace spatl::fl {
namespace {

struct Golden {
  const char* name;
  std::uint64_t digest;
  std::size_t entries;
};

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> table = {
      {"fedavg", 0x8531ad0e3b496944ULL, 33},
      {"fedprox", 0xed11a69c7366bbdbULL, 33},
      {"fednova", 0x0dd2b8dab4db0a24ULL, 33},
      {"scaffold", 0x5ea211d581460755ULL, 39},
      {"fedavgm", 0x434a7201cf3107e7ULL, 36},
      {"fedadam", 0xa31e4c372e0d69dbULL, 36},
      {"fedavg+topk", 0xa40fcbaae8a5fc7dULL, 36},
      {"fedavg+int8", 0x9592c03aa5d7a0cfULL, 36},
      {"local-only", 0xa36a92be1e244313ULL, 37},
      {"spatl", 0x8e3e0ca49fa36122ULL, 81},
      {"runner", 0x54aa14ca0f3945baULL, 39},
  };
  return table;
}

data::Dataset small_source() {
  data::SyntheticConfig cfg;
  cfg.num_samples = 400;
  cfg.image_size = 8;
  cfg.num_classes = 10;
  cfg.noise_stddev = 0.2f;
  cfg.seed = 11;
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

std::unique_ptr<FederatedAlgorithm> make_algorithm(const std::string& name,
                                                   FlEnvironment& env) {
  if (name == "spatl") {
    core::SpatlOptions opts;
    opts.agent_finetune_rounds = 1;
    opts.agent_finetune_episodes = 1;
    return std::make_unique<core::SpatlAlgorithm>(env, small_config(), opts);
  }
  return make_baseline(name, env, small_config());
}

/// A fresh environment over the shared source: every object a case builds
/// (the run, the restore target) sees identical clients.
struct World {
  explicit World(const data::Dataset& source, std::size_t clients)
      : rng(37), env(source, clients, 0.5, 0.25, rng) {}
  common::Rng rng;
  FlEnvironment env;
};

/// Stragglers past the deadline park in the buffer and commit one round
/// later, so a snapshot after any round holds the cohort parked in it.
RunOptions async_options() {
  RunOptions opts;
  opts.rounds = 3;
  opts.backend = "scalar";
  opts.checkpoint_every = 3;
  FaultConfig fc;
  fc.straggler_rate = 0.6;
  fc.slowdown_factor = 3.0;
  fc.round_deadline = 2.0;
  fc.seed = 515;
  opts.faults = fc;
  AsyncConfig ac;
  opts.async = ac;
  return opts;
}

/// Churn, deferred admission and retry give-ups under Krum: every optional
/// run/* entry is live at the round-3 snapshot.
RunOptions runner_options() {
  RunOptions opts = async_options();
  opts.checkpoint_every = 1;
  opts.sample_ratio = 1.0;
  opts.sampling_seed = 9;
  opts.faults.loss_rate = 0.4;
  opts.faults.straggler_rate = 0.9;
  opts.faults.byzantine_clients = {1, 1, 0, 0, 0, 0, 0, 0};
  opts.faults.attack_kind = AttackKind::kScale;
  opts.faults.attack_scale = 5.0;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kKrum;
  rc.krum_f = 1;
  rc.retry.max_retries = 0;
  opts.resilience = rc;
  ChurnConfig cc;
  cc.initial_fraction = 0.75;
  cc.join_rate = 0.4;
  cc.leave_rate = 0.2;
  cc.return_rate = 0.5;
  cc.seed = 99;
  opts.churn = cc;
  opts.admission.max_participants = 3;
  opts.admission.policy = AdmissionPolicy::kDefer;
  return opts;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t digest(const RunCheckpoint& ckpt) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& e : ckpt.entries) {
    h = fnv1a(h, e.name.data(), e.name.size());
    h = fnv1a(h, e.value.data(), e.value.numel() * sizeof(float));
  }
  return h;
}

std::string row(const std::string& name, const RunCheckpoint& ckpt) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "{\"%s\", 0x%016" PRIx64 "ULL, %zu},",
                name.c_str(), digest(ckpt), ckpt.entries.size());
  return buf;
}

void expect_golden(const std::string& name, const RunCheckpoint& ckpt) {
  const Golden* want = nullptr;
  for (const auto& g : goldens()) {
    if (name == g.name) want = &g;
  }
  const std::string observed = row(name, ckpt);
  ASSERT_NE(want, nullptr) << "no golden row; observed:\n" << observed;
  EXPECT_EQ(digest(ckpt), want->digest) << observed;
  EXPECT_EQ(ckpt.entries.size(), want->entries) << observed;
}

class CheckpointGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(CheckpointGolden, RoundThreeSnapshotMatchesRecordedBytes) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden float digests are recorded for x86-64";
#endif
  const std::string algo_name = GetParam();
  const bool local_only = algo_name == "local-only";
  const auto source = small_source();
  World world(source, 4);
  auto algo = make_algorithm(algo_name, world.env);
  RunOptions opts = async_options();
  if (local_only) {
    opts.faults = {};
    opts.async.reset();
  }
  const RunResult result = run_federated(*algo, opts);
  ASSERT_EQ(result.checkpoints_written, 1u);
  if (!local_only) {
    ASSERT_GT(result.buffered_remaining, 0u);
    ASSERT_NE(result.last_checkpoint.find("algo/async/n"), nullptr);
  }
  expect_golden(algo_name, result.last_checkpoint);

  // save -> load into a fresh algorithm -> save: the same bytes.
  RunCheckpoint saved;
  algo->save_state(saved);
  World fresh_world(source, 4);
  auto fresh = make_algorithm(algo_name, fresh_world.env);
  fresh->load_state(saved);
  RunCheckpoint again;
  fresh->save_state(again);
  EXPECT_EQ(row(algo_name, again), row(algo_name, saved));
}

std::string case_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& ch : name) {
    if (ch == '+' || ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Algorithms, CheckpointGolden,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "fedavgm", "fedadam",
                                           "fedavg+topk", "fedavg+int8",
                                           "local-only", "spatl"),
                         case_name);

TEST(CheckpointGoldenRunner, EveryOptionalRunEntryMatchesRecordedBytes) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden float digests are recorded for x86-64";
#endif
  const auto source = small_source();
  World world(source, 8);
  auto algo = make_algorithm("fedavg", world.env);
  const RunResult full = run_federated(*algo, runner_options());
  const RunCheckpoint& ckpt = full.last_checkpoint;
  for (const char* key :
       {"algo/async/n", "run/admission_carryover", "run/churn/cursor",
        "run/giveups"}) {
    EXPECT_NE(ckpt.find(key), nullptr) << key;
  }
  expect_golden("runner", ckpt);

  // The runner's restore path: a fresh algorithm resumed from the round-2
  // snapshot saves the straight run's round-3 snapshot byte for byte.
  World half_world(source, 8);
  auto first = make_algorithm("fedavg", half_world.env);
  RunOptions leg1 = runner_options();
  leg1.rounds = 2;
  const RunResult half = run_federated(*first, leg1);
  World fresh_world(source, 8);
  auto second = make_algorithm("fedavg", fresh_world.env);
  RunOptions leg2 = runner_options();
  leg2.resume = &half.last_checkpoint;
  const RunResult resumed = run_federated(*second, leg2);
  EXPECT_EQ(row("runner", resumed.last_checkpoint), row("runner", ckpt));
}

}  // namespace
}  // namespace spatl::fl
