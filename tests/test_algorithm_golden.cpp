// Golden characterization of every algorithm the CLI exposes.
//
// Each case runs three rounds on the scalar backend and pins
//   - an FNV-1a digest of the global weights followed by the global BN
//     running statistics,
//   - the ledger's total bytes,
//   - per_client_accuracy().
// The table was recorded before the algorithms moved onto the shared
// client-round skeleton, so every restructuring of the round loop must
// reproduce it float for float: the clean path of all ten algorithms, and
// the defended paths (faults + Byzantine scaling under a coordinate median;
// semi-async stragglers under the weighted mean and under the median) of the
// five that honoured them at the time. On a
// mismatch the failure message prints the observed row in table syntax.
//
// Float rounding is pinned for x86-64 builds only.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"

namespace spatl::fl {
namespace {

struct Golden {
  const char* algo;
  const char* scenario;
  std::uint64_t digest;
  double total_bytes;
  std::vector<double> accuracy;
};

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> table = {
      {"fedavg", "clean", 0x7614bf8ce3b293feULL, 1289664,
       {0.18181818181818182, 0.20000000000000001, 0.40000000000000002, 0.29629629629629628}},
      {"fedprox", "clean", 0x010f2d7a47746e00ULL, 1289664,
       {0.18181818181818182, 0.23333333333333334, 0.40000000000000002, 0.29629629629629628}},
      {"fednova", "clean", 0x0435d93889b8e8ccULL, 1934496,
       {0.22727272727272727, 0.13333333333333333, 0.34999999999999998, 0.18518518518518517}},
      {"scaffold", "clean", 0xadc85cceead1c346ULL, 2579328,
       {0.18181818181818182, 0.20000000000000001, 0.34999999999999998, 0.22222222222222221}},
      {"fedavgm", "clean", 0xcb13decb5d46b394ULL, 1289664,
       {0.22727272727272727, 0.20000000000000001, 0.34999999999999998, 0.37037037037037035}},
      {"fedadam", "clean", 0x2861005116460fc5ULL, 1289664,
       {0.18181818181818182, 0.066666666666666666, 0.25, 0.25925925925925924}},
      {"fedavg+topk", "clean", 0xf9473d80c6169ce6ULL, 773760,
       {0.13636363636363635, 0.29999999999999999, 0.25, 0.40740740740740738}},
      {"fedavg+int8", "clean", 0x6f3c71fb3c08e5c9ULL, 806088,
       {0.18181818181818182, 0.20000000000000001, 0.29999999999999999, 0.29629629629629628}},
      {"local-only", "clean", 0x5d085976fdc59147ULL, 0,
       {0.36363636363636365, 0.40000000000000002, 0.40000000000000002, 0.29629629629629628}},
      {"spatl", "clean", 0xda2989d410396632ULL, 506244,
       {0.31818181818181818, 0.29999999999999999, 0.40000000000000002, 0.33333333333333331}},
      {"fedavg", "faulty", 0xc5046ee2f58eedbfULL, 913512,
       {0.090909090909090912, 0.13333333333333333, 0.14999999999999999, 0.37037037037037035}},
      {"fedprox", "faulty", 0xaddcea676586ff25ULL, 913512,
       {0.090909090909090912, 0.13333333333333333, 0.20000000000000001, 0.37037037037037035}},
      {"fednova", "faulty", 0xa6a5eb8bd321c169ULL, 1450872,
       {0.090909090909090912, 0.066666666666666666, 0.14999999999999999, 0.29629629629629628}},
      {"scaffold", "faulty", 0xcd9455f3e2a2d535ULL, 1827024,
       {0.090909090909090912, 0.066666666666666666, 0.10000000000000001, 0.37037037037037035}},
      {"spatl", "faulty", 0x7d994bda166fc683ULL, 311224,
       {0.36363636363636365, 0.23333333333333334, 0.40000000000000002, 0.33333333333333331}},
      {"fedavg", "async", 0x8e2b6954d1d01068ULL, 1289664,
       {0.13636363636363635, 0.066666666666666666, 0.25, 0.14814814814814814}},
      {"fedprox", "async", 0x6df5eab9143c1d67ULL, 1289664,
       {0.13636363636363635, 0.066666666666666666, 0.14999999999999999, 0.14814814814814814}},
      {"fednova", "async", 0xff5504968629f3cfULL, 1934496,
       {0.18181818181818182, 0.033333333333333333, 0.20000000000000001, 0.14814814814814814}},
      {"scaffold", "async", 0x51c4866fb3f587d4ULL, 2579328,
       {0.13636363636363635, 0.066666666666666666, 0.20000000000000001, 0.1111111111111111}},
      {"spatl", "async", 0x89977f64881efcb8ULL, 506244,
       {0.31818181818181818, 0.20000000000000001, 0.34999999999999998, 0.37037037037037035}},
      {"fedavg", "async-median", 0x0856c771ce096c62ULL, 1289664,
       {0.22727272727272727, 0.033333333333333333, 0.14999999999999999, 0.1111111111111111}},
      {"fedprox", "async-median", 0x30bf7b5ff14678c3ULL, 1289664,
       {0.22727272727272727, 0.033333333333333333, 0.14999999999999999, 0.1111111111111111}},
      {"fednova", "async-median", 0xee0c70dcb442b7b3ULL, 1934496,
       {0.18181818181818182, 0.066666666666666666, 0.25, 0.037037037037037035}},
      {"scaffold", "async-median", 0xd8dd6a23ff467a6dULL, 2579328,
       {0.31818181818181818, 0.066666666666666666, 0.20000000000000001, 0.037037037037037035}},
      {"spatl", "async-median", 0x7e76319422107462ULL, 506244,
       {0.27272727272727271, 0.26666666666666666, 0.40000000000000002, 0.37037037037037035}},
  };
  return table;
}

struct Case {
  const char* algo;
  const char* scenario;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const char* algo :
       {"fedavg", "fedprox", "fednova", "scaffold", "fedavgm", "fedadam",
        "fedavg+topk", "fedavg+int8", "local-only", "spatl"}) {
    out.push_back({algo, "clean"});
  }
  for (const char* scenario : {"faulty", "async", "async-median"}) {
    for (const char* algo :
         {"fedavg", "fedprox", "fednova", "scaffold", "spatl"}) {
      out.push_back({algo, scenario});
    }
  }
  return out;
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

RunOptions scenario_options(const std::string& scenario) {
  RunOptions opts;
  opts.rounds = 3;
  opts.backend = "scalar";
  if (scenario == "faulty") {
    FaultConfig fc;
    fc.dropout_rate = 0.25;
    fc.loss_rate = 0.3;
    fc.byzantine_clients = {1, 0, 0, 0};
    fc.attack_kind = AttackKind::kScale;
    fc.attack_scale = 2.0;
    fc.seed = 400;
    opts.faults = fc;
    ResilienceConfig rc;
    rc.aggregator = AggregatorKind::kCoordinateMedian;
    opts.resilience = rc;
  } else if (scenario.rfind("async", 0) == 0) {
    FaultConfig fc;
    fc.straggler_rate = 0.6;
    fc.slowdown_factor = 3.0;
    fc.round_deadline = 2.0;
    fc.seed = 515;
    opts.faults = fc;
    AsyncConfig ac;
    ac.stale_weight = 0.5;
    ac.max_lag = 4;
    opts.async = ac;
    if (scenario == "async-median") {
      ResilienceConfig rc;
      rc.aggregator = AggregatorKind::kCoordinateMedian;
      opts.resilience = rc;
    }
  }
  return opts;
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<float>& v) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string row(const Case& c, std::uint64_t digest, double bytes,
                const std::vector<double>& acc) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "{\"%s\", \"%s\", 0x%016" PRIx64
                "ULL, %.17g,\n {", c.algo, c.scenario, digest, bytes);
  std::string out = buf;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", acc[i]);
    out += buf;
  }
  return out + "}},";
}

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.algo << "/" << c.scenario;
}

class AlgorithmGolden : public ::testing::TestWithParam<Case> {};

TEST_P(AlgorithmGolden, ThreeRoundsMatchRecordedDigest) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden float digests are recorded for x86-64";
#endif
  const Case c = GetParam();
  const auto source = small_source();
  common::Rng rng(37);
  FlEnvironment env(source, 4, 0.5, 0.25, rng);
  auto algo = make_algorithm(c.algo, env);
  const RunResult result = run_federated(*algo, scenario_options(c.scenario));
  if (std::string(c.scenario) == "faulty") {
    EXPECT_GT(result.total("attacked"), 0u);
    EXPECT_GT(result.total("dropped"), 0u);
  } else if (std::string(c.scenario) != "clean") {
    EXPECT_GT(result.total("late_commits"), 0u);
  }

  auto& global = algo->global_model();
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  digest = fnv1a(digest, nn::flatten_values(global.all_params()));
  digest = fnv1a(digest, flatten_bn_stats(global));
  const double bytes = algo->ledger().total_bytes();
  const std::vector<double> acc = algo->per_client_accuracy();

  const Golden* want = nullptr;
  for (const auto& g : goldens()) {
    if (std::string(g.algo) == c.algo && std::string(g.scenario) == c.scenario) {
      want = &g;
    }
  }
  const std::string observed = row(c, digest, bytes, acc);
  ASSERT_NE(want, nullptr) << "no golden row; observed:\n" << observed;
  EXPECT_EQ(digest, want->digest) << observed;
  EXPECT_EQ(bytes, want->total_bytes) << observed;
  EXPECT_EQ(acc, want->accuracy) << observed;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = std::string(info.param.algo) + "_" + info.param.scenario;
  for (char& ch : name) {
    if (ch == '+' || ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AlgorithmGolden,
                         ::testing::ValuesIn(cases()), case_name);

}  // namespace
}  // namespace spatl::fl
