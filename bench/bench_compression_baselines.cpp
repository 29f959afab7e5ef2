// Extension experiment — SPATL vs classic update-compression baselines.
//
// The paper positions salient selection against gradient sparsification /
// quantization approaches (related work [37], [53]) without a head-to-head;
// this bench provides one: identical federations trained with FedAvg,
// FedAvg+top-k, FedAvg+int8, server-side adaptive FedAvgM/FedAdam, and
// SPATL, comparing final accuracy against total communicated bytes.
//
// Expected shape: codecs cut bytes but (a) pay accuracy under non-IID skew
// and (b) do nothing about heterogeneity; SPATL cuts bytes AND keeps the
// per-client accuracy benefits of its local predictors.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"

using namespace spatl;
using namespace spatl::bench;

int main(int argc, char** argv) {
  TelemetryScope telemetry(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  const BenchScale scale = bench_scale();
  const std::size_t clients = 10;

  common::CsvWriter csv(csv_path("bench_compression_baselines"),
                        {"algorithm", "final_accuracy", "best_accuracy",
                         "uplink_bytes", "total_bytes"});

  print_header(
      "Extension: SPATL vs update-compression baselines (bytes vs accuracy)");
  std::printf("%-14s %10s %10s %12s %12s\n", "method", "final", "best",
              "uplink", "total");

  const data::Dataset source = make_source("cifar", clients, scale);
  fl::FlConfig cfg = make_fl_config("resnet20", "cifar", scale);
  const rl::PpoAgent& agent = shared_pretrained_agent();

  auto report = [&](fl::FederatedAlgorithm& algo) {
    fl::RunOptions ro;
    ro.rounds = scale.rounds;
    ro.eval_every = scale.eval_every;
    const auto result = fl::run_federated(algo, ro);
    std::printf("%-14s %9.1f%% %9.1f%% %12s %12s\n", algo.name().c_str(),
                result.final_accuracy * 100.0,
                result.best_accuracy * 100.0,
                common::format_bytes(algo.ledger().uplink_bytes()).c_str(),
                common::format_bytes(result.comm.total()).c_str());
    csv.row_values(algo.name(), result.final_accuracy, result.best_accuracy,
                   algo.ledger().uplink_bytes(), result.comm.total());
  };

  auto fresh_env = [&]() {
    common::Rng rng(42 ^ 0xE47ULL);
    return fl::FlEnvironment(source, clients, 0.3, 0.25, rng);
  };

  for (const char* name :
       {"fedavg", "fedavg+topk", "fedavg+int8", "fedavgm", "fedadam"}) {
    auto env = fresh_env();
    report(*fl::make_baseline(name, env, cfg));
  }
  {
    auto env = fresh_env();
    core::SpatlAlgorithm algo(env, cfg, default_spatl_options(), &agent);
    report(algo);
  }
  std::printf("\nCSV written to %s\n",
              csv_path("bench_compression_baselines").c_str());
  return 0;
}
