// Shared experiment harness for the paper-reproduction benches.
//
// Every bench binary reproduces one table or figure: it builds the same
// federation (synthetic non-IID data, scaled models), runs the requested
// algorithms, prints the paper's row/series schema to stdout, and writes a
// CSV next to the binary. Scale is CPU-sized by default; set
// SPATL_BENCH_SCALE=large for longer runs on beefier machines.
#pragma once

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "core/spatl.hpp"
#include "core/transfer.hpp"
#include "data/synthetic.hpp"
#include "fl/runner.hpp"
#include "models/split_model.hpp"
#include "nn/module.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spatl::bench {

// --- shared telemetry sink -------------------------------------------------
//
// Every bench binary constructs one TelemetryScope from argv; run_algorithm
// attaches the process-wide sink to each federated run. Flags (all
// optional, telemetry is off without them):
//   --trace-out FILE        enable the tracer, write Chrome trace JSON on exit
//   --metrics-out FILE      per-round JSONL telemetry + final registry record
//   --telemetry-every N     emit every Nth round only (default 1)

inline obs::JsonlWriter* g_telemetry_sink = nullptr;
inline std::size_t g_telemetry_every = 1;

class TelemetryScope {
 public:
  TelemetryScope(int argc, char** argv) {
    std::string metrics_path;
    for (int i = 1; i + 1 < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace-out") {
        trace_path_ = argv[++i];
      } else if (arg == "--metrics-out") {
        metrics_path = argv[++i];
      } else if (arg == "--telemetry-every") {
        g_telemetry_every = std::max(1L, std::atol(argv[++i]));
      }
    }
    if (!trace_path_.empty()) obs::Tracer::instance().set_enabled(true);
    if (!metrics_path.empty()) {
      writer_ = std::make_unique<obs::JsonlWriter>(metrics_path);
      g_telemetry_sink = writer_.get();
    }
  }

  ~TelemetryScope() {
    // Exporters must never take a bench down: telemetry is observation.
    try {
      if (writer_ != nullptr) {
        obs::JsonObject rec;
        rec.add("type", "metrics")
            .add_raw("metrics",
                     obs::metrics_object(
                         obs::MetricsRegistry::instance().snapshot())
                         .str());
        writer_->write(rec);
        common::log_info("telemetry: ", writer_->lines(), " records -> ",
                         writer_->path());
        g_telemetry_sink = nullptr;
        writer_.reset();
      }
      if (!trace_path_.empty()) {
        obs::write_chrome_trace(obs::Tracer::instance(), trace_path_);
        common::log_info("trace: ", trace_path_);
        obs::Tracer::instance().set_enabled(false);
      }
    } catch (const std::exception& e) {
      common::log_error("telemetry export failed: ", e.what());
    }
  }

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  std::unique_ptr<obs::JsonlWriter> writer_;
  std::string trace_path_;
};

struct BenchScale {
  std::size_t samples_per_client = 80;
  std::size_t rounds = 10;
  std::size_t local_epochs = 2;
  std::size_t eval_every = 2;
  std::size_t input_size = 10;
  std::size_t batch_size = 16;
  double width_mult = 0.25;
  double lr = 0.05;
};

inline BenchScale bench_scale() {
  BenchScale s;
  const char* env = std::getenv("SPATL_BENCH_SCALE");
  if (env != nullptr && std::string(env) == "large") {
    s.samples_per_client = 400;
    s.rounds = 60;
    s.local_epochs = 10;
    s.eval_every = 2;
    s.input_size = 16;
    s.batch_size = 32;
    s.width_mult = 0.5;
  }
  return s;
}

/// SynthCIFAR sized for the federation ("cifar" domain) or SynthFEMNIST
/// ("femnist"). Total samples grow with the client count so each client
/// keeps a fixed-size shard, as the Non-IID benchmark does.
inline data::Dataset make_source(const std::string& domain,
                                 std::size_t num_clients,
                                 const BenchScale& s,
                                 std::uint64_t seed = 42) {
  data::SyntheticConfig cfg;
  cfg.num_samples = num_clients * s.samples_per_client;
  cfg.image_size = s.input_size;
  cfg.noise_stddev = 0.25f;
  cfg.seed = seed;
  if (domain == "femnist") {
    cfg.num_classes = 20;  // scaled-down LEAF class space
    return data::make_synth_femnist(cfg);
  }
  return data::make_synth_cifar(cfg);
}

inline fl::FlConfig make_fl_config(const std::string& arch,
                                   const std::string& domain,
                                   const BenchScale& s,
                                   std::uint64_t seed = 42) {
  fl::FlConfig cfg;
  cfg.model.arch = arch;
  cfg.model.input_size = s.input_size;
  cfg.model.width_mult = s.width_mult;
  if (domain == "femnist") {
    cfg.model.in_channels = 1;
    cfg.model.num_classes = 20;
  }
  cfg.local.epochs = s.local_epochs;
  cfg.local.batch_size = s.batch_size;
  cfg.local.lr = s.lr;
  cfg.seed = seed;
  return cfg;
}

inline core::SpatlOptions default_spatl_options() {
  core::SpatlOptions opts;
  opts.flops_budget = 0.7;
  opts.agent_finetune_rounds = 2;
  opts.agent_finetune_episodes = 2;
  return opts;
}

/// One federated run of a named algorithm ("fedavg", ..., "spatl").
struct AlgoRun {
  std::string algorithm;
  fl::RunResult result;
  double uplink_bytes = 0.0;
  double downlink_bytes = 0.0;
  double retransmitted_bytes = 0.0;  // retry-path share of uplink_bytes
  double avg_round_client_bytes = 0.0;  // measured (up+down)/(rounds*participants)
  std::vector<double> client_flops_ratios;  // spatl only
  std::vector<double> client_sparsities;    // spatl only
  std::vector<double> per_client_accuracy;
  std::vector<float> final_weights;  // only with RunSpec::capture_weights
  std::size_t crashes = 0;  // restarts run for RunSpec::crash_at_rounds
};

struct RunSpec {
  std::string arch = "resnet20";
  std::string domain = "cifar";
  std::size_t num_clients = 10;
  double sample_ratio = 1.0;
  double beta = 0.3;  // calibrated: synthetic task is easier than CIFAR, see EXPERIMENTS.md
  std::optional<double> target_accuracy;
  std::size_t rounds_override = 0;  // 0 = use scale default
  bool capture_per_client = false;
  /// Fault injection for resilience benches (clean run when unset) and the
  /// server's defenses (defaults: non-finite rejection, weighted mean).
  std::optional<fl::FaultConfig> faults;
  fl::ResilienceConfig resilience;
  /// Semi-async straggler commit (bench_async); unset = synchronous policy.
  std::optional<fl::AsyncConfig> async;
  /// Elastic membership (bench_churn); unset = static population.
  std::optional<fl::ChurnConfig> churn;
  /// Per-round admission budget (bench_churn); unlimited by default.
  fl::AdmissionConfig admission;
  /// Crash drills (bench_chaos): the run stops at the end of each of these
  /// rounds, the algorithm is dropped, and a freshly built one resumes from
  /// the durable store (or the last in-memory checkpoint without one).
  std::vector<std::size_t> crash_at_rounds;
  /// Checkpoint cadence (0 = off); required for the drills to have
  /// anything durable to recover from.
  std::size_t checkpoint_every = 0;
  /// Durable generational checkpoint store (bench_chaos); unset = legacy
  /// in-memory failover only.
  std::optional<fl::store::StoreConfig> ckpt_store;
  /// Storage IO hook — bench_chaos points this at a FaultyStoreIo to tear
  /// and corrupt the store's writes. Borrowed; null = real filesystem.
  fl::store::StoreIo* store_io = nullptr;
  /// Capture the final global weights into AlgoRun::final_weights (the
  /// chaos bench memcmps crashed runs against their uncrashed twins).
  bool capture_weights = false;
};

// --- shared resilience-bench baseline -------------------------------------
//
// The fault-tolerance and Byzantine benches must run the SAME federation
// (architecture, client count, participation, fault seed) so their rows are
// comparable across binaries and a re-run replays the identical fault
// schedule. Construct configs through these builders instead of inlining
// them per bench.

/// Fixed fault seed for every resilience bench (re-seeding by convention).
inline constexpr std::uint64_t kResilienceFaultSeed = 0xFA17ULL;

/// ResNet-20, 12 clients, 75% participation per round.
inline RunSpec make_resilience_spec() {
  RunSpec spec;
  spec.arch = "resnet20";
  spec.num_clients = 12;
  spec.sample_ratio = 0.75;
  return spec;
}

/// Fault model seeded by convention; rates start at zero — set only what the
/// bench sweeps.
inline fl::FaultConfig make_resilience_faults() {
  fl::FaultConfig fc;
  fc.seed = kResilienceFaultSeed;
  return fc;
}

/// Server defenses every resilience bench runs with: NaN/Inf validation,
/// two retries, quorum of two.
inline fl::ResilienceConfig make_resilience_defenses() {
  fl::ResilienceConfig rc;
  rc.validate_updates = true;
  rc.retry.max_retries = 2;
  rc.min_quorum = 2;
  return rc;
}

inline AlgoRun run_algorithm(const std::string& algo, const RunSpec& spec,
                             const BenchScale& s,
                             const core::SpatlOptions& spatl_opts,
                             const rl::PpoAgent* pretrained = nullptr,
                             std::uint64_t seed = 42) {
  const data::Dataset source =
      make_source(spec.domain, spec.num_clients, s, seed);
  common::Rng env_rng(seed ^ 0xE47ULL);
  fl::FlEnvironment env(source, spec.num_clients, spec.beta,
                        /*val_fraction=*/0.25, env_rng);
  fl::FlConfig cfg = make_fl_config(spec.arch, spec.domain, s, seed);

  const auto build = [&]() -> std::unique_ptr<fl::FederatedAlgorithm> {
    if (algo == "spatl") {
      return std::make_unique<core::SpatlAlgorithm>(env, cfg, spatl_opts,
                                                    pretrained);
    }
    return fl::make_baseline(algo, env, cfg);
  };

  // One initializer: each optional config is copy-constructed in place,
  // never default-built and then assigned.
  fl::RunOptions ro{
      .rounds = spec.rounds_override > 0 ? spec.rounds_override : s.rounds,
      .sample_ratio = spec.sample_ratio,
      .eval_every = s.eval_every,
      .backend = {},
      .target_accuracy = spec.target_accuracy,
      .faults = spec.faults,
      .resilience = spec.resilience,
      .async = spec.async,
      .churn = spec.churn,
      .admission = spec.admission,
      .escalation = {},
      .checkpoint_every = spec.checkpoint_every,
      .ckpt_store = spec.ckpt_store,
      .store_io = spec.store_io,
      .telemetry = g_telemetry_sink,
      .telemetry_every = g_telemetry_every,
  };

  // Crash drills run the way a real crash happens: each segment runs to its
  // crash round and is dropped; the next builds a fresh algorithm and
  // resumes from the store, or from the previous segment's last checkpoint.
  AlgoRun run;
  run.algorithm = algo;
  const std::size_t rounds = ro.rounds;
  std::unique_ptr<fl::FederatedAlgorithm> algorithm;
  fl::RunResult previous;
  std::size_t commits = 0, commit_failures = 0, recoveries = 0, rejected = 0;
  for (std::size_t k = 0; k <= spec.crash_at_rounds.size(); ++k) {
    const bool last = k == spec.crash_at_rounds.size();
    ro.rounds = last ? rounds : spec.crash_at_rounds[k];
    if (k > 0) {
      ro.resume_from_store = ro.ckpt_store.has_value();
      ro.resume = ro.ckpt_store ? nullptr : &previous.last_checkpoint;
    }
    algorithm = build();
    fl::RunResult seg = fl::run_federated(*algorithm, ro);
    commits += seg.store_commits;
    commit_failures += seg.store_commit_failures;
    recoveries += seg.recoveries_from_store;
    rejected += seg.recovery_attempts_failed;
    previous = std::move(seg);
  }
  // The last segment's result carries the whole run's checkpointed totals
  // (its history starts where it resumed); store activity is per segment.
  run.crashes = spec.crash_at_rounds.size();
  run.result = std::move(previous);
  run.result.store_commits = commits;
  run.result.store_commit_failures = commit_failures;
  run.result.recoveries_from_store = recoveries;
  run.result.recovery_attempts_failed = rejected;
  run.uplink_bytes = run.result.comm.uplink;
  run.downlink_bytes = run.result.comm.downlink;
  run.retransmitted_bytes = run.result.comm.retransmitted;
  const double participants =
      std::max(1.0, std::ceil(spec.sample_ratio * double(spec.num_clients)));
  const double effective_rounds =
      double(run.result.rounds_to_target.value_or(rounds));
  run.avg_round_client_bytes =
      (run.uplink_bytes + run.downlink_bytes) /
      (participants * std::max(1.0, effective_rounds));
  if (const auto* spatl_ptr =
          dynamic_cast<const core::SpatlAlgorithm*>(algorithm.get())) {
    run.client_flops_ratios = spatl_ptr->client_flops_ratios();
    run.client_sparsities = spatl_ptr->client_sparsities();
  }
  if (spec.capture_per_client) {
    run.per_client_accuracy = algorithm->per_client_accuracy();
  }
  if (spec.capture_weights) {
    run.final_weights = nn::flatten_values(algorithm->global_model().all_params());
  }
  return run;
}

/// Pre-train the salient-selection agent once per bench process (the
/// paper's ResNet-56 pruning pre-training, scaled).
inline const rl::PpoAgent& shared_pretrained_agent() {
  static core::PretrainResult result = [] {
    core::PretrainConfig pc;
    pc.arch = "resnet56";
    pc.input_size = 10;
    pc.width_mult = 0.25;
    pc.warmup_epochs = 1;
    pc.rl_rounds = 6;
    pc.episodes_per_round = 3;
    pc.train_samples = 300;
    pc.val_samples = 120;
    common::log_info("pre-training salient selection agent (ResNet-56)...");
    return core::pretrain_selection_agent(pc);
  }();
  return result.agent;
}

/// Analytic full-scale (paper-sized) per-round/client bytes for an
/// algorithm, given the measured salient fraction for SPATL. Used to report
/// the Table I/II "Round/Client" column at the paper's model sizes.
inline double full_scale_round_client_bytes(const std::string& algo,
                                            const std::string& arch,
                                            double spatl_selected_fraction) {
  common::Rng rng(1);
  models::ModelConfig cfg;
  cfg.arch = arch;
  cfg = cfg.full_scale();
  models::SplitModel m = models::build_model(cfg, rng);
  const double enc = double(m.encoder_param_count());
  const double full = enc + double(m.predictor_param_count());
  const double B = 4.0;
  if (algo == "fedavg" || algo == "fedprox") return 2.0 * full * B;
  if (algo == "fednova") return 3.0 * full * B;   // up is 2x (update + norm state)
  if (algo == "scaffold") return 4.0 * full * B;  // both directions 2x
  // SPATL: down = enc + control; up = selected (values + control delta) +
  // channel indices (negligible).
  return (2.0 * enc + 2.0 * spatl_selected_fraction * enc) * B;
}

inline std::string csv_path(const std::string& bench_name) {
  return bench_name + ".csv";
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace spatl::bench
