// bench_round — one workload of the round-level benchmark (bench/round/).
//
//   bench_round --workload NAME [--seed S] [--warmup W] [--rounds M]
//               [--setups K] [--workdir DIR]
//               [--trace 0|1] [--probe-steps N]
//
// Builds the workload's federation from the seed through the public src/
// APIs only, runs W warm-up rounds (excluded: they fill lazy per-client
// state) and M measured rounds through fl::run_federated, and times every
// round from outside through the RoundCallback (evaluation runs every
// round). Set-up — data synthesis, partition, model and algorithm
// construction, thread-pool start, store directory — is repeated K times and
// each repetition is timed. Every round's output is checked; the run prints
// one JSON object on stdout, which bench/round/run.py aggregates.
//
// With --trace 1 the same rounds run twice from fresh set-ups: untraced,
// then with obs::Tracer on. The traced pass must end bit-identical to the
// untraced one. Bench-side probes then call each module's public functions
// under obs::TraceSpans, and the trace is reduced to the per-layer ledger
// ("layers" in the JSON; "detail" holds the workload-specific extras).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/spatl.hpp"
#include "data/loader.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"
#include "graph/compute_graph.hpp"
#include "nn/module.hpp"
#include "nn/pool.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prune/flops.hpp"
#include "rl/ppo.hpp"
#include "rl/pruning_env.hpp"
#include "tensor/ops.hpp"

namespace {

namespace fs = std::filesystem;
using namespace spatl;
using tensor::Tensor;

// ------------------------------------------------------------ workloads ----

struct Workload {
  const char* name;
  const char* backend;
  const char* arch;
  bool spatl;             // SPATL with selection, transfer, gradient control
  bool femnist;           // 1-channel, 20-class FEMNIST stand-in
  bool median;            // coordinate-median aggregation with validation
  bool store;             // durable-store commit every round
  std::size_t clients;
  std::size_t samples_per_client;
  std::size_t per_round;  // participants per round
  std::size_t epochs;     // local epochs
};

// Why each workload exists is recorded in bench/round/README.md.
const Workload kWorkloads[] = {
    {"resnet20-simd", "cpu-simd", "resnet20", false, false, false, false, 10,
     80, 2, 2},
    {"resnet20-scalar", "scalar", "resnet20", false, false, false, false, 10,
     80, 2, 2},
    {"spatl-resnet20", "cpu-simd", "resnet20", true, false, false, false, 8,
     80, 4, 1},
    {"cnn2-crossdevice", "cpu-simd", "cnn2", false, true, true, true, 256, 20,
     64, 1},
};

// Shared by every workload.
constexpr std::size_t kInputSize = 12;
constexpr double kWidth = 0.25;
constexpr std::size_t kBatch = 16;
constexpr double kLr = 0.05;
constexpr double kBeta = 0.5;
constexpr double kValFraction = 0.25;
constexpr double kFlopsBudget = 0.6;
constexpr std::size_t kFinetuneEpisodes = 2;
// Kernel threads, counting the thread that submits the work (it drains its
// own batches). One thread halves the run-to-run spread on a shared host;
// bench/round/README.md has the measurements.
constexpr std::size_t kThreads = 1;
// Rounds after which every workload's accuracy must exceed 1.5 x chance;
// shorter (smoke) runs are too short to learn and skip that check.
constexpr std::size_t kLearnRounds = 30;

std::size_t num_classes(const Workload& w) { return w.femnist ? 20 : 10; }

fl::FlConfig make_config(const Workload& w, std::uint64_t seed) {
  fl::FlConfig cfg;
  cfg.model.arch = w.arch;
  cfg.model.input_size = kInputSize;
  cfg.model.width_mult = kWidth;
  if (w.femnist) {
    cfg.model.in_channels = 1;
    cfg.model.num_classes = 20;
  }
  cfg.local.epochs = w.epochs;
  cfg.local.batch_size = kBatch;
  cfg.local.lr = kLr;
  cfg.seed = seed;
  return cfg;
}

/// Everything one run needs; built (and timed) by make_federation.
struct Federation {
  std::unique_ptr<common::ThreadPool> pool;
  std::unique_ptr<fl::FlEnvironment> env;
  std::unique_ptr<fl::FederatedAlgorithm> algo;
  fl::RunOptions options;
};

Federation make_federation(const Workload& w, std::uint64_t seed,
                           std::size_t rounds,
                           const fs::path& store_dir) {
  Federation f;
  f.pool = std::make_unique<common::ThreadPool>(kThreads - 1);

  data::SyntheticConfig dc;
  dc.num_samples = w.clients * w.samples_per_client;
  dc.image_size = kInputSize;
  dc.seed = seed;
  data::Dataset source;
  if (w.femnist) {
    dc.num_classes = 20;
    source = data::make_synth_femnist(dc);
  } else {
    source = data::make_synth_cifar(dc);
  }
  // Dirichlet(beta) label skew with equal shard sizes, so that the work of a
  // round does not depend on which clients the seed samples.
  common::Rng env_rng(seed ^ 0xE47ULL);
  data::LeafStyleOptions po;
  po.class_preference_alpha = kBeta;
  const data::PartitionResult partition =
      data::leaf_style_partition(source, w.clients, po, env_rng);
  f.env = std::make_unique<fl::FlEnvironment>(source, partition, kValFraction,
                                              env_rng);

  const fl::FlConfig cfg = make_config(w, seed);
  if (w.spatl) {
    core::SpatlOptions opts;
    opts.flops_budget = kFlopsBudget;
    // Fine-tune every round: a fine-tune/plain mix would make the round-time
    // distribution bimodal.
    opts.agent_finetune_rounds = std::numeric_limits<std::size_t>::max();
    opts.agent_finetune_episodes = kFinetuneEpisodes;
    f.algo = std::make_unique<core::SpatlAlgorithm>(*f.env, cfg, opts);
  } else {
    f.algo = fl::make_baseline("fedavg", *f.env, cfg);
  }

  f.options.rounds = rounds;
  f.options.sample_ratio = double(w.per_round) / double(w.clients);
  f.options.eval_every = 1;
  f.options.backend = w.backend;
  f.options.sampling_seed = seed ^ 0x5A3D1EULL;
  if (w.median) {
    fl::ResilienceConfig rc;
    rc.validate_updates = true;
    rc.aggregator = fl::AggregatorKind::kCoordinateMedian;
    f.options.resilience = rc;
  }
  if (w.store) {
    fs::remove_all(store_dir);
    fs::create_directories(store_dir);
    fl::store::StoreConfig sc;
    sc.dir = store_dir.string();
    sc.keep_last = 2;
    f.options.ckpt_store = sc;
    f.options.checkpoint_every = 1;
  }
  return f;
}

// ---------------------------------------------------------- measurement ----

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Digest of the final global weights and BN statistics.
std::uint64_t model_digest(models::SplitModel& model) {
  const std::vector<float> w = nn::flatten_values(model.all_params());
  const std::vector<float> bn = fl::flatten_bn_stats(model);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = fnv1a(h, w.data(), w.size() * sizeof(float));
  return fnv1a(h, bn.data(), bn.size() * sizeof(float));
}

std::uint64_t pool_counter(const char* name) {
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// One run_federated call, timed and checked round by round.
struct Pass {
  std::vector<double> wall_ms, cpu_ms;           // measured rounds
  std::vector<double> uplink_b, downlink_b;      // measured rounds
  std::size_t attempted = 0;
  std::set<std::size_t> failed_rounds;  // however many checks a round fails
  std::vector<std::string> errors;
  double final_accuracy = 0.0;
  std::uint64_t digest = 0;
  double pool_batches = 0.0, pool_chunks = 0.0;  // per measured round

  void fail(std::size_t round, const std::string& why) {
    failed_rounds.insert(round);
    errors.push_back("round " + std::to_string(round) + ": " + why);
  }
};

Pass run_pass(const Workload& w, Federation& fed, std::size_t warmup) {
  Pass pass;
  const common::ThreadPool::ScopedOverride pin(*fed.pool);
  fl::FederatedAlgorithm& algo = *fed.algo;
  const double chance = 1.0 / double(num_classes(w));
  // Exact for FedAvg: every participant downloads and uploads the dense
  // parameter vector once.
  const double fedavg_round_bytes =
      2.0 * 4.0 * double(nn::param_count(algo.global_model().all_params())) *
      double(w.per_round);

  common::Timer clock;
  double last_ms = 0.0;
  double last_cpu = process_cpu_seconds();
  fl::CommSnapshot last_comm = algo.ledger().snapshot();
  std::uint64_t batches0 = pool_counter("threadpool.batches");
  std::uint64_t chunks0 = pool_counter("threadpool.chunks");
  const auto on_round = [&](std::size_t round, const fl::RoundRecord& rec) {
    const double now_ms = clock.millis();
    const double cpu = process_cpu_seconds();
    const fl::CommSnapshot comm = algo.ledger().snapshot();
    const fl::CommSnapshot delta = comm.since(last_comm);
    ++pass.attempted;
    if (!std::isfinite(rec.avg_loss)) {
      pass.fail(round, "non-finite eval loss");
    }
    if (rec.stats.skipped) pass.fail(round, "round skipped");
    if (rec.stats.selected != w.per_round) {
      pass.fail(round, "wrong participant count");
    }
    if (!w.spatl && delta.total() != fedavg_round_bytes) {
      pass.fail(round, "ledger bytes " + std::to_string(delta.total()) +
                      " != 2 x params x 4 B x participants");
    }
    if (round == warmup) {
      batches0 = pool_counter("threadpool.batches");
      chunks0 = pool_counter("threadpool.chunks");
    }
    if (round > warmup) {
      pass.wall_ms.push_back(now_ms - last_ms);
      pass.cpu_ms.push_back((cpu - last_cpu) * 1e3);
      pass.uplink_b.push_back(delta.uplink);
      pass.downlink_b.push_back(delta.downlink);
    }
    last_ms = now_ms;
    last_cpu = cpu;
    last_comm = comm;
  };

  const fl::RunResult result = fl::run_federated(algo, fed.options, on_round);
  if (!pass.wall_ms.empty()) {
    const double n = double(pass.wall_ms.size());
    pass.pool_batches =
        double(pool_counter("threadpool.batches") - batches0) / n;
    pass.pool_chunks = double(pool_counter("threadpool.chunks") - chunks0) / n;
  }
  if (pass.attempted != fed.options.rounds) {
    pass.fail(pass.attempted,
              "run ended after " + std::to_string(pass.attempted) + " of " +
                  std::to_string(fed.options.rounds) + " rounds");
  }
  pass.final_accuracy = result.final_accuracy;
  if (fed.options.rounds >= kLearnRounds &&
      !(result.final_accuracy >= 1.5 * chance)) {
    pass.fail(fed.options.rounds,
              "final accuracy " + std::to_string(result.final_accuracy) +
                  " below 1.5 x chance");
  }
  pass.digest = model_digest(algo.global_model());
  return pass;
}

// --------------------------------------------------------------- tracing ---

/// Span names built at run time must outlive the tracer's event buffer.
const char* intern(const std::string& name) {
  static std::set<std::string> names;
  return names.insert(name).first->c_str();
}

struct SpanStat {
  double incl_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t calls = 0;
};

/// Per-name inclusive and self time (duration minus same-thread children)
/// over the events accepted by `keep`, which sees each event's root span.
template <typename Keep>
std::map<std::string, SpanStat> reduce_spans(
    const std::vector<obs::SpanEvent>& events, Keep keep) {
  std::vector<const obs::SpanEvent*> order;
  for (const auto& e : events) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->depth < b->depth;
  });
  std::vector<double> self(order.size());
  std::vector<std::size_t> root(order.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto* e = order[i];
    self[i] = double(e->dur_ns);
    while (!stack.empty() && (order[stack.back()]->tid != e->tid ||
                              order[stack.back()]->depth >= e->depth)) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      self[stack.back()] -= double(e->dur_ns);
      root[i] = root[stack.front()];
    } else {
      root[i] = i;
    }
    stack.push_back(i);
  }
  std::map<std::string, SpanStat> out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (!keep(*order[i], *order[root[i]])) continue;
    SpanStat& s = out[order[i]->name];
    s.incl_ns += double(order[i]->dur_ns);
    s.self_ns += self[i];
    ++s.calls;
  }
  return out;
}

/// Metrics in insertion order: {"name": {"value": v, "unit": u}, ...}.
struct Ledger {
  obs::JsonObject json;
  void add(const std::string& name, double value, const char* unit) {
    json.add_raw(name,
                 obs::JsonObject().add("value", value).add("unit", unit).str());
  }
};

double ms(double ns) { return ns / 1e6; }

// ---------------------------------------------------------------- probes ---
//
// Each probe wraps direct calls into one module's public functions in
// bench-side spans. Probe spans are roots, so their inclusive time is the
// cost of the call.

using Seq = nn::Sequential;

Tensor forward_children(Seq& seq, Tensor x) {
  for (const auto& child : seq.children()) {
    obs::TraceSpan span(intern("nn/fwd/" + child->type_name()));
    x = child->forward(x, /*train=*/true);
  }
  return x;
}

Tensor backward_children(Seq& seq, Tensor g) {
  const auto& children = seq.children();
  for (auto it = children.rbegin(); it != children.rend(); ++it) {
    obs::TraceSpan span(intern("nn/bwd/" + (*it)->type_name()));
    g = (*it)->backward(g);
  }
  return g;
}

double predictor_flops(Seq& predictor) {
  double flops = 0.0;
  for (const auto& child : predictor.children()) {
    if (const auto* lin = dynamic_cast<const nn::Linear*>(child.get())) {
      flops += 2.0 * double(lin->in_features()) * double(lin->out_features());
    }
  }
  return flops;
}

/// train_supervised's inner loop on one shard, one span per phase and per
/// child module. Returns the analytic FLOPs of all steps (forward plus a
/// backward of twice the forward cost).
double probe_train_step(models::SplitModel& model, const data::Dataset& shard,
                        std::size_t steps, std::uint64_t seed) {
  nn::Sgd opt(model.all_params(), {.lr = kLr, .momentum = 0.9});
  common::Rng rng(seed);
  data::DataLoader loader(shard, kBatch, rng);
  const double sample_flops =
      prune::dense_encoder_flops(model.layers()) +
      predictor_flops(model.predictor());
  double flops = 0.0;
  Tensor images;
  std::vector<int> labels;
  for (std::size_t s = 0; s < steps; ++s) {
    {
      obs::TraceSpan span("data/loader");
      if (!loader.next(images, labels)) {
        loader.reshuffle();
        loader.next(images, labels);
      }
    }
    obs::TraceSpan step("nn/step");
    {
      obs::TraceSpan span("nn/zero_grad");
      model.zero_grad();
    }
    Tensor logits;
    {
      obs::TraceSpan span("nn/forward");
      logits = forward_children(model.predictor(),
                                forward_children(model.encoder(), images));
    }
    Tensor dlogits;
    {
      obs::TraceSpan span("nn/loss");
      tensor::cross_entropy(logits, labels, &dlogits);
    }
    {
      obs::TraceSpan span("nn/backward");
      backward_children(model.encoder(),
                        backward_children(model.predictor(), dlogits));
    }
    {
      obs::TraceSpan span("nn/sgd");
      opt.step();
    }
    flops += 3.0 * sample_flops * double(labels.size());
  }
  return flops;
}

/// Padding that reproduces a recorded conv's output size.
std::size_t conv_pad(const models::LayerInfo& l) {
  return ((l.out_h - 1) * l.stride + l.kernel + 1 - l.in_h) / 2;
}

/// Standalone modules and raw kernels at every recorded layer shape of the
/// workload's model, `reps` passes over the layer list. Returns the FLOPs
/// of one GEMM per conv over all passes (each of the three GEMM variants,
/// and a conv forward, does this much work).
double probe_layers(models::SplitModel& model, std::size_t reps,
                    std::uint64_t seed) {
  common::Rng rng(seed);
  struct Op {
    const char* fwd_span;
    const char* bwd_span;
    std::shared_ptr<nn::Module> module;
    Tensor input, grad;
  };
  struct Gemm {
    Tensor cols, w, grows, image;
    tensor::Conv2dGeom geom;
  };
  std::vector<Op> ops;
  std::vector<Gemm> gemms;
  std::vector<std::pair<Tensor, Tensor>> adds;
  double conv_flops = 0.0;
  const auto op = [&](const char* fwd_span, const char* bwd_span,
                      std::shared_ptr<nn::Module> m, tensor::Shape in) {
    m->init_params(rng);
    Op o{fwd_span, bwd_span, std::move(m), Tensor::randn(in, rng), {}};
    o.grad = Tensor::randn(o.module->forward(o.input, true).shape(), rng);
    ops.push_back(std::move(o));
  };
  for (const auto& l : model.layers()) {
    const tensor::Shape in{kBatch, l.in_ch, l.in_h, l.in_w};
    switch (l.kind) {
      case models::LayerKind::kConv: {
        const std::size_t pad = conv_pad(l);
        op("op/conv.fwd", "op/conv.bwd",
           std::make_shared<nn::Conv2d>(l.in_ch, l.out_ch, l.kernel, l.stride,
                                        pad),
           in);
        const std::size_t m = kBatch * l.out_h * l.out_w;
        const std::size_t k = l.in_ch * l.kernel * l.kernel;
        const std::size_t n = l.out_ch;
        gemms.push_back({Tensor::randn({m, k}, rng), Tensor::randn({n, k}, rng),
                         Tensor::randn({m, n}, rng), Tensor::randn(in, rng),
                         tensor::Conv2dGeom{l.in_ch, l.in_h, l.in_w, l.kernel,
                                            l.stride, pad}});
        conv_flops += 2.0 * double(m) * double(n) * double(k);
        break;
      }
      case models::LayerKind::kBatchNorm:
        op("op/bn", "op/bn", std::make_shared<nn::BatchNorm2d>(l.out_ch), in);
        break;
      case models::LayerKind::kReLU:
        op("op/relu", "op/relu", std::make_shared<nn::ReLU>(), in);
        break;
      case models::LayerKind::kMaxPool:
        op("op/pool", "op/pool", std::make_shared<nn::MaxPool2d>(l.kernel),
           in);
        break;
      case models::LayerKind::kGlobalAvgPool:
        op("op/pool", "op/pool", std::make_shared<nn::GlobalAvgPool>(), in);
        break;
      case models::LayerKind::kAdd:
        adds.push_back({Tensor::randn(in, rng), Tensor::randn(in, rng)});
        break;
      case models::LayerKind::kDepthwiseConv:
      case models::LayerKind::kLinear:
        break;  // no workload encoder has one
    }
  }
  std::size_t width = 0;  // predictor activation width
  for (const auto& child : model.predictor().children()) {
    if (const auto* lin = dynamic_cast<const nn::Linear*>(child.get())) {
      op("op/linear", "op/linear",
         std::make_shared<nn::Linear>(lin->in_features(), lin->out_features()),
         {kBatch, lin->in_features()});
      width = lin->out_features();
    } else if (dynamic_cast<const nn::ReLU*>(child.get()) != nullptr) {
      op("op/relu", "op/relu", std::make_shared<nn::ReLU>(), {kBatch, width});
    }
  }

  Tensor out, dw, dcols, cols, dx;
  for (std::size_t r = 0; r < reps; ++r) {
    for (auto& o : ops) {
      {
        obs::TraceSpan span(o.fwd_span);
        o.module->forward(o.input, true);
      }
      obs::TraceSpan span(o.bwd_span);
      o.module->backward(o.grad);
    }
    for (auto& [a, b] : adds) {
      obs::TraceSpan span("op/add");
      a += b;  // the residual join
      a -= b;  // keeps the operands bounded across passes
    }
    for (auto& g : gemms) {
      {
        obs::TraceSpan span("tensor/gemm_nt");  // forward
        tensor::matmul_nt(g.cols, g.w, out);
      }
      {
        obs::TraceSpan span("tensor/gemm_tn");  // weight gradient
        tensor::matmul_tn(g.grows, g.cols, dw);
      }
      {
        obs::TraceSpan span("tensor/gemm_nn");  // input-column gradient
        tensor::matmul(g.grows, g.w, dcols);
      }
      {
        obs::TraceSpan span("tensor/im2col");
        tensor::im2col(g.image, g.geom, cols);
      }
      obs::TraceSpan span("tensor/col2im");
      tensor::col2im(dcols, g.geom, kBatch, dx);
    }
  }
  return conv_flops * double(reps);
}

/// SpatlAlgorithm's per-client selection step: a fresh agent fine-tuned on
/// the pruning task, then a deterministic act + step.
void probe_select(models::SplitModel& model, const data::Dataset& val,
                  std::size_t reps, std::uint64_t seed) {
  rl::PpoAgent agent(std::size_t(graph::kNumNodeFeatures), rl::PpoConfig{},
                     seed);
  agent.set_finetune(false);
  for (std::size_t r = 0; r < reps; ++r) {
    rl::PruningEnv env(model, val, {kFlopsBudget, prune::Criterion::kL2});
    obs::TraceSpan span("spatl/select");
    rl::train_on_pruning(agent, env, /*rounds=*/1, kFinetuneEpisodes);
    const auto actions = agent.act(env.reset(), /*explore=*/false);
    env.step(actions);
  }
  model.reset_gates();
}

void probe_copies(models::SplitModel& global, models::SplitModel& worker,
                  std::size_t reps) {
  for (std::size_t r = 0; r < reps; ++r) {
    {
      obs::TraceSpan span("fl/copy.load_global");
      models::copy_full_state(global, worker);
    }
    std::vector<float> flat;
    {
      obs::TraceSpan span("fl/copy.flatten");
      flat = nn::flatten_values(worker.all_params());
    }
    obs::TraceSpan span("fl/copy.unflatten");
    nn::unflatten_values(flat, worker.all_params());
  }
}

/// The workload's aggregation rule at its cohort x update dimension.
void probe_robust(const Workload& w, std::size_t dim, std::size_t reps,
                  std::uint64_t seed) {
  fl::ResilienceConfig rc;
  rc.aggregator = w.median ? fl::AggregatorKind::kCoordinateMedian
                           : fl::AggregatorKind::kWeightedMean;
  const auto agg = fl::make_robust_aggregator(rc);
  common::Rng rng(seed);
  std::vector<std::vector<float>> payloads(w.per_round,
                                           std::vector<float>(dim));
  std::vector<fl::RobustUpdate> ups;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    for (float& v : payloads[i]) v = rng.uniform_float(-1.0f, 1.0f);
    ups.push_back({i, 1.0, &payloads[i], nullptr});
  }
  for (std::size_t r = 0; r < reps; ++r) {
    obs::TraceSpan span("fl/robust.aggregate");
    agg->aggregate(ups, dim, nullptr);
  }
}

/// Durable commit of the algorithm's full checkpoint; returns its size.
double probe_store(fl::FederatedAlgorithm& algo, const fs::path& dir,
                   std::size_t reps) {
  fs::remove_all(dir);
  fl::store::StoreConfig sc;
  sc.dir = dir.string();
  sc.keep_last = 2;
  fl::store::CheckpointStore store(sc);
  fl::RunCheckpoint ckpt;
  algo.save_state(ckpt);
  for (std::size_t r = 0; r < reps; ++r) {
    obs::TraceSpan span("fl/store.commit");
    if (!store.commit(r + 1, ckpt)) {
      throw std::runtime_error("probe store commit failed");
    }
  }
  const double bytes = double(fs::file_size(store.generations().front().path));
  fs::remove_all(dir);
  return bytes;
}

// ------------------------------------------------------------- the ledger --

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Dotted metric name for a span name ("fl/train" -> "fl.train").
std::string dotted(std::string name) {
  std::replace(name.begin(), name.end(), '/', '.');
  return name;
}

struct ProbeTotals {
  double step_flops = 0.0;    // all nn probe steps
  double conv_flops = 0.0;    // one GEMM per conv, all op/tensor passes
  double commit_bytes = 0.0;  // one store generation
};

/// Every probe, on copies of the federation's final global model.
ProbeTotals run_probes(const Workload& w, Federation& fed,
                       std::size_t steps, std::size_t reps,
                       const fs::path& workdir, std::uint64_t seed) {
  const common::ThreadPool::ScopedOverride pin(*fed.pool);
  const fl::FlConfig cfg = make_config(w, seed);
  common::Rng model_rng(seed ^ 0x9B0BEULL);
  models::SplitModel& global = fed.algo->global_model();
  models::SplitModel model = models::build_model(cfg.model, model_rng);
  models::SplitModel worker = models::build_model(cfg.model, model_rng);
  models::copy_full_state(global, model);
  const fl::ClientData& client0 = fed.env->client(0);

  ProbeTotals t;
  t.step_flops = probe_train_step(model, client0.train, steps, seed);
  for (std::size_t i = 0; i < fed.env->num_clients(); ++i) {
    obs::TraceSpan span("data/evaluate");
    data::evaluate(model, fed.env->client(i).val);
  }
  probe_select(model, client0.val, reps, seed);
  t.conv_flops = probe_layers(model, reps, seed);
  probe_copies(global, worker, 4 * reps);
  probe_robust(w,
               nn::param_count(w.spatl ? global.encoder_params()
                                       : global.all_params()),
               reps, seed);
  t.commit_bytes = probe_store(*fed.algo, workdir / "probe-store", reps);
  return t;
}

struct LayerReport {
  Ledger layers, detail;
  std::vector<std::string> errors;
};

LayerReport build_ledger(const Workload& w, Federation& fed,
                         const Pass& untraced, const Pass& traced,
                         std::size_t warmup, std::size_t probe_steps,
                         const fs::path& workdir, std::uint64_t seed) {
  LayerReport rep;
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t probe_start = tracer.cursor();
  const std::size_t reps = std::max<std::size_t>(1, probe_steps / 5);
  const ProbeTotals totals =
      run_probes(w, fed, probe_steps, reps, workdir, seed);
  const auto events = tracer.events();
  const auto probe = reduce_spans(
      events, [&](const obs::SpanEvent& e, const obs::SpanEvent&) {
        return e.seq >= probe_start;
      });
  const auto incl = [&](const std::string& name) {
    const auto it = probe.find(name);
    return it == probe.end() ? 0.0 : it->second.incl_ns;
  };
  const auto per_call = [&](const std::string& name) {
    const auto it = probe.find(name);
    return it == probe.end() || it->second.calls == 0
               ? 0.0
               : ms(it->second.incl_ns) / double(it->second.calls);
  };

  // In-run phase attribution: self time per measured round.
  const std::size_t measured = traced.wall_ms.size();
  std::size_t rounds_seen = 0;
  std::vector<std::uint64_t> round_starts;
  for (const auto& e : events) {
    if (e.seq < probe_start && std::strcmp(e.name, "fl/round") == 0) {
      round_starts.push_back(e.start_ns);
    }
  }
  std::sort(round_starts.begin(), round_starts.end());
  const std::uint64_t first_measured =
      round_starts.size() > warmup
          ? round_starts[warmup]
          : std::numeric_limits<std::uint64_t>::max();
  const auto run = reduce_spans(
      events, [&](const obs::SpanEvent& e, const obs::SpanEvent& root) {
        return e.seq < probe_start &&
               std::strcmp(root.name, "fl/round") == 0 &&
               root.start_ns >= first_measured;
      });
  const auto round_it = run.find("fl/round");
  if (round_it != run.end()) rounds_seen = round_it->second.calls;
  if (rounds_seen != measured || measured == 0) {
    rep.errors.push_back("trace holds " + std::to_string(rounds_seen) +
                         " measured fl/round spans, expected " +
                         std::to_string(measured));
  }
  const double per_round = 1.0 / double(std::max<std::size_t>(1, measured));
  const auto self_ms = [&](const char* name) {
    const auto it = run.find(name);
    return it == run.end() ? 0.0 : ms(it->second.self_ns) * per_round;
  };
  const double round_ms =
      round_it == run.end() ? 0.0 : ms(round_it->second.incl_ns) * per_round;
  double covered = 0.0;
  double other = 0.0;
  for (const auto& [name, s] : run) {
    const double v = ms(s.self_ns) * per_round;
    rep.detail.add(dotted(name) + ".self_ms_per_round", v, "ms");
    covered += v;
    if (name != "fl/round" && name != "fl/train" && name != "fl/eval" &&
        name != "fl/aggregate" && name != "fl/uplink") {
      other += v;
    }
  }
  const double coverage = round_ms > 0.0 ? covered / round_ms : 0.0;
  rep.detail.add("trace.coverage", coverage, "ratio");
  if (coverage < 0.95) {
    rep.errors.push_back("traced self times cover " +
                         std::to_string(coverage) + " of fl/round (< 0.95)");
  }

  Ledger& L = rep.layers;
  L.add("fl.round.self_ms_per_round", self_ms("fl/round"), "ms");
  L.add("fl.train.ms_per_round", self_ms("fl/train"), "ms");
  L.add("fl.eval.ms_per_round", self_ms("fl/eval"), "ms");
  L.add("fl.aggregate.ms_per_round", self_ms("fl/aggregate"), "ms");
  L.add("fl.uplink.ms_per_round", self_ms("fl/uplink"), "ms");
  L.add("fl.other.ms_per_round", other, "ms");
  const auto train_it = run.find("fl/train");
  L.add("fl.train.calls_per_round",
        train_it == run.end() ? 0.0
                              : double(train_it->second.calls) * per_round,
        "count");

  L.add("spatl.select.ms", per_call("spatl/select"), "ms");
  L.add("rl.episode.ms", per_call("rl/episode"), "ms");
  L.add("rl.env_step.ms", per_call("rl/env_step"), "ms");
  L.add("rl.update.ms", per_call("rl/update"), "ms");
  L.add("rl.act.ms", per_call("rl/act"), "ms");

  L.add("data.loader.us_per_batch", per_call("data/loader") * 1e3, "us");
  L.add("data.evaluate.ms_per_client", per_call("data/evaluate"), "ms");

  const double steps = double(probe_steps);
  const double step_ms = ms(incl("nn/step")) / steps;
  const double parts = ms(incl("nn/forward") + incl("nn/loss") +
                          incl("nn/backward") + incl("nn/sgd") +
                          incl("nn/zero_grad")) /
                       steps;
  if (step_ms <= 0.0 || std::fabs(parts - step_ms) > 0.1 * step_ms) {
    rep.errors.push_back("nn probe phases sum to " + std::to_string(parts) +
                         " ms, nn.step is " + std::to_string(step_ms) +
                         " ms");
  }
  L.add("nn.step.ms", step_ms, "ms");
  for (const char* phase :
       {"forward", "backward", "loss", "sgd", "zero_grad"}) {
    L.add(std::string("nn.") + phase + ".ms",
          ms(incl(std::string("nn/") + phase)) / steps, "ms");
  }
  L.add("nn.step.gflops", totals.step_flops / incl("nn/step"), "GFLOP/s");
  // Child types both model families have; every type goes to "detail".
  std::map<std::string, double> pool_ns;
  for (const auto& [name, s] : probe) {
    if (name.rfind("nn/fwd/", 0) != 0 && name.rfind("nn/bwd/", 0) != 0) {
      continue;
    }
    rep.detail.add(dotted(name) + ".ms", ms(s.incl_ns) / steps, "ms");
    if (name.find("Pool") != std::string::npos) {
      pool_ns[name.substr(0, 6)] += s.incl_ns;
    }
  }
  for (const char* dir : {"fwd", "bwd"}) {
    for (const char* type : {"Conv2d", "ChannelGate", "ReLU", "Linear"}) {
      L.add(std::string("nn.") + dir + "." + type + ".ms",
            ms(incl(std::string("nn/") + dir + "/" + type)) / steps,
            "ms");
    }
    L.add(std::string("nn.") + dir + ".pool.ms",
          ms(pool_ns[std::string("nn/") + dir]) / steps, "ms");
  }

  const double r = double(reps);
  const double conv_fwd = incl("op/conv.fwd"), conv_bwd = incl("op/conv.bwd");
  L.add("op.conv.fwd.gflops", totals.conv_flops / conv_fwd, "GFLOP/s");
  L.add("op.conv.bwd.gflops", 2.0 * totals.conv_flops / conv_bwd,
        "GFLOP/s");
  L.add("op.relu.ms", ms(incl("op/relu")) / r, "ms");
  L.add("op.pool.ms", ms(incl("op/pool")) / r, "ms");
  L.add("op.linear.ms", ms(incl("op/linear")) / r, "ms");
  const double op_total = conv_fwd + conv_bwd + incl("op/bn") +
                          incl("op/relu") + incl("op/pool") +
                          incl("op/add") + incl("op/linear");
  const double gemm = incl("tensor/gemm_nn") + incl("tensor/gemm_tn") +
                      incl("tensor/gemm_nt");
  L.add("op.nongemm.share", op_total > 0.0 ? 1.0 - gemm / op_total : 0.0,
        "ratio");
  for (const char* kind : {"bn", "add"}) {
    const double ns = incl(std::string("op/") + kind);
    if (ns > 0.0) {
      rep.detail.add(std::string("op.") + kind + ".ms", ms(ns) / r, "ms");
    }
  }

  for (const char* v : {"nn", "tn", "nt"}) {
    L.add(std::string("tensor.gemm_") + v + ".gflops",
          totals.conv_flops / incl(std::string("tensor/gemm_") + v),
          "GFLOP/s");
  }
  L.add("tensor.im2col.ms", ms(incl("tensor/im2col")) / r, "ms");
  L.add("tensor.col2im.ms", ms(incl("tensor/col2im")) / r, "ms");

  L.add("fl.copy.load_global.ms", per_call("fl/copy.load_global"), "ms");
  L.add("fl.copy.flatten.ms", per_call("fl/copy.flatten"), "ms");
  L.add("fl.copy.unflatten.ms", per_call("fl/copy.unflatten"), "ms");
  L.add("fl.robust.aggregate.ms", per_call("fl/robust.aggregate"), "ms");
  L.add("store.commit.ms", per_call("fl/store.commit"), "ms");
  L.add("store.commit.kb", totals.commit_bytes / 1024.0, "kB");

  L.add("comm.uplink_mb_per_round", sum(traced.uplink_b) * per_round / 1e6,
        "MB");
  L.add("comm.downlink_mb_per_round",
        sum(traced.downlink_b) * per_round / 1e6, "MB");

  L.add("pool.cpu_util",
        sum(untraced.cpu_ms) / (sum(untraced.wall_ms) * double(kThreads)),
        "ratio");
  L.add("pool.batches_per_round", traced.pool_batches, "count");
  L.add("pool.chunks_per_round", traced.pool_chunks, "count");

  const double base_p50 = median(untraced.wall_ms);
  L.add("trace.overhead",
        base_p50 > 0.0 ? median(traced.wall_ms) / base_p50 - 1.0 : 0.0,
        "ratio");
  L.add("trace.dropped", double(tracer.dropped()), "count");
  if (tracer.dropped() != 0) {
    rep.errors.push_back("tracer dropped " +
                         std::to_string(tracer.dropped()) + " spans");
  }
  return rep;
}

// ------------------------------------------------------------------ JSON ---

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ",\"" : "\"") + obs::json_escape(v[i]) + "\"";
  }
  return out + "]";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
  return buf;
}

int run(const common::Flags& flags) {
  const std::string name = flags.get("workload");
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr) {
    common::log_error("bench_round: unknown --workload '", name, "'");
    return 2;
  }
  const auto seed = std::uint64_t(flags.get_int("seed", 1));
  const auto warmup = std::size_t(flags.get_int("warmup", 3));
  const auto rounds = std::size_t(flags.get_int("rounds", 40));
  const auto setups = std::size_t(std::max(1L, flags.get_int("setups", 3)));
  const auto probe_steps =
      std::size_t(std::max(1L, flags.get_int("probe-steps", 50)));
  const bool trace = flags.get_int("trace", 0) != 0;
  const fs::path workdir = flags.get("workdir", ".");
  const fs::path store_dir = workdir / "store";
  if (rounds == 0) {
    common::log_error("bench_round: --rounds must be positive");
    return 2;
  }

  std::vector<double> setup_s;
  std::optional<Federation> fed;
  const auto setup = [&] {
    fed.reset();  // release the previous federation before timing the next
    common::Timer t;
    fed.emplace(make_federation(*w, seed, warmup + rounds, store_dir));
    setup_s.push_back(t.seconds());
  };
  for (std::size_t k = 0; k < setups; ++k) setup();
  const Pass pass = run_pass(*w, *fed, warmup);
  std::size_t attempted = pass.attempted;
  std::size_t failed = pass.failed_rounds.size();
  std::vector<std::string> errors = pass.errors;

  obs::JsonObject out;
  out.add("workload", w->name)
      .add("seed", seed)
      .add("backend", w->backend)
      .add("threads", std::uint64_t(kThreads))
      .add("warmup", std::uint64_t(warmup))
      .add("rounds", std::uint64_t(rounds));

  if (trace) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_capacity(std::size_t(1) << 18);
    setup();
    tracer.set_enabled(true);
    Pass traced = run_pass(*w, *fed, warmup);
    const std::size_t last = warmup + rounds;
    if (traced.digest != pass.digest) {
      traced.fail(last, "traced run diverged from the untraced run");
    }
    const LayerReport rep = build_ledger(*w, *fed, pass, traced, warmup,
                                         probe_steps, workdir, seed);
    tracer.set_enabled(false);
    obs::write_chrome_trace(tracer,
                            (workdir / (name + ".trace.json")).string());
    for (const auto& e : rep.errors) traced.fail(last, e);
    attempted += traced.attempted;
    failed += traced.failed_rounds.size();
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    out.add_raw("layers", rep.layers.json.str())
        .add_raw("detail", rep.detail.json.str());
  }
  fs::remove_all(store_dir);

  out.add_raw("setup_s", json_array(setup_s))
      .add_raw("wall_ms", json_array(pass.wall_ms))
      .add_raw("cpu_ms", json_array(pass.cpu_ms))
      .add_raw("uplink_bytes", json_array(pass.uplink_b))
      .add_raw("downlink_bytes", json_array(pass.downlink_b))
      .add("peak_rss_mb", peak_rss_mb())
      .add("final_accuracy", pass.final_accuracy)
      .add("digest", hex(pass.digest))
      .add("attempted", std::uint64_t(attempted))
      .add("failed", std::uint64_t(failed))
      .add_raw("errors", json_strings(errors));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const common::Flags flags(argc, argv);
    flags.check_known({"workload", "seed", "warmup", "rounds", "setups",
                       "workdir", "trace", "probe-steps"});
    return run(flags);
  } catch (const std::exception& e) {
    common::log_error("bench_round: ", e.what());
    return 1;
  }
}
