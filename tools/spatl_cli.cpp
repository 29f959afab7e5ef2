// spatl — command-line driver for the library.
//
// Subcommands:
//   train    run federated training and optionally checkpoint the result
//   evaluate load a checkpoint and evaluate it on fresh synthetic data
//   prune    run the salient-selection agent as a pruner on one model
//   info     print a model's structure, parameter and FLOPs budget
//
// Examples:
//   spatl train --algo spatl --arch resnet20 --clients 10 --rounds 20
//         --beta 0.5 --out run.ckpt
//   spatl evaluate --ckpt run.ckpt --arch resnet20
//   spatl prune --arch resnet20 --budget 0.6
//   spatl info --arch vgg11 --input 32 --width 1.0
//
// Every flag is one row of kFlags: its kind parses the value, its setter
// writes the configuration, and its need says what must be configured for
// the value to act. The usage text, each subcommand's known list, the
// local-only rejection and the enabler checks are all read off the table,
// so adding a flag is adding a row.
//
// usage() and top-level error reporting write straight to stderr by design
// (a CLI's usage text must not depend on the log level):
// spatl-lint: allow(raw-stderr)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "core/spatl.hpp"
#include "core/transfer.hpp"
#include "data/loader.hpp"
#include "data/synthetic.hpp"
#include "fl/runner.hpp"
#include "models/checkpoint.hpp"
#include "obs/alert.hpp"
#include "obs/flight.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prune/flops.hpp"
#include "prune/pipelines.hpp"
#include "tensor/backend.hpp"

using namespace spatl;

namespace {

/// Subcommands, as bits of a flag's `cmds` mask: bit i is kCmdNames[i].
enum Cmd : unsigned { kTrain = 1, kEvaluate = 2, kPrune = 4, kInfo = 8 };
constexpr unsigned kAll = kTrain | kEvaluate | kPrune | kInfo;
const char* const kCmdNames[] = {"train", "evaluate", "prune", "info"};

/// Usage sections, in table order. The uplink groups (kFault through
/// kSampling) are rejected on --algo local-only, which has no uplink; a
/// kDefence flag, like a fault model, prints the participation summary.
enum Group { kModel, kRun, kFault, kDefence, kRobust, kAsync, kChurn,
             kSampling, kRecovery, kTelemetry, kEvaluation, kPruning };
const char* const kHeadings[] = {
    "model / backend", "run", "fault injection", "server defences",
    "robust aggregation", "semi-async straggler commit / escalation",
    "elastic membership / admission", "fault-aware sampling", "recovery",
    "telemetry (observation only)", "evaluation", "pruning"};

/// How a value parses, and its usage placeholder: a count is an integer
/// >= 0, a seed any integer (kept as its bit pattern), a switch a bool that
/// may stand bare (`--async`); text may not stand bare.
enum Kind { kCount, kSeed, kNumber, kSwitch, kText };
const char* const kPlaceholders[] = {"N", "S", "F", "", ""};

/// Everything a command line configures, at the subcommand's defaults.
struct Config {
  explicit Config(Cmd cmd) {
    fl.local.epochs = cmd == kPrune ? 4 : 2;  // prune: dense warm-up epochs
    spatl.agent_finetune_rounds = spatl.agent_finetune_episodes = 2;
    run.rounds = 10;
  }
  std::string algo = "spatl";
  std::size_t clients = 10;
  double beta = 0.5;
  fl::FlConfig fl{.model = {.input_size = 12, .width_mult = 0.25},
                  .local = {.batch_size = 16, .lr = 0.05}};
  core::SpatlOptions spatl;
  fl::RunOptions run;
  // These four reach `run` only once parse() finds them switched on.
  fl::FaultConfig faults;
  fl::AsyncConfig async;
  fl::ChurnConfig churn;
  fl::store::StoreConfig store;
  // summary: a kDefence flag was given, so the participation lines print.
  bool async_on = false, no_store_resume = false, summary = false;
  std::string out, metrics_out, trace_out, ckpt;
  std::vector<obs::AlertRule> alerts;
  std::optional<std::size_t> flight_window;
  std::size_t samples = 200, rl_rounds = 6;  // evaluate, prune
};

/// What must be configured for a flag's value to act, judged on the
/// configuration the setters built: `error: --X needs <what>`.
struct Need {
  const char* what;
  bool (*holds)(const Config&);
};

using enum fl::AggregatorKind;
using enum fl::AttackKind;
template <fl::AggregatorKind kind>
bool uses_rule(const Config& c) {
  return c.run.resilience.aggregator == kind ||
         (c.run.escalation.enabled && c.run.escalation.aggregator == kind);
}

// Needs and flags are tables, one entry per line.
#define HOLDS(expr) [](const Config& c) { return bool(expr); }
const Need kFaultModel{"a fault model (a --fault-* or --byz-fraction rate > 0)",
                       HOLDS(c.faults.any_faults())};
const Need kCorruption{"--fault-corruption > 0", HOLDS(c.faults.corruption_rate > 0)};
const Need kLoss{"--fault-loss > 0", HOLDS(c.faults.loss_rate > 0)};
const Need kByzantine{"--byz-fraction > 0", HOLDS(c.faults.byzantine_fraction > 0)};
const Need kScaleAttack{"--byz-attack scale or collude",
                        HOLDS(c.faults.attack_kind == kScale ||
                              c.faults.attack_kind == kFixedDirection)};
const Need kNoiseAttack{"--byz-attack noise", HOLDS(c.faults.attack_kind == kGaussianNoise)};
const Need kTrimRule{"trimmed in --aggregator/--escalate-aggregator", uses_rule<kTrimmedMean>};
const Need kKrumRule{"krum in --aggregator/--escalate-aggregator", uses_rule<kKrum>};
const Need kClipRule{"clipped in --aggregator/--escalate-aggregator", uses_rule<kNormClippedMean>};
const Need kBackoff{"--retry-backoff > 0", HOLDS(c.run.resilience.retry.backoff_base > 0)};
const Need kAsyncOn{"--async", HOLDS(c.async_on)};
const Need kEscalateOn{"--escalate", HOLDS(c.run.escalation.enabled)};
const Need kChurnOn{"churn (--churn-* > 0 or --churn-initial < 1)", HOLDS(c.churn.any_churn())};
const Need kAdmissionCap{"an admission cap (--admit-max-* > 0)", HOLDS(c.run.admission.limited())};
const Need kStore{"--ckpt-dir", HOLDS(c.store.enabled())};
const Need kMetricsOut{"--metrics-out", HOLDS(!c.metrics_out.empty())};
const Need kFaultAware{"--fault-aware-sampling", HOLDS(c.run.fault_aware_sampling)};
const Need kTopk{"--algo fedavg+topk", HOLDS(c.algo == "fedavg+topk")};
const Need kSpatl{"--algo spatl", HOLDS(c.algo == "spatl")};  // prune has no --algo

/// A count flag's value: an integer >= 0.
std::size_t count(const common::Flags& flags, const char* name) {
  const long n = flags.get_int(name, 0);
  if (n >= 0) return std::size_t(n);
  throw std::invalid_argument(std::string("flag --") + name +
                              " expects a count >= 0, got " +
                              std::to_string(n));
}

fl::CorruptionKind parse_corruption_kind(const std::string& name) {
  if (name == "nan") return fl::CorruptionKind::kNaN;
  if (name == "inf") return fl::CorruptionKind::kInf;
  if (name == "bitflip") return fl::CorruptionKind::kBitFlip;
  throw std::invalid_argument("unknown corruption kind '" + name +
                              "' (nan|inf|bitflip)");
}

struct Flag {
  const char* name;
  Group group;
  Kind kind;
  /// Reads the flag's value and writes it into the configuration.
  void (*set)(Config& c, const common::Flags& flags, const char* name);
  const Need* need = nullptr;  // null: the value acts on every run
  const char* arg = nullptr;   // usage placeholder of a kText value
  unsigned cmds = kTrain;      // subcommands that take the flag
};

// A row's kind and a setter that reads the value as that kind into `c.f`.
#define SETTER(expr) \
  [](Config& c, const common::Flags& flags, const char* name) { expr; }
#define COUNT(f) kCount, SETTER(c.f = count(flags, name))
#define SEED(f) kSeed, SETTER(c.f = std::uint64_t(flags.get_int(name, 0)))
#define NUMBER(f) kNumber, SETTER(c.f = flags.get_double(name, 0))
#define SWITCH(f) kSwitch, SETTER(c.f = flags.get_bool(name, false))
#define TEXT(f) kText, SETTER(c.f = flags.get(name))
#define PARSED(f, parse) kText, SETTER(c.f = parse(flags.get(name)))
#define ALERT(rule, metric) \
  kNumber, SETTER(c.alerts.push_back({rule, metric, flags.get_double(name, 0)}))
const Flag kFlags[] = {
    {"arch", kModel, TEXT(fl.model.arch), nullptr, "ARCH", kAll},
    {"input", kModel, COUNT(fl.model.input_size), nullptr, nullptr, kAll},
    {"width", kModel, NUMBER(fl.model.width_mult), nullptr, nullptr, kAll},
    {"backend", kModel, TEXT(run.backend), nullptr, "scalar|cpu-simd|auto", kAll},

    {"algo", kRun, TEXT(algo), nullptr,
     "fedavg|fedprox|fednova|scaffold|fedavgm|fedadam|fedavg+topk|fedavg+int8|local-only|spatl"},
    {"clients", kRun, COUNT(clients)},
    {"rounds", kRun, COUNT(run.rounds)},
    {"beta", kRun, NUMBER(beta)},
    {"sample-ratio", kRun, NUMBER(run.sample_ratio)},
    {"epochs", kRun, COUNT(fl.local.epochs), nullptr, nullptr, kTrain | kPrune},
    {"lr", kRun, NUMBER(fl.local.lr)},
    {"seed", kRun, SEED(fl.seed), nullptr, nullptr, kTrain | kEvaluate | kPrune},
    {"budget", kRun, NUMBER(spatl.flops_budget), &kSpatl, nullptr, kTrain | kPrune},
    {"topk", kRun, NUMBER(fl.topk_fraction), &kTopk},
    {"out", kRun, TEXT(out), nullptr, "CKPT"},

    {"fault-dropout", kFault, NUMBER(faults.dropout_rate)},
    {"fault-straggler", kFault, NUMBER(faults.straggler_rate)},
    {"fault-corruption", kFault, NUMBER(faults.corruption_rate)},
    {"fault-corruption-kind", kFault, PARSED(faults.corruption_kind, parse_corruption_kind),
     &kCorruption, "nan|inf|bitflip"},
    {"fault-loss", kFault, NUMBER(faults.loss_rate)},
    {"fault-seed", kFault, SEED(faults.seed), &kFaultModel},
    {"fault-deadline", kFault, NUMBER(faults.round_deadline), &kFaultModel},
    {"byz-fraction", kFault, NUMBER(faults.byzantine_fraction)},
    {"byz-attack", kFault, PARSED(faults.attack_kind, fl::parse_attack_kind), &kByzantine,
     "signflip|scale|noise|collude"},
    {"byz-scale", kFault, NUMBER(faults.attack_scale), &kScaleAttack},
    {"byz-noise", kFault, NUMBER(faults.attack_noise_std), &kNoiseAttack},

    {"quorum", kDefence, COUNT(run.resilience.min_quorum)},
    {"max-update-norm", kDefence, NUMBER(run.resilience.max_update_norm)},
    {"stale-weight", kDefence, NUMBER(run.resilience.stale_weight), &kFaultModel},
    {"max-retries", kDefence, COUNT(run.resilience.retry.max_retries), &kLoss},
    {"retry-backoff", kDefence, NUMBER(run.resilience.retry.backoff_base)},
    {"retry-backoff-factor", kDefence, NUMBER(run.resilience.retry.backoff_factor), &kBackoff},
    {"retry-backoff-max", kDefence, NUMBER(run.resilience.retry.backoff_max), &kBackoff},
    {"retry-jitter", kDefence, NUMBER(run.resilience.retry.jitter), &kBackoff},
    {"aggregator", kDefence, PARSED(run.resilience.aggregator, fl::parse_aggregator_kind),
     nullptr, "mean|median|trimmed|krum|clipped"},

    {"trim-fraction", kRobust, NUMBER(run.resilience.trim_fraction), &kTrimRule},
    {"krum-f", kRobust, COUNT(run.resilience.krum_f), &kKrumRule},
    {"multi-krum", kRobust, COUNT(run.resilience.multi_krum), &kKrumRule},
    {"krum-auto-f", kRobust, SWITCH(run.krum_auto_f), &kKrumRule},
    {"clip-norm", kRobust, NUMBER(run.resilience.clip_norm), &kClipRule},

    {"async", kAsync, SWITCH(async_on), &kFaultModel},
    {"async-stale-weight", kAsync, NUMBER(async.stale_weight), &kAsyncOn},
    {"async-max-lag", kAsync, COUNT(async.max_lag), &kAsyncOn},
    {"escalate", kAsync, SWITCH(run.escalation.enabled)},
    {"escalate-threshold", kAsync, NUMBER(run.escalation.suspect_threshold), &kEscalateOn},
    {"escalate-patience", kAsync, COUNT(run.escalation.patience), &kEscalateOn},
    {"escalate-aggregator", kAsync, PARSED(run.escalation.aggregator, fl::parse_aggregator_kind),
     &kEscalateOn, "median|trimmed|krum|clipped"},
    {"escalate-reset-after", kAsync, COUNT(run.escalation.reset_after_quiet), &kEscalateOn},

    {"churn-join", kChurn, NUMBER(churn.join_rate)},
    {"churn-leave", kChurn, NUMBER(churn.leave_rate)},
    {"churn-return", kChurn, NUMBER(churn.return_rate)},
    {"churn-initial", kChurn, NUMBER(churn.initial_fraction)},
    {"churn-stale-weight", kChurn, NUMBER(churn.return_stale_weight), &kChurnOn},
    {"churn-staleness-cap", kChurn, COUNT(churn.staleness_cap), &kChurnOn},
    {"churn-seed", kChurn, SEED(churn.seed), &kChurnOn},
    {"admit-max-participants", kChurn, COUNT(run.admission.max_participants)},
    {"admit-max-uplink-bytes", kChurn, NUMBER(run.admission.max_uplink_bytes)},
    {"admit-policy", kChurn, PARSED(run.admission.policy, fl::parse_admission_policy),
     &kAdmissionCap, "shed|defer"},

    {"fault-aware-sampling", kSampling, SWITCH(run.fault_aware_sampling)},
    {"fault-ema-decay", kSampling, NUMBER(run.fault_ema_decay), &kFaultAware},

    {"checkpoint-every", kRecovery, COUNT(run.checkpoint_every)},
    {"ckpt-dir", kRecovery, TEXT(store.dir), nullptr, "DIR"},
    {"ckpt-keep", kRecovery, COUNT(store.keep_last), &kStore},
    {"ckpt-verify", kRecovery, SWITCH(store.verify_on_commit), &kStore},
    {"no-store-resume", kRecovery, SWITCH(no_store_resume), &kStore},
    {"divergence-factor", kRecovery, NUMBER(run.divergence_factor)},

    {"metrics-out", kTelemetry, TEXT(metrics_out), nullptr, "FILE.jsonl"},
    {"telemetry-every", kTelemetry, COUNT(run.telemetry_every), &kMetricsOut},
    {"trace-out", kTelemetry, TEXT(trace_out), nullptr, "FILE.json"},
    {"flight-window", kTelemetry, COUNT(flight_window)},
    {"alert-reject-rate", kTelemetry, ALERT("reject_high", "fl.reject_rate")},
    {"alert-shed-rate", kTelemetry, ALERT("shed_high", "fl.shed_rate")},

    {"ckpt", kEvaluation, TEXT(ckpt), nullptr, "FILE", kEvaluate},
    {"samples", kEvaluation, COUNT(samples), nullptr, nullptr, kEvaluate},
    {"rl-rounds", kPruning, COUNT(rl_rounds), nullptr, nullptr, kPrune},
};

int usage() {
  std::string text = "usage: spatl <train|evaluate|prune|info> [--flags]\n";
  for (unsigned i = 0; i < std::size(kCmdNames); ++i) {
    text += std::string("  ") + kCmdNames[i];
    const Flag* previous = nullptr;
    for (const Flag& f : kFlags) {
      if ((f.cmds & (1u << i)) == 0) continue;
      if (previous == nullptr || previous->group != f.group) {
        text += std::string("\n    ") + kHeadings[f.group] + ":";
      }
      const char* arg = f.arg != nullptr ? f.arg : kPlaceholders[f.kind];
      text += std::string(" [--") + f.name + (*arg ? " " : "") + arg + "]";
      previous = &f;
    }
    text += "\n";
  }
  std::fputs(text.c_str(), stderr);
  return 2;
}

/// Runs the setter of every flag given, then rejects what the run would not
/// honour: an unknown flag, an uplink flag on local-only, a flag whose need
/// does not hold.
Config parse(Cmd cmd, const common::Flags& flags) {
  std::vector<std::string> known;
  std::vector<const Flag*> given;
  for (const Flag& f : kFlags) {
    if ((f.cmds & cmd) != 0) known.emplace_back(f.name);
    if ((f.cmds & cmd) != 0 && flags.has(f.name)) given.push_back(&f);
  }
  flags.check_known(known);
  Config c(cmd);
  for (const Flag* f : given) {
    if (f->kind == kText && flags.bare(f->name)) {
      throw std::invalid_argument(std::string("--") + f->name +
                                  " needs a value");
    }
    f->set(c, flags, f->name);
  }
  if (c.fl.model.arch == "cnn2") c.fl.model.in_channels = 1;
  for (const Flag* f : given) {
    const std::string flag = std::string("--") + f->name;
    if (c.algo == "local-only" && f->group >= kFault &&
        f->group <= kSampling) {
      throw std::invalid_argument(flag + " does not apply to --algo " +
                                  "local-only, which has no uplink");
    }
    if (f->need != nullptr && !f->need->holds(c)) {
      throw std::invalid_argument(flag + " needs " + f->need->what);
    }
    c.summary = c.summary || f->group == kDefence;
  }
  if (c.faults.any_faults()) c.run.faults = c.faults;
  if (c.async_on) c.run.async = c.async;
  if (c.churn.any_churn()) c.run.churn = c.churn;
  if (c.store.enabled()) c.run.ckpt_store = c.store;
  c.run.resume_from_store = c.store.enabled() && !c.no_store_resume;
  return c;
}

data::Dataset make_data(const models::ModelConfig& mc, std::size_t samples,
                        std::uint64_t seed) {
  data::SyntheticConfig dc;
  dc.num_samples = samples;
  dc.image_size = mc.input_size;
  dc.channels = mc.in_channels;
  dc.num_classes = mc.num_classes;
  dc.seed = seed;
  return data::make_synthetic_with_labels(dc, [&] {
    std::vector<int> labels(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      labels[i] = int(i % mc.num_classes);
    }
    common::Rng shuffle_rng(seed ^ 0xBEEF);
    shuffle_rng.shuffle(labels);
    return labels;
  }());
}

int cmd_train(Config& c) {
  const auto source =
      make_data(c.fl.model, c.clients * 80, c.fl.seed ^ 0xDA7AULL);
  common::Rng env_rng(c.fl.seed);
  fl::FlEnvironment env(source, c.clients, c.beta, 0.25, env_rng);

  const std::unique_ptr<fl::FederatedAlgorithm> algorithm =
      c.algo == "spatl"
          ? std::make_unique<core::SpatlAlgorithm>(env, c.fl, c.spatl)
          : fl::make_baseline(c.algo, env, c.fl);

  // Telemetry (DESIGN.md §10). Observation only: attaching the sink or
  // enabling the tracer never changes a float of the run.
  const auto telemetry =
      c.metrics_out.empty()
          ? nullptr
          : std::make_unique<obs::JsonlWriter>(c.metrics_out);
  c.run.telemetry = telemetry.get();
  if (!c.trace_out.empty()) obs::Tracer::instance().set_enabled(true);

  // Threshold -> alert hook: alert records share the telemetry sink (or
  // are just counted when no --metrics-out was given).
  obs::AlertWatcher alerts(telemetry.get());
  for (const obs::AlertRule& rule : c.alerts) alerts.add_rule(rule);
  if (alerts.rule_count() > 0) c.run.alerts = &alerts;

  // Flight recorder: ring of the last N rendered round records, dumped
  // into the telemetry stream as one "flight" record when a divergence
  // rollback or a start-up recovery-ladder exhaustion fires — the
  // rounds leading up to the incident, captured even when
  // --telemetry-every strides past them.
  const auto flight =
      c.flight_window
          ? std::make_unique<obs::FlightRecorder>(telemetry.get(),
                                                  *c.flight_window)
          : nullptr;
  c.run.flight = flight.get();

  const auto result = fl::run_federated(
      *algorithm, c.run, [&](std::size_t round, const fl::RoundRecord& rec) {
        std::printf("round %3zu  acc %5.1f%%  loss %.3f  comm %s\n", round,
                    rec.avg_accuracy * 100.0, rec.avg_loss,
                    common::format_bytes(rec.cumulative_bytes).c_str());
      });
  std::printf("\n%s: final %5.1f%% (best %5.1f%%), %s communicated\n",
              algorithm->name().c_str(), result.final_accuracy * 100.0,
              result.best_accuracy * 100.0,
              common::format_bytes(result.comm.total()).c_str());
  const auto total = [&](const char* name) { return result.total(name); };
  if (c.run.faults || c.summary) {
    std::printf(
        "participation: %zu selected, %zu accepted, %zu dropped, "
        "%zu stragglers, %zu rejected, %zu rounds skipped\n"
        "retry path: %zu retransmissions, %s retransmitted\n",
        total("selected"), total("accepted"), total("dropped"),
        total("stragglers"), total("rejected"), total("skipped"),
        total("retransmissions"),
        common::format_bytes(result.comm.retransmitted).c_str());
    if (total("parked") > 0 || result.buffered_remaining > 0) {
      std::printf(
          "semi-async: %zu parked, %zu committed late, %zu still buffered "
          "at exit\n",
          total("parked"), total("late_commits"), result.buffered_remaining);
    }
    if (total("escalated") > 0) {
      std::printf("escalation: %zu rounds under the escalated aggregator\n",
                  total("escalated"));
    }
    if (result.total_backoff_wait > 0.0 || total("giveups") > 0) {
      std::printf("retry discipline: %.2f total backoff wait, %zu give-ups\n",
                  result.total_backoff_wait, total("giveups"));
    }
    if (total("attacked") > 0 || total("suspected") > 0 ||
        total("rolled_back") > 0) {
      std::printf(
          "robustness: %zu attacked uplinks, %zu suspected by the "
          "aggregator, %zu rounds rolled back\n",
          total("attacked"), total("suspected"), total("rolled_back"));
    }
  }
  if (c.run.churn) {
    std::printf(
        "churn: %zu joined, %zu left, %zu returned, %zu returning "
        "uplinks discounted\n",
        total("joined"), total("left"), total("returned"),
        total("returning_discounted"));
  }
  if (c.run.admission.limited()) {
    std::printf("admission: %zu shed, %zu deferred (%s policy)\n",
                total("shed"), total("deferred"),
                fl::admission_policy_name(c.run.admission.policy));
  }
  if (c.run.ckpt_store) {
    std::printf(
        "durable store: %zu generation(s) committed to %s, %zu commit "
        "failure(s), %zu recovered from disk, %zu ladder attempt(s) "
        "rejected\n",
        result.store_commits, c.run.ckpt_store->dir.c_str(),
        result.store_commit_failures, result.recoveries_from_store,
        result.recovery_attempts_failed);
  }
  if (c.run.krum_auto_f) {
    std::printf("krum auto-f: final estimate %zu\n", result.krum_f_estimate);
  }
  if (c.run.alerts != nullptr) {
    std::printf("alerts: %zu emitted\n", alerts.alerts_emitted());
  }
  if (flight != nullptr) {
    std::printf("flight recorder: %zu dump(s), window %zu of %zu rounds\n",
                flight->dumps(), flight->window_size(), flight->rounds_seen());
  }
  if (result.checkpoints_written > 0) {
    std::printf("checkpoints: %zu written\n", result.checkpoints_written);
  }
  if (telemetry != nullptr) {
    const auto snapshot = obs::MetricsRegistry::instance().snapshot();
    telemetry->write(obs::JsonObject().add("type", "metrics").add_raw(
        "metrics", obs::metrics_object(snapshot).str()));
    std::printf("telemetry: %zu records -> %s\n", telemetry->lines(),
                c.metrics_out.c_str());
  }
  if (!c.trace_out.empty()) {
    obs::write_chrome_trace(obs::Tracer::instance(), c.trace_out);
    std::printf("trace written to %s\n", c.trace_out.c_str());
    obs::Tracer::instance().set_enabled(false);
  }

  if (!c.out.empty()) {
    models::save_checkpoint(c.out, algorithm->global_model());
    std::printf("checkpoint written to %s\n", c.out.c_str());
  }
  return 0;
}

int cmd_evaluate(Config& c) {
  if (c.ckpt.empty()) return usage();
  const models::ModelConfig& mc = c.fl.model;
  common::Rng rng(1);
  auto model = models::build_model(mc, rng);
  models::load_checkpoint(c.ckpt, model);
  const auto data = make_data(mc, c.samples, c.fl.seed ^ 0xDA7AULL);
  const auto r = data::evaluate(model, data);
  std::printf("%s on %zu samples: accuracy %5.1f%%, loss %.3f\n",
              mc.arch.c_str(), r.samples, r.accuracy * 100.0, r.loss);
  return 0;
}

int cmd_prune(Config& c) {
  const models::ModelConfig& mc = c.fl.model;
  common::Rng rng(c.fl.seed);
  auto model = models::build_model(mc, rng);

  const auto train = make_data(mc, 400, 7);
  const auto val = make_data(mc, 120, 8);
  const data::TrainOptions topts{.epochs = c.fl.local.epochs, .lr = 0.05};
  data::train_supervised(model, train, topts, rng, model.all_params());
  const double dense_acc = data::evaluate(model, val).accuracy;

  rl::PruningEnv env(model, val, {.flops_budget = c.spatl.flops_budget});
  rl::PpoAgent agent(graph::kNumNodeFeatures, rl::PpoConfig{},
                     c.fl.seed ^ 0xA6E47ULL);
  const auto hist = rl::train_on_pruning(agent, env, c.rl_rounds, 3);
  prune::apply_sparsities(model, hist.best_sparsities,
                          prune::Criterion::kL2);
  const double pruned_acc = data::evaluate(model, val).accuracy;
  const double ratio =
      prune::encoder_flops(model) /
      prune::dense_encoder_flops(model.layers());
  std::printf("%s: dense %5.1f%% -> pruned %5.1f%% at %4.1f%% FLOPs "
              "(sparsity %4.1f%%)\n",
              mc.arch.c_str(), dense_acc * 100.0, pruned_acc * 100.0,
              ratio * 100.0, prune::overall_sparsity(model) * 100.0);
  return 0;
}

int cmd_info(Config& c) {
  const models::ModelConfig& mc = c.fl.model;
  common::Rng rng(1);
  auto model = models::build_model(mc, rng);
  std::printf("%s (input %zux%zu, width x%.2f)\n", mc.arch.c_str(),
              mc.input_size, mc.input_size, mc.width_mult);
  std::printf("  encoder params  : %s\n",
              common::format_count(double(model.encoder_param_count())).c_str());
  std::printf("  predictor params: %s\n",
              common::format_count(double(model.predictor_param_count())).c_str());
  std::printf("  encoder FLOPs   : %s\n",
              common::format_count(
                  prune::dense_encoder_flops(model.layers())).c_str());
  std::printf("  prunable gates  : %zu\n", model.gates().size());
  std::printf("  layers:\n");
  for (std::size_t i = 0; i < model.layers().size(); ++i) {
    const auto& l = model.layers()[i];
    std::printf("   %3zu %-14s %4zu -> %-4zu  %zux%zu -> %zux%zu%s%s\n", i,
                models::layer_kind_name(l.kind).c_str(), l.in_ch, l.out_ch,
                l.in_h, l.in_w, l.out_h, l.out_w,
                l.out_gate >= 0 ? "  [gated]" : "",
                l.skip_from >= 0 ? "  [skip]" : "");
  }
  return 0;
}

// In kCmdNames order.
int (*const kCommands[])(Config&) = {cmd_train, cmd_evaluate, cmd_prune,
                                     cmd_info};

}  // namespace

int main(int argc, char** argv) {
  for (unsigned i = 0; i < std::size(kCmdNames); ++i) {
    if (argc < 2 || kCmdNames[i] != std::string(argv[1])) continue;
    common::set_log_level(common::LogLevel::kWarn);
    try {
      Config c = parse(Cmd(1u << i), common::Flags(argc, argv, 2));
      // Backend selection applies to every subcommand: evaluate/prune/info
      // run the same GEMM kernels as training. train additionally records it
      // in RunOptions so the runner re-pins it before the round loop.
      if (!c.run.backend.empty()) {
        tensor::set_active_backend(tensor::parse_backend(c.run.backend));
      }
      return kCommands[i](c);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  return usage();
}
