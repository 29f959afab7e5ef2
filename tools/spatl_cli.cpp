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
// usage() and top-level error reporting write straight to stderr by design
// (a CLI's usage text must not depend on the log level):
// spatl-lint: allow(raw-stderr)
#include <algorithm>
#include <cstdio>
#include <memory>
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

int usage() {
  std::fprintf(stderr,
               "usage: spatl <train|evaluate|prune|info> [--flags]\n"
               "  train    --algo fedavg|fedprox|fednova|scaffold|fedavgm|"
               "fedadam|fedavg+topk|fedavg+int8|local-only|spatl\n"
               "           --arch ARCH --clients N --rounds R --beta B\n"
               "           [--sample-ratio F] [--epochs E] [--lr F]\n"
               "           [--input PX] [--width F] [--seed S] [--out CKPT]\n"
               "           [--backend scalar|cpu-simd|auto]\n"
               "           fault injection / resilience:\n"
               "           [--fault-dropout F] [--fault-straggler F]\n"
               "           [--fault-corruption F] [--fault-corruption-kind\n"
               "            nan|inf|bitflip] [--fault-loss F] [--fault-seed S]\n"
               "           [--fault-deadline T] [--max-retries N] [--quorum N]\n"
               "           [--max-update-norm F] [--stale-weight F]\n"
               "           [--retry-backoff T] [--retry-backoff-factor F]\n"
               "           [--retry-backoff-max T] [--retry-jitter F]\n"
               "           semi-async straggler commit / escalation:\n"
               "           [--async] [--async-stale-weight F]\n"
               "           [--async-max-lag N] [--escalate]\n"
               "           [--escalate-threshold F] [--escalate-patience N]\n"
               "           [--escalate-aggregator median|trimmed|krum|clipped]\n"
               "           [--escalate-reset-after N]\n"
               "           elastic membership / admission / alerts:\n"
               "           [--churn-join F] [--churn-leave F]\n"
               "           [--churn-return F] [--churn-initial F]\n"
               "           [--churn-stale-weight F] [--churn-staleness-cap N]\n"
               "           [--churn-seed S] [--admit-max-participants N]\n"
               "           [--admit-max-uplink-bytes B]\n"
               "           [--admit-policy shed|defer]\n"
               "           [--alert-reject-rate F] [--alert-shed-rate F]\n"
               "           Byzantine attacks / robust aggregation:\n"
               "           [--byz-fraction F] [--byz-attack signflip|scale|\n"
               "            noise|collude] [--byz-scale F] [--byz-noise F]\n"
               "           [--aggregator mean|median|trimmed|krum|clipped]\n"
               "           [--trim-fraction F] [--krum-f N] [--multi-krum N]\n"
               "           [--clip-norm F] [--krum-auto-f]\n"
               "           recovery / sampling:\n"
               "           [--checkpoint-every K] [--ckpt-dir DIR]\n"
               "           [--ckpt-keep K] [--ckpt-verify] [--no-store-resume]\n"
               "           [--divergence-factor F]\n"
               "           [--fault-aware-sampling] [--fault-ema-decay F]\n"
               "           telemetry (observation only):\n"
               "           [--metrics-out FILE.jsonl] [--telemetry-every N]\n"
               "           [--trace-out FILE.json] [--flight-window N]\n"
               "  evaluate --ckpt FILE --arch ARCH [--input PX] [--width F]\n"
               "  prune    --arch ARCH --budget F [--rl-rounds N]\n"
               "  info     --arch ARCH [--input PX] [--width F]\n");
  return 2;
}

models::ModelConfig model_config(const common::Flags& flags) {
  models::ModelConfig cfg;
  cfg.arch = flags.get("arch", "resnet20");
  cfg.input_size = std::size_t(flags.get_int("input", 12));
  cfg.width_mult = flags.get_double("width", 0.25);
  if (cfg.arch == "cnn2") cfg.in_channels = 1;
  if (!models::is_known_arch(cfg.arch)) {
    throw std::invalid_argument("unknown --arch " + cfg.arch);
  }
  return cfg;
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

/// Fault, Byzantine, resilience, async, churn and admission flags: the
/// uplink-side machinery that every algorithm but local-only runs through.
const std::vector<std::string> kUplinkFlags = {
    "fault-dropout", "fault-straggler", "fault-corruption",
    "fault-corruption-kind", "fault-loss", "fault-deadline", "fault-seed",
    "fault-aware-sampling", "fault-ema-decay", "byz-fraction", "byz-attack",
    "byz-scale", "byz-noise", "quorum", "max-update-norm", "stale-weight",
    "max-retries", "retry-backoff", "retry-backoff-factor",
    "retry-backoff-max", "retry-jitter", "aggregator", "trim-fraction",
    "krum-f", "multi-krum", "clip-norm", "krum-auto-f", "async",
    "async-stale-weight", "async-max-lag", "escalate", "escalate-threshold",
    "escalate-patience", "escalate-aggregator", "escalate-reset-after",
    "churn-join", "churn-leave", "churn-return", "churn-initial",
    "churn-stale-weight", "churn-staleness-cap", "churn-seed",
    "admit-max-participants", "admit-max-uplink-bytes", "admit-policy"};

/// Reject any flag outside `known` plus the model-shape and backend flags
/// every subcommand takes: a misspelled flag must not be silently dropped.
void check_flags(const common::Flags& flags, std::vector<std::string> known) {
  known.insert(known.end(), {"arch", "input", "width", "backend"});
  flags.check_known(known);
}

int cmd_train(const common::Flags& flags) {
  std::vector<std::string> known = {
      "algo", "clients", "rounds", "beta", "seed", "epochs", "lr", "budget",
      "topk", "sample-ratio", "out", "checkpoint-every",
      "ckpt-dir", "ckpt-keep", "ckpt-verify", "no-store-resume",
      "divergence-factor", "metrics-out", "telemetry-every", "trace-out",
      "flight-window", "alert-reject-rate", "alert-shed-rate"};
  known.insert(known.end(), kUplinkFlags.begin(), kUplinkFlags.end());
  check_flags(flags, known);
  const std::string algo = flags.get("algo", "spatl");
  for (const auto& f : kUplinkFlags) {
    if (algo == "local-only" && flags.has(f)) {
      throw std::invalid_argument("--" + f + " does not apply to --algo " +
                                  "local-only, which has no uplink");
    }
  }
  const std::size_t clients = std::size_t(flags.get_int("clients", 10));
  const std::size_t rounds = std::size_t(flags.get_int("rounds", 10));
  const double beta = flags.get_double("beta", 0.5);
  const std::uint64_t seed = std::uint64_t(flags.get_int("seed", 42));

  fl::FlConfig cfg;
  cfg.model = model_config(flags);
  cfg.local.epochs = std::size_t(flags.get_int("epochs", 2));
  cfg.local.batch_size = 16;
  cfg.local.lr = flags.get_double("lr", 0.05);
  cfg.topk_fraction = flags.get_double("topk", cfg.topk_fraction);
  cfg.seed = seed;

  const auto source =
      make_data(cfg.model, clients * 80, seed ^ 0xDA7AULL);
  common::Rng env_rng(seed);
  fl::FlEnvironment env(source, clients, beta, 0.25, env_rng);

  std::unique_ptr<fl::FederatedAlgorithm> algorithm;
  if (algo == "spatl") {
    core::SpatlOptions opts;
    opts.flops_budget = flags.get_double("budget", 0.6);
    opts.agent_finetune_rounds = 2;
    opts.agent_finetune_episodes = 2;
    algorithm = std::make_unique<core::SpatlAlgorithm>(env, cfg, opts);
  } else {
    algorithm = fl::make_baseline(algo, env, cfg);
  }

  fl::RunOptions ro;
  ro.rounds = rounds;
  ro.sample_ratio = flags.get_double("sample-ratio", 1.0);
  ro.backend = flags.get("backend", "");

  // Fault injection is active as soon as any --fault-* rate is set.
  fl::FaultConfig fc;
  fc.dropout_rate = flags.get_double("fault-dropout", 0.0);
  fc.straggler_rate = flags.get_double("fault-straggler", 0.0);
  fc.corruption_rate = flags.get_double("fault-corruption", 0.0);
  fc.loss_rate = flags.get_double("fault-loss", 0.0);
  fc.round_deadline = flags.get_double("fault-deadline", fc.round_deadline);
  fc.seed = std::uint64_t(flags.get_int("fault-seed", 0x5EEDFA17L));
  const std::string kind = flags.get("fault-corruption-kind", "nan");
  if (kind == "inf") fc.corruption_kind = fl::CorruptionKind::kInf;
  else if (kind == "bitflip") fc.corruption_kind = fl::CorruptionKind::kBitFlip;
  else if (kind != "nan") {
    throw std::invalid_argument("unknown --fault-corruption-kind " + kind);
  }
  fc.byzantine_fraction = flags.get_double("byz-fraction", 0.0);
  fc.attack_kind = fl::parse_attack_kind(flags.get("byz-attack", "signflip"));
  fc.attack_scale = flags.get_double("byz-scale", fc.attack_scale);
  fc.attack_noise_std = flags.get_double("byz-noise", fc.attack_noise_std);
  if (fc.any_faults()) ro.faults = fc;

  // Server-side defenses: every run installs them, and unset flags keep
  // ResilienceConfig's defaults.
  fl::ResilienceConfig& rc = ro.resilience;
  rc.min_quorum = std::size_t(flags.get_int("quorum", 1));
  rc.max_update_norm = flags.get_double("max-update-norm", 0.0);
  rc.stale_weight = flags.get_double("stale-weight", rc.stale_weight);
  rc.retry.max_retries = std::size_t(flags.get_int("max-retries", 2));
  rc.retry.backoff_base = flags.get_double("retry-backoff", 0.0);
  rc.retry.backoff_factor =
      flags.get_double("retry-backoff-factor", rc.retry.backoff_factor);
  rc.retry.backoff_max =
      flags.get_double("retry-backoff-max", rc.retry.backoff_max);
  rc.retry.jitter = flags.get_double("retry-jitter", 0.0);
  rc.aggregator = fl::parse_aggregator_kind(flags.get("aggregator", "mean"));
  rc.trim_fraction = flags.get_double("trim-fraction", rc.trim_fraction);
  rc.krum_f = std::size_t(flags.get_int("krum-f", 0));
  rc.multi_krum = std::size_t(flags.get_int("multi-krum", 1));
  rc.clip_norm = flags.get_double("clip-norm", 0.0);
  // Only these flags (or a fault) print the participation summary, so a
  // clean run's output is its round lines and the final line.
  const bool resilience_flags =
      flags.has("quorum") || flags.has("max-update-norm") ||
      flags.has("stale-weight") || flags.has("max-retries") ||
      flags.has("retry-backoff") || flags.has("retry-jitter") ||
      flags.has("aggregator");

  // Semi-asynchronous straggler commit (DESIGN.md §11). Only meaningful
  // alongside a --fault-deadline; harmless (bit-identical) otherwise.
  if (flags.get_bool("async", false)) {
    fl::AsyncConfig ac;
    ac.enabled = true;
    ac.stale_weight =
        flags.get_double("async-stale-weight", ac.stale_weight);
    ac.max_lag = std::size_t(flags.get_int("async-max-lag", int(ac.max_lag)));
    ro.async = ac;
  }
  if (flags.get_bool("escalate", false)) {
    ro.escalation.enabled = true;
    ro.escalation.suspect_threshold = flags.get_double(
        "escalate-threshold", ro.escalation.suspect_threshold);
    ro.escalation.patience = std::size_t(
        flags.get_int("escalate-patience", int(ro.escalation.patience)));
    ro.escalation.aggregator = fl::parse_aggregator_kind(
        flags.get("escalate-aggregator", "median"));
    ro.escalation.reset_after_quiet = std::size_t(
        flags.get_int("escalate-reset-after",
                      int(ro.escalation.reset_after_quiet)));
  }

  // Elastic membership (DESIGN.md §12): any churn rate (or partial initial
  // enrollment) turns on the deterministic churn engine.
  fl::ChurnConfig cc;
  cc.join_rate = flags.get_double("churn-join", 0.0);
  cc.leave_rate = flags.get_double("churn-leave", 0.0);
  cc.return_rate = flags.get_double("churn-return", 0.0);
  cc.initial_fraction = flags.get_double("churn-initial", 1.0);
  cc.return_stale_weight =
      flags.get_double("churn-stale-weight", cc.return_stale_weight);
  cc.staleness_cap = std::size_t(
      flags.get_int("churn-staleness-cap", int(cc.staleness_cap)));
  if (flags.has("churn-seed")) {
    cc.seed = std::uint64_t(flags.get_int("churn-seed", 0));
  }
  if (cc.any_churn()) ro.churn = cc;

  // Per-round admission budget (participant / uplink-byte caps).
  ro.admission.max_participants =
      std::size_t(flags.get_int("admit-max-participants", 0));
  ro.admission.max_uplink_bytes =
      flags.get_double("admit-max-uplink-bytes", 0.0);
  ro.admission.policy =
      fl::parse_admission_policy(flags.get("admit-policy", "shed"));

  ro.fault_aware_sampling = flags.get_bool("fault-aware-sampling", false);
  ro.fault_ema_decay =
      flags.get_double("fault-ema-decay", ro.fault_ema_decay);
  ro.checkpoint_every = std::size_t(flags.get_int("checkpoint-every", 0));
  // Durable generational store (DESIGN.md §13): --ckpt-dir turns it on;
  // commits happen on the --checkpoint-every cadence.
  const std::string ckpt_dir = flags.get("ckpt-dir");
  if (!ckpt_dir.empty()) {
    fl::store::StoreConfig sc;
    sc.dir = ckpt_dir;
    sc.keep_last = std::size_t(flags.get_int("ckpt-keep", int(sc.keep_last)));
    sc.verify_on_commit = flags.get_bool("ckpt-verify", false);
    ro.ckpt_store = sc;
    // Cross-run reuse: pointing a fresh process at the same directory
    // resumes from the newest valid generation automatically;
    // --no-store-resume forces a cold start.
    ro.resume_from_store = !flags.get_bool("no-store-resume", false);
  }
  ro.krum_auto_f = flags.get_bool("krum-auto-f", false);
  ro.divergence_factor = flags.get_double("divergence-factor", 0.0);

  // Telemetry (DESIGN.md §10). Observation only: attaching the sink or
  // enabling the tracer never changes a float of the run.
  std::unique_ptr<obs::JsonlWriter> telemetry;
  const std::string metrics_out = flags.get("metrics-out");
  const std::string trace_out = flags.get("trace-out");
  if (!metrics_out.empty()) {
    telemetry = std::make_unique<obs::JsonlWriter>(metrics_out);
    ro.telemetry = telemetry.get();
    ro.telemetry_every = std::size_t(
        std::max(1, int(flags.get_int("telemetry-every", 1))));
  }
  if (!trace_out.empty()) obs::Tracer::instance().set_enabled(true);

  // Threshold -> alert hook: alert records share the telemetry sink (or
  // are just counted when no --metrics-out was given).
  obs::AlertWatcher alerts(telemetry.get());
  if (flags.has("alert-reject-rate")) {
    alerts.add_rule({"reject_high", "fl.reject_rate",
                     flags.get_double("alert-reject-rate", 0.5), true});
  }
  if (flags.has("alert-shed-rate")) {
    alerts.add_rule({"shed_high", "fl.shed_rate",
                     flags.get_double("alert-shed-rate", 0.5), true});
  }
  if (alerts.rule_count() > 0) ro.alerts = &alerts;

  // Flight recorder: ring of the last N rendered round records, dumped
  // into the telemetry stream as one "flight" record when a divergence
  // rollback or a start-up recovery-ladder exhaustion fires — the
  // rounds leading up to the incident, captured even when
  // --telemetry-every strides past them.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (flags.has("flight-window")) {
    flight = std::make_unique<obs::FlightRecorder>(
        telemetry.get(),
        std::size_t(std::max(1, int(flags.get_int("flight-window", 16)))));
    ro.flight = flight.get();
  }

  const auto result = fl::run_federated(
      *algorithm, ro, [&](std::size_t round, const fl::RoundRecord& rec) {
        std::printf("round %3zu  acc %5.1f%%  loss %.3f  comm %s\n", round,
                    rec.avg_accuracy * 100.0, rec.avg_loss,
                    common::format_bytes(rec.cumulative_bytes).c_str());
      });
  std::printf("\n%s: final %5.1f%% (best %5.1f%%), %s communicated\n",
              algorithm->name().c_str(), result.final_accuracy * 100.0,
              result.best_accuracy * 100.0,
              common::format_bytes(result.comm.total()).c_str());
  if (ro.faults || resilience_flags) {
    std::printf(
        "participation: %zu selected, %zu accepted, %zu dropped, "
        "%zu stragglers, %zu rejected, %zu rounds skipped\n"
        "retry path: %zu retransmissions, %s retransmitted\n",
        result.total("selected"), result.total("accepted"),
        result.total("dropped"), result.total("stragglers"),
        result.total("rejected"),
        result.total("skipped"), result.total("retransmissions"),
        common::format_bytes(result.comm.retransmitted).c_str());
    if (result.total("parked") > 0 || result.buffered_remaining > 0) {
      std::printf(
          "semi-async: %zu parked, %zu committed late, %zu still buffered "
          "at exit\n",
          result.total("parked"), result.total("late_commits"),
          result.buffered_remaining);
    }
    if (result.total("escalated") > 0) {
      std::printf("escalation: %zu rounds under the escalated aggregator\n",
                  result.total("escalated"));
    }
    if (result.total_backoff_wait > 0.0 || result.total("giveups") > 0) {
      std::printf("retry discipline: %.2f total backoff wait, %zu give-ups\n",
                  result.total_backoff_wait, result.total("giveups"));
    }
    if (result.total("attacked") > 0 || result.total("suspected") > 0 ||
        result.total("rolled_back") > 0) {
      std::printf(
          "robustness: %zu attacked uplinks, %zu suspected by the "
          "aggregator, %zu rounds rolled back\n",
          result.total("attacked"), result.total("suspected"),
          result.total("rolled_back"));
    }
  }
  if (ro.churn) {
    std::printf(
        "churn: %zu joined, %zu left, %zu returned, %zu returning "
        "uplinks discounted\n",
        result.total("joined"), result.total("left"), result.total("returned"),
        result.total("returning_discounted"));
  }
  if (ro.admission.limited()) {
    std::printf("admission: %zu shed, %zu deferred (%s policy)\n",
                result.total("shed"), result.total("deferred"),
                fl::admission_policy_name(ro.admission.policy));
  }
  if (ro.ckpt_store) {
    std::printf(
        "durable store: %zu generation(s) committed to %s, %zu commit "
        "failure(s), %zu recovered from disk, %zu ladder attempt(s) "
        "rejected\n",
        result.store_commits, ro.ckpt_store->dir.c_str(),
        result.store_commit_failures, result.recoveries_from_store,
        result.recovery_attempts_failed);
  }
  if (ro.krum_auto_f) {
    std::printf("krum auto-f: final estimate %zu\n", result.krum_f_estimate);
  }
  if (ro.alerts != nullptr) {
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
    obs::JsonObject rec;
    rec.add("type", "metrics")
        .add_raw("metrics",
                 obs::metrics_object(
                     obs::MetricsRegistry::instance().snapshot())
                     .str());
    telemetry->write(rec);
    std::printf("telemetry: %zu records -> %s\n", telemetry->lines(),
                metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    obs::write_chrome_trace(obs::Tracer::instance(), trace_out);
    std::printf("trace written to %s\n", trace_out.c_str());
    obs::Tracer::instance().set_enabled(false);
  }

  const std::string out = flags.get("out");
  if (!out.empty()) {
    models::save_checkpoint(out, algorithm->global_model());
    std::printf("checkpoint written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_evaluate(const common::Flags& flags) {
  check_flags(flags, {"ckpt", "samples", "seed"});
  const std::string ckpt = flags.get("ckpt");
  if (ckpt.empty()) return usage();
  const auto mc = model_config(flags);
  common::Rng rng(1);
  auto model = models::build_model(mc, rng);
  models::load_checkpoint(ckpt, model);
  const auto data =
      make_data(mc, std::size_t(flags.get_int("samples", 200)),
                std::uint64_t(flags.get_int("seed", 42)) ^ 0xDA7AULL);
  const auto r = data::evaluate(model, data);
  std::printf("%s on %zu samples: accuracy %5.1f%%, loss %.3f\n",
              mc.arch.c_str(), r.samples, r.accuracy * 100.0, r.loss);
  return 0;
}

int cmd_prune(const common::Flags& flags) {
  check_flags(flags, {"budget", "seed", "epochs", "rl-rounds"});
  const auto mc = model_config(flags);
  const double budget = flags.get_double("budget", 0.6);
  common::Rng rng(std::uint64_t(flags.get_int("seed", 42)));
  auto model = models::build_model(mc, rng);

  const auto train = make_data(mc, 400, 7);
  const auto val = make_data(mc, 120, 8);
  data::TrainOptions topts;
  topts.epochs = std::size_t(flags.get_int("epochs", 4));
  topts.lr = 0.05;
  data::train_supervised(model, train, topts, rng, model.all_params());
  const double dense_acc = data::evaluate(model, val).accuracy;

  rl::PruningEnv env(model, val, {.flops_budget = budget});
  rl::PpoAgent agent(graph::kNumNodeFeatures, rl::PpoConfig{},
                     std::uint64_t(flags.get_int("seed", 42)) ^ 0xA6E47ULL);
  const auto hist = rl::train_on_pruning(
      agent, env, std::size_t(flags.get_int("rl-rounds", 6)), 3);
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

int cmd_info(const common::Flags& flags) {
  check_flags(flags, {});
  const auto mc = model_config(flags);
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  common::set_log_level(common::LogLevel::kWarn);
  try {
    common::Flags flags(argc, argv, 2);
    // Backend selection applies to every subcommand: evaluate/prune/info run
    // the same GEMM kernels as training. train additionally records it in
    // RunOptions so the runner re-pins it before the round loop.
    const std::string backend = flags.get("backend", "");
    if (!backend.empty()) {
      tensor::set_active_backend(tensor::parse_backend(backend));
    }
    if (cmd == "train") return cmd_train(flags);
    if (cmd == "evaluate") return cmd_evaluate(flags);
    if (cmd == "prune") return cmd_prune(flags);
    if (cmd == "info") return cmd_info(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
