#include "fl/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/log.hpp"
#include "obs/alert.hpp"
#include "tensor/backend.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spatl::fl {

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kShed: return "shed";
    case AdmissionPolicy::kDefer: return "defer";
  }
  return "unknown";
}

AdmissionPolicy parse_admission_policy(const std::string& name) {
  if (name == "shed") return AdmissionPolicy::kShed;
  if (name == "defer") return AdmissionPolicy::kDefer;
  throw std::invalid_argument("unknown admission policy '" + name +
                              "' (shed|defer)");
}

namespace {

std::string ids_array(const std::vector<std::size_t>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  out += ']';
  return out;
}

void accumulate(RunResult& result, const RoundStats& stats) {
  result.total_selected += stats.selected;
  result.total_dropped += stats.dropped;
  result.total_stragglers += stats.stragglers;
  result.total_accepted += stats.accepted;
  result.total_rejected += stats.rejected_total();
  result.total_retransmissions += stats.retransmissions;
  result.total_attacked += stats.attackers.size();
  result.total_suspected += stats.suspects.size();
  result.total_parked += stats.parked;
  result.total_late_commits += stats.late_commits;
  result.total_dedup_dropped += stats.dedup_dropped;
  result.total_joined += stats.joined;
  result.total_left += stats.left;
  result.total_returned += stats.returned;
  result.total_returning_discounted += stats.returning_discounted;
  result.total_shed += stats.shed;
  result.total_deferred += stats.admission_deferred;
  result.total_backoff_wait += stats.backoff_wait;
  result.total_giveups += stats.giveups.size();
  for (const std::size_t c : stats.giveups) {
    if (c < result.client_giveups.size()) ++result.client_giveups[c];
  }
  if (stats.skipped) ++result.rounds_skipped;
  if (stats.rolled_back) ++result.rounds_rolled_back;
  if (stats.escalated) ++result.rounds_escalated;
}

/// Distribution bounds (ms) for the per-phase latency histograms exported
/// through MetricsRegistry alongside the per-round JSONL phase totals.
const std::vector<double>& phase_latency_bounds_ms() {
  static const std::vector<double> kBounds = {
      0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
      5000.0};
  return kBounds;
}

/// True for the round phases whose latency distribution is worth a
/// histogram (training, uplink simulation, aggregation, buffer drain).
bool histogram_phase(const std::string& name) {
  return name == "fl/train" || name == "fl/uplink" ||
         name == "fl/aggregate" || name == "fl/buffer";
}

bool contains(const std::vector<std::size_t>& v, std::size_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Weighted sampling without replacement: `count` distinct indices drawn
/// proportionally to `weights` (already floored > 0). Output sorted so the
/// algorithms' per-client iteration order is stable.
std::vector<std::size_t> weighted_sample_without_replacement(
    common::Rng& rng, std::vector<double> weights, std::size_t count) {
  count = std::min(count, weights.size());
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    std::size_t pick = rng.categorical(weights);
    if (weights[pick] <= 0.0) {
      // Exact-zero uniform draw can land on an exhausted slot; take the
      // first live one instead of double-selecting.
      for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] > 0.0) {
          pick = i;
          break;
        }
      }
    }
    out.push_back(pick);
    weights[pick] = 0.0;  // removed from the pool
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

RunResult run_federated(FederatedAlgorithm& algo, const RunOptions& opts,
                        const RoundCallback& callback) {
  RunResult result;
  // Pin the compute backend before any kernel runs: every GEMM in the round
  // loop (client training, evaluation, the divergence guard's probe pass)
  // must execute on one backend for the run to be bit-replayable.
  if (!opts.backend.empty()) {
    tensor::set_active_backend(tensor::parse_backend(opts.backend));
  }
  common::Rng sampler(opts.sampling_seed);
  const std::size_t num_clients = algo.environment().num_clients();
  result.client_giveups.assign(num_clients, 0);
  // Guard the participant count: clamp the ratio into [0, 1] and the count
  // into [1, num_clients] so no ratio can ever select zero clients.
  const double ratio = std::clamp(opts.sample_ratio, 0.0, 1.0);
  const std::size_t per_round = std::clamp<std::size_t>(
      std::size_t(std::ceil(ratio * double(num_clients))), 1, num_clients);

  std::optional<FaultModel> faults;
  if (opts.faults) faults.emplace(*opts.faults);
  const bool defended = opts.faults.has_value() || opts.resilience.has_value();
  const ResilienceConfig resilience =
      opts.resilience ? *opts.resilience : ResilienceConfig{};
  // The policy actually installed this round: starts at `resilience` and is
  // upgraded in place when the escalation tracker trips (downgraded again
  // by the opt-in quiet-streak de-escalation).
  ResilienceConfig current = resilience;
  const std::size_t quorum = std::max<std::size_t>(1, resilience.min_quorum);
  if (defended) {
    algo.set_fault_injection(faults ? &*faults : nullptr, current);
  }
  // Semi-async straggler commit: every algorithm on the client-round
  // skeleton can park and replay updates.
  const bool async_on = opts.async.has_value() && opts.async->enabled;
  if (async_on) algo.set_async(*opts.async);
  EscalationTracker escalation(opts.escalation);
  const bool guard = opts.divergence_factor > 0.0;

  // Durable generational store: periodic checkpoints are additionally
  // committed as CRC-verified generations, and the failover drill recovers
  // through the ladder instead of trusting in-memory state.
  std::optional<store::CheckpointStore> store;
  if (opts.ckpt_store && opts.ckpt_store->enabled()) {
    store.emplace(*opts.ckpt_store, opts.store_io, opts.telemetry);
  }

  // Attack-aware Krum f auto-tuning: per-client count of rounds in which
  // the robust aggregator excluded the client. Repeat suspects (>= 2
  // rounds) estimate the live Byzantine population; one-off exclusions are
  // Krum's normal selection noise and are ignored.
  const bool krum_auto = opts.krum_auto_f && defended;
  std::vector<std::uint64_t> suspect_rounds(num_clients, 0);
  result.krum_f_estimate = resilience.krum_f;
  const auto retune_krum = [&]() {
    if (!krum_auto) return;
    std::size_t estimate = 0;
    for (const std::uint64_t r : suspect_rounds) {
      if (r >= 2) ++estimate;
    }
    // Krum needs n - f - 2 >= 1 scoring neighbours; clamp against the
    // nominal cohort so a noisy ledger can never wedge the aggregator.
    const std::size_t upper = per_round > 3 ? per_round - 3 : 0;
    const std::size_t f =
        std::max(resilience.krum_f, std::min(estimate, upper));
    result.krum_f_estimate = f;
    if (f != current.krum_f) {
      current.krum_f = f;
      algo.set_fault_injection(faults ? &*faults : nullptr, current);
      common::log_debug(algo.name(), " krum auto-tune: f -> ", f, " (",
                        estimate, " repeat suspect(s))");
    }
  };

  // Elastic membership: the engine materializes its deterministic trace up
  // front; the runner replays it round by round and samples from the
  // enrolled set only. At full enrollment the index map is the identity and
  // the sampling draws match the static-population path bit for bit.
  std::optional<ChurnEngine> churn;
  if (opts.churn) {
    churn.emplace(*opts.churn, opts.rounds, num_clients);
    // Off-switch contract: a config whose materialized trace is empty is
    // indistinguishable from no churn at all — same sampling path, same
    // telemetry bytes, same checkpoint entries.
    if (churn->trace().empty()) churn.reset();
  }
  if (churn) algo.set_churn(&*churn);
  const bool admission_on = opts.admission.limited();
  std::vector<std::size_t> defer_queue;  // budget-deferred clients

  // Per-client failure EMA for fault-aware sampling (satellite): dropped,
  // lost, or rejected uplinks raise it; clean rounds decay it.
  std::vector<double> fail_ema(num_clients, 0.0);
  const double ema_decay = std::clamp(opts.fault_ema_decay, 0.0, 1.0);

  double prev_loss = std::numeric_limits<double>::quiet_NaN();

  // Full-state snapshot after `round`: everything load-bearing for the
  // remaining rounds, so a resume (or an injected crash recovery) replays
  // the uninterrupted run bit for bit.
  const auto write_checkpoint = [&](std::size_t round) {
    RunCheckpoint ckpt;
    algo.save_state(ckpt);
    ckpt.entries.push_back(pack_u64s("run/round", {std::uint64_t(round)}));
    ckpt.entries.push_back(pack_rng("run/sampler_rng", sampler));
    const CommSnapshot lg = algo.ledger().snapshot();
    ckpt.entries.push_back(pack_doubles(
        "run/ledger", {lg.uplink, lg.downlink, lg.retransmitted}));
    ckpt.entries.push_back(pack_doubles("run/ema", fail_ema));
    ckpt.entries.push_back(pack_u64s(
        "run/totals",
        {std::uint64_t(result.total_selected),
         std::uint64_t(result.total_dropped),
         std::uint64_t(result.total_stragglers),
         std::uint64_t(result.total_accepted),
         std::uint64_t(result.total_rejected),
         std::uint64_t(result.total_retransmissions),
         std::uint64_t(result.rounds_skipped),
         std::uint64_t(result.total_attacked),
         std::uint64_t(result.total_suspected),
         std::uint64_t(result.rounds_rolled_back),
         std::uint64_t(result.total_parked),
         std::uint64_t(result.total_late_commits),
         std::uint64_t(result.rounds_escalated),
         std::uint64_t(result.total_dedup_dropped),
         std::uint64_t(result.total_joined),
         std::uint64_t(result.total_left),
         std::uint64_t(result.total_returned),
         std::uint64_t(result.total_returning_discounted),
         std::uint64_t(result.total_shed),
         std::uint64_t(result.total_deferred),
         std::uint64_t(result.total_giveups)}));
    ckpt.entries.push_back(
        pack_doubles("run/series", {result.best_accuracy,
                                    result.final_accuracy, prev_loss,
                                    result.total_backoff_wait}));
    ckpt.entries.push_back(pack_u64s(
        "run/escalation", {std::uint64_t(escalation.streak()),
                           std::uint64_t(escalation.active() ? 1 : 0),
                           std::uint64_t(escalation.quiet_streak())}));
    if (!defer_queue.empty()) {
      std::vector<std::uint64_t> q(defer_queue.begin(), defer_queue.end());
      ckpt.entries.push_back(pack_u64s("run/admission_carryover", q));
    }
    if (krum_auto) {
      ckpt.entries.push_back(pack_u64s("run/krum_ledger", suspect_rounds));
    }
    if (churn) churn->save(ckpt, "run/churn/");
    if (result.total_giveups > 0) {
      std::vector<std::uint64_t> g(result.client_giveups.begin(),
                                   result.client_giveups.end());
      ckpt.entries.push_back(pack_u64s("run/giveups", g));
    }
    return ckpt;
  };

  // Inverse of write_checkpoint: rebuild every piece of loop state from a
  // snapshot (shared by the resume path and the crash-recovery drill).
  // Returns the round the snapshot was taken after.
  const auto restore_checkpoint = [&](const RunCheckpoint& ckpt) {
    algo.load_state(ckpt);
    const std::size_t ckpt_round =
        std::size_t(unpack_u64s(ckpt.at("run/round"))[0]);
    unpack_rng(ckpt.at("run/sampler_rng"), sampler);
    const auto lg = unpack_doubles(ckpt.at("run/ledger"));
    algo.ledger().restore(lg[0], lg[1], lg[2]);
    const auto ema = unpack_doubles(ckpt.at("run/ema"));
    if (ema.size() == num_clients) fail_ema = ema;
    const auto totals = unpack_u64s(ckpt.at("run/totals"));
    // Older checkpoints carry shorter vectors (pre-async: 10, pre-churn:
    // 13); absent entries restore as zero.
    const auto tot = [&](std::size_t i) {
      return i < totals.size() ? std::size_t(totals[i]) : std::size_t(0);
    };
    result.total_selected = tot(0);
    result.total_dropped = tot(1);
    result.total_stragglers = tot(2);
    result.total_accepted = tot(3);
    result.total_rejected = tot(4);
    result.total_retransmissions = tot(5);
    result.rounds_skipped = tot(6);
    result.total_attacked = tot(7);
    result.total_suspected = tot(8);
    result.rounds_rolled_back = tot(9);
    result.total_parked = tot(10);
    result.total_late_commits = tot(11);
    result.rounds_escalated = tot(12);
    result.total_dedup_dropped = tot(13);
    result.total_joined = tot(14);
    result.total_left = tot(15);
    result.total_returned = tot(16);
    result.total_returning_discounted = tot(17);
    result.total_shed = tot(18);
    result.total_deferred = tot(19);
    result.total_giveups = tot(20);
    const auto series = unpack_doubles(ckpt.at("run/series"));
    result.best_accuracy = series[0];
    result.final_accuracy = series[1];
    prev_loss = series[2];
    result.total_backoff_wait = series.size() >= 4 ? series[3] : 0.0;
    if (const auto* esc = ckpt.find("run/escalation")) {
      const auto state = unpack_u64s(*esc);
      escalation.restore(std::size_t(state[0]), state[1] != 0,
                         state.size() >= 3 ? std::size_t(state[2]) : 0);
    } else {
      escalation.restore(0, false, 0);
    }
    // Re-arm the aggregation rule the snapshot was running under — escalated
    // or (after a crash that rolled past a de-escalation) the base rule.
    current = resilience;
    if (defended && escalation.active()) {
      current.aggregator = opts.escalation.aggregator;
    }
    if (defended) {
      algo.set_fault_injection(faults ? &*faults : nullptr, current);
    }
    if (krum_auto) {
      suspect_rounds.assign(num_clients, 0);
      if (const auto* t = ckpt.find("run/krum_ledger")) {
        const auto v = unpack_u64s(*t);
        for (std::size_t i = 0;
             i < std::min<std::size_t>(v.size(), num_clients); ++i) {
          suspect_rounds[i] = v[i];
        }
      }
      retune_krum();
    }
    defer_queue.clear();
    if (const auto* t = ckpt.find("run/admission_carryover")) {
      for (const std::uint64_t c : unpack_u64s(*t)) {
        defer_queue.push_back(std::size_t(c));
      }
    }
    if (churn) churn->load(ckpt, "run/churn/");
    result.client_giveups.assign(num_clients, 0);
    if (const auto* t = ckpt.find("run/giveups")) {
      const auto g = unpack_u64s(*t);
      for (std::size_t i = 0; i < std::min<std::size_t>(g.size(), num_clients);
           ++i) {
        result.client_giveups[i] = std::size_t(g[i]);
      }
    }
    return ckpt_round;
  };

  std::size_t start_round = 1;
  if (opts.resume != nullptr && !opts.resume->empty()) {
    start_round = restore_checkpoint(*opts.resume) + 1;
  } else if (store && opts.resume_from_store) {
    // Cross-run reuse: a fresh process pointed at an existing checkpoint
    // directory resumes from the newest generation that survives the
    // ladder. No generations (cold start) or all-corrupt leaves
    // start_round at 1 — identical to a run without the flag.
    std::size_t recovered = 0;
    const store::RecoveryOutcome rec = store->recover_latest(
        [&](const RunCheckpoint& c, const store::Generation&) {
          recovered = restore_checkpoint(c);
        });
    result.recovery_attempts_failed += rec.failed_attempts;
    if (rec.applied) {
      ++result.recoveries_from_store;
      start_round = recovered + 1;
    } else if (rec.failed_attempts > 0 && opts.flight != nullptr) {
      // Every generation in the directory was rejected: the window is
      // empty this early, but the exhaustion itself is worth a record.
      opts.flight->dump("recovery_exhausted", 0);
    }
  }

  // Failover drills: the pre-loop baseline covers a crash injected before
  // the first periodic checkpoint exists.
  const bool drills = !opts.crash_at_rounds.empty();
  RunCheckpoint baseline;
  if (drills) baseline = write_checkpoint(start_round - 1);
  std::vector<std::uint8_t> crash_fired(opts.rounds + 1, 0);

  obs::Tracer& tracer = obs::Tracer::instance();
  const std::size_t telemetry_stride =
      std::max<std::size_t>(1, opts.telemetry_every);

  const bool flight_on = opts.flight != nullptr;

  for (std::size_t round = start_round; round <= opts.rounds; ++round) {
    const bool telemetry_round =
        opts.telemetry != nullptr &&
        (round % telemetry_stride == 0 || round == opts.rounds);
    // The flight recorder keeps EVERY round's rendered record in its ring
    // (stride-independent), so a record is built whenever either consumer
    // is attached.
    const bool render_record = telemetry_round || flight_on;
    CommSnapshot comm_start;
    std::uint64_t trace_start = 0;
    if (render_record) {
      comm_start = algo.ledger().snapshot();
      trace_start = tracer.cursor();
    }

    // Membership events apply at round start regardless of what the round
    // does afterwards (a skipped round still ages the population).
    ChurnDelta cdelta;
    if (churn) cdelta = churn->advance(round);

    RoundStats stats;
    std::optional<EvalSummary> round_eval;
    bool stop = false;
    {
      // Scoped so the round span completes before phase attribution reads
      // the tracer below.
      SPATL_TRACE_SPAN("fl/round");

      std::vector<std::size_t> selected;
      {
        SPATL_TRACE_SPAN("fl/sample");
        if (churn) {
          // Sample from the enrolled population only, mapping draw indices
          // through the ascending enrolled list: at full enrollment the map
          // is the identity and the draw sequence matches the static path.
          const std::vector<std::size_t>& pool = churn->enrolled();
          if (!pool.empty()) {
            const std::size_t pool_count = std::clamp<std::size_t>(
                std::size_t(std::ceil(ratio * double(pool.size()))),
                std::size_t(1), pool.size());
            if (opts.fault_aware_sampling) {
              std::vector<double> weights(pool.size(), 1.0);
              for (std::size_t k = 0; k < pool.size(); ++k) {
                weights[k] = std::max(opts.fault_sampling_floor,
                                      1.0 - fail_ema[pool[k]]);
              }
              selected = weighted_sample_without_replacement(sampler, weights,
                                                             pool_count);
            } else {
              selected =
                  sampler.sample_without_replacement(pool.size(), pool_count);
            }
            for (std::size_t& s : selected) s = pool[s];
          }
        } else if (opts.fault_aware_sampling) {
          // Selection weight shrinks with the failure EMA but never below
          // the floor: flaky clients are down-weighted, not starved.
          std::vector<double> weights(num_clients, 1.0);
          for (std::size_t i = 0; i < num_clients; ++i) {
            weights[i] =
                std::max(opts.fault_sampling_floor, 1.0 - fail_ema[i]);
          }
          selected =
              weighted_sample_without_replacement(sampler, weights, per_round);
        } else {
          selected =
              sampler.sample_without_replacement(num_clients, per_round);
        }
      }

      // Budget-deferred clients join ahead of the fresh sample (they were
      // already committed to this cohort; departing mid-queue drops them).
      if (admission_on && !defer_queue.empty()) {
        std::vector<std::size_t> merged;
        merged.reserve(defer_queue.size() + selected.size());
        for (const std::size_t c : defer_queue) {
          if (churn && !churn->is_enrolled(c)) continue;
          if (!contains(merged, c)) merged.push_back(c);
        }
        for (const std::size_t c : selected) {
          if (!contains(merged, c)) merged.push_back(c);
        }
        selected = std::move(merged);
        defer_queue.clear();
      }

      // Admission: drop clients unavailable this round, flag stragglers.
      RoundStats admission;
      admission.selected = selected.size();
      admission.joined = cdelta.joined;
      admission.left = cdelta.left;
      admission.returned = cdelta.returned;
      if (churn) admission.enrolled = churn->enrolled().size();
      std::vector<std::size_t> active;
      std::vector<std::size_t> dropped_ids;
      if (faults && faults->enabled()) {
        active.reserve(selected.size());
        for (const std::size_t i : selected) {
          const ClientFault f = faults->assess(round, i);
          if (f.fate == ClientFate::kUnavailable) {
            ++admission.dropped;
            dropped_ids.push_back(i);
            continue;
          }
          if (f.fate == ClientFate::kStraggler) ++admission.stragglers;
          active.push_back(i);
        }
      } else {
        active = selected;
      }

      // Overload admission control: cap the round's uplinks by participant
      // count and estimated uplink bytes; excess clients — picked by a
      // round-keyed rotation so no id is systematically starved — are shed
      // outright or deferred into the next round's cohort.
      bool budget_exhausted = false;
      if (admission_on && !active.empty()) {
        std::size_t cap = active.size();
        if (opts.admission.max_participants > 0) {
          cap = std::min(cap, opts.admission.max_participants);
        }
        if (opts.admission.max_uplink_bytes > 0.0) {
          const double per_uplink = 4.0 * double(algo.uplink_cost_floats());
          const std::size_t by_bytes =
              per_uplink > 0.0 ? std::size_t(opts.admission.max_uplink_bytes /
                                             per_uplink)
                               : active.size();
          cap = std::min(cap, by_bytes);
        }
        if (cap < active.size()) {
          const std::size_t excess = active.size() - cap;
          const std::size_t start = round % active.size();
          std::vector<std::uint8_t> drop(active.size(), 0);
          for (std::size_t k = 0; k < excess; ++k) {
            drop[(start + k) % active.size()] = 1;
          }
          std::vector<std::size_t> kept;
          std::vector<std::size_t> over;
          kept.reserve(cap);
          over.reserve(excess);
          for (std::size_t k = 0; k < active.size(); ++k) {
            (drop[k] ? over : kept).push_back(active[k]);
          }
          active = std::move(kept);
          if (opts.admission.policy == AdmissionPolicy::kDefer) {
            admission.admission_deferred = over.size();
            defer_queue = std::move(over);
          } else {
            admission.shed = over.size();
          }
          budget_exhausted = active.empty();
        }
      }

      stats = admission;
      std::optional<EvalSummary> guard_eval;
      // Admission gate: buffered updates due this round count toward the
      // quorum — a round carried by late commits alone is still a round.
      const std::size_t due = async_on ? algo.buffered_due(round) : 0;
      if (active.size() + due < quorum) {
        // Not enough live participants to even start: skip the round and
        // leave the global model untouched (parked updates stay buffered
        // and drain in the next round that clears admission).
        stats.skipped = true;
        stats.skip_reason = budget_exhausted
                                ? SkipReason::kAdmissionBudget
                                : SkipReason::kAdmissionQuorum;
        stats.buffer_depth = algo.buffered_total();
        common::log_debug(algo.name(), " round ", round,
                          " skipped below quorum (", active.size(), "+", due,
                          "/", quorum, ", ", skip_reason_name(stats.skip_reason),
                          ")");
      } else {
        // Pre-round snapshot for the divergence guard: algorithm state plus
        // ledger counters, so a rolled-back round leaves no trace (bytes are
        // metered once, by the re-run).
        RunCheckpoint snapshot;
        CommSnapshot ledger_snap;
        if (guard) {
          algo.save_state(snapshot);
          ledger_snap = algo.ledger().snapshot();
        }
        // Churn piggybacks on the defended path's per-round stats plumbing
        // (returning-client discounts are attributed in deliver_update);
        // begin_round/round_stats never touch a float, so reading them on
        // the clean-with-churn path costs nothing.
        if (defended || churn) algo.begin_round(round, admission);
        algo.run_round(active);
        if (defended || churn) stats = algo.round_stats();
        if (guard) {
          EvalSummary eval = algo.evaluate_clients();
          const bool exploded =
              !std::isfinite(eval.avg_loss) ||
              (std::isfinite(prev_loss) && prev_loss > 0.0 &&
               eval.avg_loss > opts.divergence_factor * prev_loss);
          if (exploded) {
            common::log_debug(algo.name(), " round ", round,
                              " diverged (loss ", eval.avg_loss,
                              "), rolling back and re-aggregating with ",
                              aggregator_kind_name(opts.divergence_fallback));
            algo.load_state(snapshot);
            algo.ledger().restore(ledger_snap);
            ResilienceConfig fallback = current;
            fallback.aggregator = opts.divergence_fallback;
            algo.set_fault_injection(faults ? &*faults : nullptr, fallback);
            algo.begin_round(round, admission);
            algo.run_round(active);
            stats = algo.round_stats();
            stats.rolled_back = true;
            // Post-mortem window: the rounds that led into the explosion
            // (this round's own record is rendered after the dump).
            if (flight_on) opts.flight->dump("divergence_rollback", round);
            if (defended) {
              algo.set_fault_injection(faults ? &*faults : nullptr, current);
            } else {
              algo.clear_fault_injection();
            }
            eval = algo.evaluate_clients();
          }
          prev_loss = eval.avg_loss;
          guard_eval = eval;
        }
      }
      // Adaptive escalation (defended path only): this round ran under the
      // rule selected so far; its stats then feed the tracker, and a trip
      // upgrades the aggregator for every round that follows (one-way
      // unless a quiet streak de-escalates).
      stats.escalated = defended && escalation.active();
      if (defended) {
        switch (escalation.observe(stats)) {
          case EscalationTracker::Action::kEscalate:
            current.aggregator = opts.escalation.aggregator;
            algo.set_fault_injection(faults ? &*faults : nullptr, current);
            common::log_debug(algo.name(), " round ", round,
                              " escalating aggregator to ",
                              aggregator_kind_name(current.aggregator));
            break;
          case EscalationTracker::Action::kDeescalate:
            current.aggregator = resilience.aggregator;
            algo.set_fault_injection(faults ? &*faults : nullptr, current);
            common::log_debug(algo.name(), " round ", round,
                              " quiet streak elapsed, de-escalating to ",
                              aggregator_kind_name(current.aggregator));
            break;
          case EscalationTracker::Action::kNone:
            break;
        }
      }
      accumulate(result, stats);

      if (krum_auto && !stats.suspects.empty()) {
        // One ledger tick per client per round, however many aggregate
        // calls excluded it (multi-tensor algorithms may call the robust
        // rule more than once).
        std::vector<std::size_t> uniq = stats.suspects;
        std::sort(uniq.begin(), uniq.end());
        uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
        for (const std::size_t c : uniq) {
          if (c < num_clients) ++suspect_rounds[c];
        }
        retune_krum();
      }

      // Threshold->alert hook: derived per-round rates, fed only when a
      // watcher is installed (pure observation).
      if (opts.alerts != nullptr) {
        const double delivered =
            double(std::max<std::size_t>(1, stats.delivered));
        opts.alerts->observe("fl.reject_rate",
                             double(stats.rejected_total()) / delivered,
                             std::uint64_t(round));
        const double selected_base =
            double(std::max<std::size_t>(1, stats.selected));
        opts.alerts->observe(
            "fl.shed_rate",
            double(stats.shed + stats.admission_deferred) / selected_base,
            std::uint64_t(round));
      }

      if (opts.fault_aware_sampling) {
        for (const std::size_t i : selected) {
          const bool failed = contains(dropped_ids, i) ||
                              contains(stats.rejected_clients, i);
          fail_ema[i] = ema_decay * fail_ema[i] +
                        (1.0 - ema_decay) * (failed ? 1.0 : 0.0);
        }
      }

      if (round % opts.eval_every == 0 || round == opts.rounds) {
        const EvalSummary eval =
            guard_eval ? *guard_eval : algo.evaluate_clients();
        round_eval = eval;
        RoundRecord rec;
        rec.round = round;
        rec.avg_accuracy = eval.avg_accuracy;
        rec.avg_loss = eval.avg_loss;
        rec.cumulative_bytes = algo.ledger().total_bytes();
        rec.stats = stats;
        result.history.push_back(rec);
        result.final_accuracy = eval.avg_accuracy;
        result.best_accuracy = std::max(result.best_accuracy,
                                        eval.avg_accuracy);
        if (callback) callback(round, rec);
        common::log_debug(algo.name(), " round ", round, " acc ",
                          eval.avg_accuracy);
        if (opts.target_accuracy && !result.rounds_to_target &&
            eval.avg_accuracy >= *opts.target_accuracy) {
          result.rounds_to_target = round;
          stop = true;
        }
      }

      if (!stop && opts.checkpoint_every > 0 &&
          round % opts.checkpoint_every == 0) {
        SPATL_TRACE_SPAN("fl/checkpoint");
        RunCheckpoint ckpt = write_checkpoint(round);
        if (!opts.checkpoint_path.empty()) ckpt.save(opts.checkpoint_path);
        if (store) {
          // A rejected commit (ENOSPC, failed read-back verification) is
          // counted and moved past — the previous generations still stand,
          // and the in-memory snapshot below keeps the legacy path whole.
          if (store->commit(round, ckpt)) {
            ++result.store_commits;
          } else {
            ++result.store_commit_failures;
          }
        }
        result.last_checkpoint = std::move(ckpt);
        ++result.checkpoints_written;
      }
    }

    if (render_record) {
      // One unified record per telemetry round: participation/failure
      // stats, ledger byte deltas, robust-aggregation attribution,
      // divergence-guard actions, and (when tracing) per-phase wall times.
      const CommSnapshot delta = algo.ledger().snapshot().since(comm_start);
      obs::JsonObject comm;
      comm.add("uplink_bytes", delta.uplink)
          .add("downlink_bytes", delta.downlink)
          .add("retransmitted_bytes", delta.retransmitted)
          .add("cumulative_bytes", algo.ledger().total_bytes());
      obs::JsonObject rec;
      rec.add("type", "round")
          .add("algo", algo.name())
          .add("round", std::uint64_t(round))
          .add("selected", std::uint64_t(stats.selected))
          .add("dropped", std::uint64_t(stats.dropped))
          .add("stragglers", std::uint64_t(stats.stragglers))
          .add("accepted", std::uint64_t(stats.accepted))
          .add("rejected", std::uint64_t(stats.rejected_total()))
          .add("retransmissions", std::uint64_t(stats.retransmissions))
          .add("clipped", std::uint64_t(stats.clipped))
          .add("parked", std::uint64_t(stats.parked))
          .add("late_commits", std::uint64_t(stats.late_commits))
          .add("buffer_depth", std::uint64_t(stats.buffer_depth))
          .add("skipped", stats.skipped)
          .add("rolled_back", stats.rolled_back)
          .add("escalated", stats.escalated)
          .add_raw("attackers", ids_array(stats.attackers))
          .add_raw("suspects", ids_array(stats.suspects))
          .add_raw("comm", comm.str());
      // Feature-gated fields: each block appears only when its subsystem is
      // configured, so a run with everything off emits byte-identical
      // records to the pre-churn telemetry schema.
      if (async_on) {
        rec.add("dedup_dropped", std::uint64_t(stats.dedup_dropped));
      }
      if (churn) {
        rec.add("enrolled", std::uint64_t(stats.enrolled))
            .add("joined", std::uint64_t(stats.joined))
            .add("left", std::uint64_t(stats.left))
            .add("returned", std::uint64_t(stats.returned))
            .add("returning_discounted",
                 std::uint64_t(stats.returning_discounted));
      }
      if (admission_on) {
        rec.add("shed", std::uint64_t(stats.shed))
            .add("admission_deferred",
                 std::uint64_t(stats.admission_deferred));
      }
      if (resilience.retry.backoff_base > 0.0) {
        rec.add("backoff_wait", stats.backoff_wait);
      }
      if (stats.skipped) {
        rec.add("skip_reason", skip_reason_name(stats.skip_reason));
      }
      if (stats.rolled_back) {
        rec.add("fallback", aggregator_kind_name(opts.divergence_fallback));
      }
      if (stats.escalated) {
        rec.add("aggregator", aggregator_kind_name(current.aggregator));
      }
      if (round_eval) {
        rec.add_raw("eval",
                    obs::JsonObject()
                        .add("avg_accuracy", round_eval->avg_accuracy)
                        .add("avg_loss", round_eval->avg_loss)
                        .str());
      }
      if (tracer.enabled()) {
        obs::JsonObject phases;
        auto& registry = obs::MetricsRegistry::instance();
        for (const auto& phase : tracer.phase_totals(trace_start)) {
          phases.add_raw(phase.name, obs::JsonObject()
                                         .add("total_ns", phase.total_ns)
                                         .add("count", phase.count)
                                         .str());
          // Cumulative per-phase latency distribution (one sample per
          // telemetry round) — lands in the end-of-run "metrics" record of
          // the same JSONL stream via metrics_object(). The fixed-bucket
          // histogram gives the coarse shape; the log-bucket sketch
          // refines it into percentiles with bounded relative error.
          if (histogram_phase(phase.name)) {
            std::string metric = phase.name;
            for (char& c : metric) {
              if (c == '/') c = '.';
            }
            const double ms = double(phase.total_ns) / 1.0e6;
            registry.histogram(metric + ".round_ms", phase_latency_bounds_ms())
                .record(ms);
            registry.sketch(metric + ".round_ms").record(ms);
          }
        }
        rec.add_raw("phases", phases.str());
      }
      if (telemetry_round) opts.telemetry->write(rec);
      if (flight_on) {
        opts.flight->record_round(std::uint64_t(round), rec.str());
      }
    }

    // Failover drill: lose the server at the end of this round, once. All
    // in-memory progress since the last durable checkpoint is discarded and
    // the loop resumes from the snapshot — the recovery path a real crash
    // would take, exercised inside one run_federated call.
    if (drills && round < crash_fired.size() &&
        contains(opts.crash_at_rounds, round) && !crash_fired[round]) {
      crash_fired[round] = 1;
      // The flight window is most valuable at the moment of the crash —
      // dump it before recovery rewinds the loop and overwrites history.
      if (flight_on) opts.flight->dump("crash_drill", std::uint64_t(round));
      std::size_t recovered = 0;
      std::string crash_source;
      if (store) {
        // Durable-first recovery: a real crash loses the process, so the
        // in-memory snapshot is off limits — the generational ladder
        // decides what survives, and only when every generation is corrupt
        // (or none was ever committed) does the drill fall back to the
        // deterministic pre-loop baseline.
        const store::RecoveryOutcome rec = store->recover_latest(
            [&](const RunCheckpoint& c, const store::Generation&) {
              recovered = restore_checkpoint(c);
            });
        result.recovery_attempts_failed += rec.failed_attempts;
        if (rec.applied) {
          ++result.recoveries_from_store;
          crash_source = "store";
        } else {
          recovered = restore_checkpoint(baseline);
          crash_source = "baseline";
          if (flight_on) {
            opts.flight->dump("recovery_exhausted", std::uint64_t(round));
          }
        }
      } else {
        const RunCheckpoint& source =
            result.last_checkpoint.empty() ? baseline
                                           : result.last_checkpoint;
        recovered = restore_checkpoint(source);
      }
      ++result.crashes_injected;
      while (!result.history.empty() &&
             result.history.back().round > recovered) {
        result.history.pop_back();
      }
      if (result.rounds_to_target && *result.rounds_to_target > recovered) {
        result.rounds_to_target.reset();
      }
      stop = false;
      if (opts.telemetry != nullptr) {
        obs::JsonObject rec;
        rec.add("type", "crash")
            .add("algo", algo.name())
            .add("round", std::uint64_t(round))
            .add("recovered_to", std::uint64_t(recovered));
        // Feature-gated so store-off crash records keep the legacy bytes.
        if (!crash_source.empty()) rec.add("source", crash_source);
        opts.telemetry->write(rec);
      }
      common::log_debug(algo.name(), " server crash injected at round ",
                        round, ", recovered to round ", recovered);
      round = recovered;  // the loop increment resumes at recovered + 1
      continue;
    }
    if (stop) break;
  }
  result.comm = algo.ledger().snapshot();
  result.total_bytes = result.comm.total();
  result.retransmitted_bytes = result.comm.retransmitted;
  result.buffered_remaining = algo.buffered_total();
  if (async_on) algo.clear_async();
  if (churn) algo.clear_churn();
  if (defended) algo.clear_fault_injection();
  return result;
}

}  // namespace spatl::fl
