#include "fl/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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

// ---------------------------------------------------------- run counters --

// How one round adds to a total: a count, the size of an id list, or a
// flag that counts as 1.
template <std::size_t RoundStats::*kField>
std::size_t count_of(const RoundStats& s) { return s.*kField; }
template <std::vector<std::size_t> RoundStats::*kField>
std::size_t size_of(const RoundStats& s) { return (s.*kField).size(); }
template <bool RoundStats::*kField>
std::size_t flag_of(const RoundStats& s) { return s.*kField ? 1 : 0; }
std::size_t rejected_of(const RoundStats& s) { return s.rejected_total(); }

/// Every run total, one row each (DESIGN.md §8.5). accumulate() adds a
/// round into RunResult::totals and the registry counter fl.<name>, emit()
/// writes the round's value as counts.<name>, and the checkpoint walk
/// carries the total as run/total/<name> (absent = 0).
constexpr RunCounter kRunCounters[] = {
    {"selected", count_of<&RoundStats::selected>},
    {"dropped", count_of<&RoundStats::dropped>},
    {"stragglers", count_of<&RoundStats::stragglers>},
    {"accepted", count_of<&RoundStats::accepted>},
    {"rejected", rejected_of},
    {"retransmissions", count_of<&RoundStats::retransmissions>},
    {"skipped", flag_of<&RoundStats::skipped>},
    {"attacked", size_of<&RoundStats::attackers>},
    {"suspected", size_of<&RoundStats::suspects>},
    {"rolled_back", flag_of<&RoundStats::rolled_back>},
    {"parked", count_of<&RoundStats::parked>},
    {"late_commits", count_of<&RoundStats::late_commits>},
    {"escalated", flag_of<&RoundStats::escalated>},
    {"dedup_dropped", count_of<&RoundStats::dedup_dropped>},
    {"joined", count_of<&RoundStats::joined>},
    {"left", count_of<&RoundStats::left>},
    {"returned", count_of<&RoundStats::returned>},
    {"returning_discounted", count_of<&RoundStats::returning_discounted>},
    {"shed", count_of<&RoundStats::shed>},
    {"deferred", count_of<&RoundStats::admission_deferred>},
    {"giveups", size_of<&RoundStats::giveups>},
};
constexpr std::size_t kNumRunCounters = std::size(kRunCounters);

void accumulate(RunResult& result, const RoundStats& stats) {
  auto& registry = obs::MetricsRegistry::instance();
  for (std::size_t i = 0; i < kNumRunCounters; ++i) {
    const std::size_t n = kRunCounters[i].per_round(stats);
    result.totals[i] += n;
    registry.counter("fl." + std::string(kRunCounters[i].name)).add(n);
  }
  result.total_backoff_wait += stats.backoff_wait;
  for (const std::size_t c : stats.giveups) {
    if (c < result.client_giveups.size()) ++result.client_giveups[c];
  }
}

/// Minimum relative selection weight under fault-aware sampling: flaky
/// clients are down-weighted, never starved.
constexpr double kFaultSamplingFloor = 0.15;
/// Robust rule a diverged round is re-aggregated with.
constexpr AggregatorKind kDivergenceFallback =
    AggregatorKind::kCoordinateMedian;

std::string ids_array(const std::vector<std::size_t>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  out += ']';
  return out;
}

/// True for the round phases whose latency distribution is worth a
/// sketch (training, uplink simulation, aggregation, buffer drain).
bool sketched_phase(const std::string& name) {
  return name == "fl/train" || name == "fl/uplink" ||
         name == "fl/aggregate" || name == "fl/buffer";
}

/// ceil(ratio * n) clamped into [1, n], so no ratio can ever select zero
/// clients.
std::size_t cohort_size(double ratio, std::size_t n) {
  return std::clamp<std::size_t>(std::size_t(std::ceil(ratio * double(n))),
                                 1, n);
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

// The loop's checkpointed state beyond the algorithm and the RunResult
// totals. A load starts from a fresh LoopState, so a member the walk forgets
// reverts to its run-start value after a resume — and the resume, restart
// and chaos suites see the drift.
// ckpt-struct: run/
struct LoopState {
  LoopState(const RunOptions& opts, std::size_t num_clients)
      : sampler(opts.sampling_seed),
        fail_ema(num_clients, 0.0),
        escalation(opts.escalation),
        suspect_rounds(num_clients, 0) {}

  common::Rng sampler;  // ckpt: run/sampler_rng
  /// Per-client failure EMA for fault-aware sampling: dropped, lost, or
  /// rejected uplinks raise it; clean rounds decay it.
  std::vector<double> fail_ema;  // ckpt: run/ema
  // ckpt: run/series/ (last evaluated loss, the divergence guard's reference)
  double prev_loss = std::numeric_limits<double>::quiet_NaN();
  EscalationTracker escalation;          // ckpt: run/escalation
  std::vector<std::size_t> defer_queue;  // ckpt: run/admission_carryover
  /// Attack-aware Krum f: per-client count of rounds in which the robust
  /// aggregator excluded the client.
  std::vector<std::uint64_t> suspect_rounds;  // ckpt: run/krum_ledger
};

/// One round's working set, handed from stage to stage.
struct Round {
  std::size_t index = 0;
  bool telemetry = false;  // this round writes a JSONL record
  bool render = false;     // a record is rendered (telemetry or flight)
  CommSnapshot comm_start;
  std::uint64_t trace_start = 0;
  ChurnDelta churn;
  std::vector<std::size_t> selected;
  std::vector<std::size_t> active;
  std::vector<std::size_t> dropped_ids;
  bool budget_exhausted = false;
  RoundStats admission;  // what the runner decided before training
  RoundStats stats;      // the round as it ran
  std::optional<EvalSummary> guard_eval;
  std::optional<EvalSummary> eval;
  bool stop = false;
};

/// run_federated as named stages over one LoopState (DESIGN.md §8.5).
class RoundLoop {
 public:
  RoundLoop(FederatedAlgorithm& algo, const RunOptions& opts,
            const RoundCallback& callback);

  RunResult run();

 private:
  Round begin(std::size_t round);
  void sample(Round& r);
  void admit(Round& r);
  void train(Round& r);
  void observe(Round& r);
  void evaluate(Round& r);
  void checkpoint(Round& r);
  void emit(const Round& r);

  std::size_t start_round();
  RunCheckpoint save(std::size_t round);
  std::size_t load(const RunCheckpoint& ckpt);
  void state(StateArchive& ar, std::size_t& round);
  void retune_krum();

  FederatedAlgorithm& algo_;
  const RunOptions& opts_;
  const RoundCallback& callback_;
  const std::size_t num_clients_;
  const double ratio_;  // sample_ratio clamped into [0, 1]
  std::optional<FaultModel> faults_;  // built only when a fault is injected
  std::optional<ChurnEngine> churn_;  // walks itself under run/churn/
  std::optional<store::CheckpointStore> store_;
  std::vector<std::size_t> all_clients_;  // the sampling pool without churn

  LoopState state_;
  /// The rule each round runs under: opts.resilience, upgraded in place when
  /// the escalation tracker trips (downgraded by the opt-in quiet-streak
  /// de-escalation), retuned by Krum auto-f and re-derived by a checkpoint
  /// load.
  ResilienceConfig current_;
  RunResult result_;
};

RoundLoop::RoundLoop(FederatedAlgorithm& algo, const RunOptions& opts,
                     const RoundCallback& callback)
    : algo_(algo),
      opts_(opts),
      callback_(callback),
      num_clients_(algo.environment().num_clients()),
      ratio_(std::clamp(opts.sample_ratio, 0.0, 1.0)),
      all_clients_(num_clients_),
      state_(opts, num_clients_),
      current_(opts.resilience) {
  // Pin the compute backend before any kernel runs: every GEMM in the round
  // loop (client training, evaluation, the divergence guard's probe pass)
  // must execute on one backend for the run to be bit-replayable.
  if (!opts.backend.empty()) {
    tensor::set_active_backend(tensor::parse_backend(opts.backend));
  }
  std::iota(all_clients_.begin(), all_clients_.end(), std::size_t(0));
  result_.client_giveups.assign(num_clients_, 0);
  result_.krum_f_estimate = current_.krum_f;
  if (opts.faults) {
    faults_.emplace(*opts.faults);  // rejects out-of-range rates
    if (!opts.faults->any_faults()) faults_.reset();
  }
  // Durable generational store: periodic checkpoints are additionally
  // committed as CRC-verified generations, which a restarted run resumes
  // from through the ladder.
  if (opts.ckpt_store && opts.ckpt_store->enabled()) {
    store_.emplace(*opts.ckpt_store, opts.store_io, opts.telemetry);
  }
  // Elastic membership: the engine materializes its deterministic trace up
  // front; the runner replays it round by round and samples from the
  // enrolled set only.
  if (opts.churn) {
    churn_.emplace(*opts.churn, opts.rounds, num_clients_);
    // Off-switch contract: a config whose materialized trace is empty is
    // indistinguishable from no churn at all — same sampling path, same
    // telemetry bytes, same checkpoint entries.
    if (churn_->trace().empty()) churn_.reset();
  }
}

RunResult RoundLoop::run() {
  for (std::size_t round = start_round(); round <= opts_.rounds; ++round) {
    Round r = begin(round);
    {
      // Scoped so the round span completes before emit() reads the
      // tracer's phase totals.
      SPATL_TRACE_SPAN("fl/round");
      sample(r);
      admit(r);
      train(r);
      observe(r);
      evaluate(r);
      checkpoint(r);
    }
    emit(r);
    if (r.stop) break;
  }
  result_.comm = algo_.ledger().snapshot();
  // Parked updates never reach aggregation once the run ends.
  result_.buffered_remaining = algo_.drop_parked();
  return std::move(result_);
}

Round RoundLoop::begin(std::size_t round) {
  Round r;
  r.index = round;
  const std::size_t stride = std::max<std::size_t>(1, opts_.telemetry_every);
  r.telemetry = opts_.telemetry != nullptr &&
                (round % stride == 0 || round == opts_.rounds);
  // The flight recorder keeps EVERY round's rendered record in its ring
  // (stride-independent), so a record is built whenever either consumer
  // is attached.
  r.render = r.telemetry || opts_.flight != nullptr;
  if (r.render) {
    r.comm_start = algo_.ledger().snapshot();
    r.trace_start = obs::Tracer::instance().cursor();
  }
  // Membership events apply at round start regardless of what the round
  // does afterwards (a skipped round still ages the population).
  if (churn_) r.churn = churn_->advance(round);
  return r;
}

void RoundLoop::sample(Round& r) {
  SPATL_TRACE_SPAN("fl/sample");
  // Draw from the pool — the enrolled clients under churn, else everyone —
  // and map draw indices through it. The pool is ascending, so at full
  // enrollment both are the identity map and draw the same sequence.
  const std::vector<std::size_t>& pool =
      churn_ ? churn_->enrolled() : all_clients_;
  if (pool.empty()) return;
  const std::size_t count = cohort_size(ratio_, pool.size());
  if (opts_.fault_aware_sampling) {
    // Selection weight shrinks with the failure EMA but never below the
    // floor: flaky clients are down-weighted, not starved.
    std::vector<double> weights(pool.size());
    for (std::size_t k = 0; k < pool.size(); ++k) {
      weights[k] =
          std::max(kFaultSamplingFloor, 1.0 - state_.fail_ema[pool[k]]);
    }
    r.selected =
        weighted_sample_without_replacement(state_.sampler, weights, count);
  } else {
    r.selected = state_.sampler.sample_without_replacement(pool.size(), count);
  }
  for (std::size_t& s : r.selected) s = pool[s];
}

void RoundLoop::admit(Round& r) {
  // Budget-deferred clients join ahead of the fresh sample (they were
  // already committed to this cohort; departing mid-queue drops them).
  const bool admission_on = opts_.admission.limited();
  if (admission_on && !state_.defer_queue.empty()) {
    std::vector<std::size_t> merged;
    merged.reserve(state_.defer_queue.size() + r.selected.size());
    for (const std::size_t c : state_.defer_queue) {
      if (churn_ && !churn_->is_enrolled(c)) continue;
      if (!contains(merged, c)) merged.push_back(c);
    }
    for (const std::size_t c : r.selected) {
      if (!contains(merged, c)) merged.push_back(c);
    }
    r.selected = std::move(merged);
    state_.defer_queue.clear();
  }

  // Drop clients unavailable this round, flag stragglers.
  RoundStats& admission = r.admission;
  admission.selected = r.selected.size();
  admission.joined = r.churn.joined;
  admission.left = r.churn.left;
  admission.returned = r.churn.returned;
  if (churn_) admission.enrolled = churn_->enrolled().size();
  if (faults_) {
    r.active.reserve(r.selected.size());
    for (const std::size_t i : r.selected) {
      const ClientFault f = faults_->assess(r.index, i);
      if (f.fate == ClientFate::kUnavailable) {
        ++admission.dropped;
        r.dropped_ids.push_back(i);
        continue;
      }
      if (f.fate == ClientFate::kStraggler) ++admission.stragglers;
      r.active.push_back(i);
    }
  } else {
    r.active = r.selected;
  }

  // Overload admission control: cap the round's uplinks by participant
  // count and estimated uplink bytes; excess clients — picked by a
  // round-keyed rotation so no id is systematically starved — are shed
  // outright or deferred into the next round's cohort.
  if (!admission_on || r.active.empty()) return;
  std::size_t cap = r.active.size();
  if (opts_.admission.max_participants > 0) {
    cap = std::min(cap, opts_.admission.max_participants);
  }
  if (opts_.admission.max_uplink_bytes > 0.0) {
    const double per_uplink = 4.0 * double(algo_.uplink_cost_floats());
    const std::size_t by_bytes =
        per_uplink > 0.0
            ? std::size_t(opts_.admission.max_uplink_bytes / per_uplink)
            : r.active.size();
    cap = std::min(cap, by_bytes);
  }
  const std::size_t n = r.active.size();
  if (cap >= n) return;
  // The n - cap slots starting at index round % n (wrapping) are excess.
  const std::size_t start = r.index % n;
  std::vector<std::size_t> kept;
  std::vector<std::size_t> over;
  for (std::size_t k = 0; k < n; ++k) {
    ((k + n - start) % n < n - cap ? over : kept).push_back(r.active[k]);
  }
  r.active = std::move(kept);
  if (opts_.admission.policy == AdmissionPolicy::kDefer) {
    admission.admission_deferred = over.size();
    state_.defer_queue = std::move(over);
  } else {
    admission.shed = over.size();
  }
  r.budget_exhausted = r.active.empty();
}

void RoundLoop::train(Round& r) {
  r.stats = r.admission;
  // Quorum gate: buffered updates due this round count toward the quorum —
  // a round carried by late commits alone is still a round.
  const std::size_t quorum =
      std::max<std::size_t>(1, opts_.resilience.min_quorum);
  const std::size_t due = opts_.async ? algo_.buffered_due(r.index) : 0;
  if (r.active.size() + due < quorum) {
    // Not enough live participants to even start: skip the round and
    // leave the global model untouched (parked updates stay buffered and
    // drain in the next round that clears admission).
    r.stats.skipped = true;
    r.stats.skip_reason = r.budget_exhausted ? SkipReason::kAdmissionBudget
                                             : SkipReason::kAdmissionQuorum;
    r.stats.buffer_depth = algo_.buffered_total();
    common::log_debug(algo_.name(), " round ", r.index,
                      " skipped below quorum (", r.active.size(), "+", due,
                      "/", quorum, ", ",
                      skip_reason_name(r.stats.skip_reason), ")");
    return;
  }
  // Pre-round snapshot for the divergence guard: algorithm state plus
  // ledger counters, so a rolled-back round leaves no trace (bytes are
  // metered once, by the re-run).
  const bool guard = opts_.divergence_factor > 0.0;
  RunCheckpoint snapshot;
  CommSnapshot ledger_snap;
  if (guard) {
    algo_.save_state(snapshot);
    ledger_snap = algo_.ledger().snapshot();
  }
  RoundPolicy policy{.round = r.index,
                     .admission = r.admission,
                     .fault = faults_ ? &*faults_ : nullptr,
                     .rule = current_,
                     .async = opts_.async ? &*opts_.async : nullptr,
                     .churn = churn_ ? &*churn_ : nullptr};
  r.stats = algo_.run_round(r.active, policy);
  if (!guard) return;

  EvalSummary eval = algo_.evaluate_clients();
  const bool exploded =
      !std::isfinite(eval.avg_loss) ||
      (std::isfinite(state_.prev_loss) && state_.prev_loss > 0.0 &&
       eval.avg_loss > opts_.divergence_factor * state_.prev_loss);
  if (exploded) {
    common::log_debug(algo_.name(), " round ", r.index, " diverged (loss ",
                      eval.avg_loss,
                      "), rolling back and re-aggregating with ",
                      aggregator_kind_name(kDivergenceFallback));
    algo_.load_state(snapshot);
    algo_.ledger().restore(ledger_snap);
    policy.rule.aggregator = kDivergenceFallback;
    r.stats = algo_.run_round(r.active, policy);
    r.stats.rolled_back = true;
    // Post-mortem window: the rounds that led into the explosion (this
    // round's own record is rendered after the dump).
    if (opts_.flight != nullptr) {
      opts_.flight->dump("divergence_rollback", r.index);
    }
    eval = algo_.evaluate_clients();
  }
  state_.prev_loss = eval.avg_loss;
  r.guard_eval = eval;
}

void RoundLoop::observe(Round& r) {
  RoundStats& stats = r.stats;
  // Adaptive escalation: this round ran under the rule selected so far;
  // its stats then feed the tracker, and a trip upgrades the aggregator for
  // every round that follows (one-way unless a quiet streak de-escalates).
  stats.escalated = state_.escalation.active();
  using Action = EscalationTracker::Action;
  const Action action = state_.escalation.observe(stats);
  if (action != Action::kNone) {
    const bool up = action == Action::kEscalate;
    current_.aggregator =
        up ? opts_.escalation.aggregator : opts_.resilience.aggregator;
    common::log_debug(algo_.name(), " round ", r.index,
                      up ? " escalating aggregator to "
                         : " quiet streak elapsed, de-escalating to ",
                      aggregator_kind_name(current_.aggregator));
  }
  accumulate(result_, stats);

  if (opts_.krum_auto_f && !stats.suspects.empty()) {
    // One ledger tick per client per round, however many aggregate calls
    // excluded it (multi-tensor algorithms may call the robust rule more
    // than once).
    std::vector<std::size_t> uniq = stats.suspects;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    for (const std::size_t c : uniq) {
      if (c < num_clients_) ++state_.suspect_rounds[c];
    }
    retune_krum();
  }

  // Threshold->alert hook: derived per-round rates, fed only when a
  // watcher is installed (pure observation).
  if (opts_.alerts != nullptr) {
    const double delivered =
        double(std::max<std::size_t>(1, stats.delivered));
    opts_.alerts->observe("fl.reject_rate",
                          double(stats.rejected_total()) / delivered,
                          std::uint64_t(r.index));
    const double selected_base =
        double(std::max<std::size_t>(1, stats.selected));
    opts_.alerts->observe(
        "fl.shed_rate",
        double(stats.shed + stats.admission_deferred) / selected_base,
        std::uint64_t(r.index));
  }

  if (opts_.fault_aware_sampling) {
    const double decay = std::clamp(opts_.fault_ema_decay, 0.0, 1.0);
    for (const std::size_t i : r.selected) {
      const bool failed = contains(r.dropped_ids, i) ||
                          contains(stats.rejected_clients, i);
      state_.fail_ema[i] = decay * state_.fail_ema[i] +
                           (1.0 - decay) * (failed ? 1.0 : 0.0);
    }
  }
}

void RoundLoop::evaluate(Round& r) {
  if (r.index % opts_.eval_every != 0 && r.index != opts_.rounds) return;
  const EvalSummary eval =
      r.guard_eval ? *r.guard_eval : algo_.evaluate_clients();
  r.eval = eval;
  RoundRecord rec;
  rec.round = r.index;
  rec.avg_accuracy = eval.avg_accuracy;
  rec.avg_loss = eval.avg_loss;
  rec.cumulative_bytes = algo_.ledger().total_bytes();
  rec.stats = r.stats;
  result_.history.push_back(rec);
  result_.final_accuracy = eval.avg_accuracy;
  result_.best_accuracy = std::max(result_.best_accuracy, eval.avg_accuracy);
  if (callback_) callback_(r.index, rec);
  common::log_debug(algo_.name(), " round ", r.index, " acc ",
                    eval.avg_accuracy);
  if (opts_.target_accuracy && !result_.rounds_to_target &&
      eval.avg_accuracy >= *opts_.target_accuracy) {
    result_.rounds_to_target = r.index;
    r.stop = true;
  }
}

void RoundLoop::checkpoint(Round& r) {
  if (r.stop || opts_.checkpoint_every == 0 ||
      r.index % opts_.checkpoint_every != 0) {
    return;
  }
  SPATL_TRACE_SPAN("fl/checkpoint");
  RunCheckpoint ckpt = save(r.index);
  if (store_) {
    // A rejected commit (ENOSPC, failed read-back verification) is counted
    // and moved past — the previous generations still stand, and the
    // in-memory snapshot below stays whole.
    if (store_->commit(r.index, ckpt)) {
      ++result_.store_commits;
    } else {
      ++result_.store_commit_failures;
    }
  }
  result_.last_checkpoint = std::move(ckpt);
  ++result_.checkpoints_written;
}

void RoundLoop::emit(const Round& r) {
  if (!r.render) return;
  const RoundStats& stats = r.stats;
  // One unified record per telemetry round: participation/failure stats,
  // ledger byte deltas, robust-aggregation attribution, divergence-guard
  // actions, and (when tracing) per-phase wall times.
  const CommSnapshot delta = algo_.ledger().snapshot().since(r.comm_start);
  obs::JsonObject comm;
  comm.add("uplink_bytes", delta.uplink)
      .add("downlink_bytes", delta.downlink)
      .add("retransmitted_bytes", delta.retransmitted)
      .add("cumulative_bytes", algo_.ledger().total_bytes());
  // Every run counter, in table order: the round's share of each total.
  obs::JsonObject counts;
  for (const RunCounter& c : kRunCounters) {
    counts.add(c.name, std::uint64_t(c.per_round(stats)));
  }
  obs::JsonObject rec;
  rec.add("type", "round")
      .add("algo", algo_.name())
      .add("round", std::uint64_t(r.index))
      .add_raw("counts", counts.str())
      .add("clipped", std::uint64_t(stats.clipped))
      .add("buffer_depth", std::uint64_t(stats.buffer_depth))
      .add_raw("attackers", ids_array(stats.attackers))
      .add_raw("suspects", ids_array(stats.suspects))
      .add_raw("comm", comm.str());
  // Feature-gated fields: each appears only when its subsystem is
  // configured or the round did what it describes.
  if (churn_) rec.add("enrolled", std::uint64_t(stats.enrolled));
  if (opts_.resilience.retry.backoff_base > 0.0) {
    rec.add("backoff_wait", stats.backoff_wait);
  }
  if (stats.skipped) {
    rec.add("skip_reason", skip_reason_name(stats.skip_reason));
  }
  if (stats.rolled_back) {
    rec.add("fallback", aggregator_kind_name(kDivergenceFallback));
  }
  if (stats.escalated) {
    rec.add("aggregator", aggregator_kind_name(current_.aggregator));
  }
  if (r.eval) {
    rec.add_raw("eval", obs::JsonObject()
                            .add("avg_accuracy", r.eval->avg_accuracy)
                            .add("avg_loss", r.eval->avg_loss)
                            .str());
  }
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    obs::JsonObject phases;
    auto& registry = obs::MetricsRegistry::instance();
    for (const auto& phase : tracer.phase_totals(r.trace_start)) {
      phases.add_raw(phase.name, obs::JsonObject()
                                     .add("total_ns", phase.total_ns)
                                     .add("count", phase.count)
                                     .str());
      // Cumulative per-phase latency sketch (one sample per rendered
      // round) — lands in the end-of-run "metrics" record of the same
      // JSONL stream via metrics_object() as p50–p99 percentiles.
      if (sketched_phase(phase.name)) {
        std::string metric = phase.name;
        std::replace(metric.begin(), metric.end(), '/', '.');
        registry.sketch(metric + ".round_ms")
            .record(double(phase.total_ns) / 1.0e6);
      }
    }
    rec.add_raw("phases", phases.str());
  }
  if (r.telemetry) opts_.telemetry->write(rec);
  if (opts_.flight != nullptr) {
    opts_.flight->record_round(std::uint64_t(r.index), rec.str());
  }
}

std::size_t RoundLoop::start_round() {
  if (opts_.resume != nullptr && !opts_.resume->empty()) {
    return load(*opts_.resume) + 1;
  }
  if (!store_ || !opts_.resume_from_store) return 1;
  // Cross-run reuse: a fresh process pointed at an existing checkpoint
  // directory resumes from the newest generation that survives the ladder.
  // No generations (cold start) or all-corrupt starts at round 1 —
  // identical to a run without the flag.
  std::size_t recovered = 0;
  const store::RecoveryOutcome rec = store_->recover_latest(
      [this, &recovered](const RunCheckpoint& c, const store::Generation&) {
        recovered = load(c);
      });
  result_.recovery_attempts_failed = rec.failed_attempts;
  result_.recoveries_from_store = rec.applied ? 1 : 0;
  if (rec.applied) return recovered + 1;
  if (rec.failed_attempts > 0 && opts_.flight != nullptr) {
    // Every generation in the directory was rejected: the window is empty
    // this early, but the exhaustion itself is worth a record.
    opts_.flight->dump("recovery_exhausted", 0);
  }
  return 1;
}

/// Full-state snapshot after `round`: everything load-bearing for the
/// remaining rounds, so a resume replays the uninterrupted run bit for bit.
RunCheckpoint RoundLoop::save(std::size_t round) {
  RunCheckpoint ckpt;
  StateArchive ar = StateArchive::save_to(ckpt);
  state(ar, round);
  return ckpt;
}

/// Rebuilds every piece of loop state from a snapshot. Returns the round
/// the snapshot was taken after.
std::size_t RoundLoop::load(const RunCheckpoint& ckpt) {
  std::size_t round = 0;
  StateArchive ar = StateArchive::load_from(ckpt);
  state(ar, round);
  return round;
}

/// The loop's one checkpoint walk (DESIGN.md §8.4): the algorithm, then the
/// loop state in entry order. A load starts from a fresh LoopState and
/// restores the rule the snapshot ran under.
void RoundLoop::state(StateArchive& ar, std::size_t& round) {
  algo_.state(ar);
  if (ar.loading()) state_ = LoopState(opts_, num_clients_);
  ar.u64("run/round", round);
  ar.rng("run/sampler_rng", state_.sampler);
  CommSnapshot lg = algo_.ledger().snapshot();
  ar.f64("run/ledger", lg.uplink, lg.downlink, lg.retransmitted);
  if (ar.loading()) algo_.ledger().restore(lg);
  ar.doubles("run/ema", state_.fail_ema);
  if (state_.fail_ema.size() != num_clients_) {
    state_.fail_ema.assign(num_clients_, 0.0);
  }
  for (std::size_t i = 0; i < kNumRunCounters; ++i) {
    ar.optional().u64("run/total/" + std::string(kRunCounters[i].name),
                      result_.totals[i]);
  }
  ar.optional().f64("run/series/best_accuracy", result_.best_accuracy);
  ar.optional().f64("run/series/final_accuracy", result_.final_accuracy);
  if (!ar.optional().f64("run/series/prev_loss", state_.prev_loss)) {
    state_.prev_loss = std::numeric_limits<double>::quiet_NaN();
  }
  ar.optional().f64("run/series/backoff_wait", result_.total_backoff_wait);
  state_.escalation.state(ar);
  if (ar.loading()) {
    // The aggregation rule the snapshot was running under, escalated or the
    // base rule.
    current_ = opts_.resilience;
    if (state_.escalation.active()) {
      current_.aggregator = opts_.escalation.aggregator;
    }
  }
  ar.optional(!state_.defer_queue.empty())
      .u64s("run/admission_carryover", state_.defer_queue);
  if (opts_.krum_auto_f) {
    ar.optional().u64s("run/krum_ledger", state_.suspect_rounds);
    state_.suspect_rounds.resize(num_clients_);
    if (ar.loading()) retune_krum();
  }
  if (churn_) churn_->state(ar, "run/churn/");
  ar.optional(std::ranges::any_of(result_.client_giveups,
                                  [](std::size_t n) { return n > 0; }))
      .u64s("run/giveups", result_.client_giveups);
  result_.client_giveups.resize(num_clients_);
}

/// Attack-aware Krum f: repeat suspects (excluded in >= 2 rounds) estimate
/// the live Byzantine population; one-off exclusions are Krum's normal
/// selection noise and are ignored.
void RoundLoop::retune_krum() {
  std::size_t estimate = 0;
  for (const std::uint64_t r : state_.suspect_rounds) {
    if (r >= 2) ++estimate;
  }
  // Krum needs n - f - 2 >= 1 scoring neighbours; clamp against the nominal
  // cohort so a noisy ledger can never wedge the aggregator.
  const std::size_t cohort = cohort_size(ratio_, num_clients_);
  const std::size_t upper = cohort > 3 ? cohort - 3 : 0;
  const std::size_t f =
      std::max(opts_.resilience.krum_f, std::min(estimate, upper));
  result_.krum_f_estimate = f;
  if (f == current_.krum_f) return;
  current_.krum_f = f;
  common::log_debug(algo_.name(), " krum auto-tune: f -> ", f, " (",
                    estimate, " repeat suspect(s))");
}

}  // namespace

std::span<const RunCounter> run_counters() { return kRunCounters; }

std::size_t RunResult::total(std::string_view name) const {
  for (std::size_t i = 0; i < kNumRunCounters; ++i) {
    if (name == kRunCounters[i].name) return totals.at(i);
  }
  throw std::out_of_range("unknown run counter '" + std::string(name) + "'");
}

RunResult run_federated(FederatedAlgorithm& algo, const RunOptions& opts,
                        const RoundCallback& callback) {
  return RoundLoop(algo, opts, callback).run();
}

}  // namespace spatl::fl
