#include "fl/algorithm.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common/check.hpp"
#include "data/loader.hpp"
#include "fl/compression.hpp"
#include "fl/flat_utils.hpp"
#include "fl/local_only.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spatl::fl {

FederatedAlgorithm::FederatedAlgorithm(FlEnvironment& env, FlConfig config)
    : env_(env), config_(std::move(config)), rng_(config_.seed) {
  global_ = models::build_model(config_.model, rng_);
  // The worker shares the architecture; weights are overwritten every use.
  common::Rng worker_rng(config_.seed ^ 0xF00DULL);
  worker_ = models::build_model(config_.model, worker_rng);
}

void FederatedAlgorithm::load_global_into_worker() {
  models::copy_full_state(global_, worker_);
}

std::size_t FederatedAlgorithm::uplink_cost_floats() {
  // Dense parameter vector — what FedAvg/FedProx actually pay per uplink.
  // Control-carrying algorithms override with their 2x factor.
  return nn::param_count(global_.all_params());
}

std::size_t FederatedAlgorithm::drop_parked() {
  const std::size_t parked = buffer_.size();
  buffer_.clear();
  return parked;
}

AggregateOutcome RobustRule::aggregate(const std::vector<RobustUpdate>& updates,
                                       std::size_t dim,
                                       const std::vector<float>* reference) {
  AggregateOutcome out = aggregator_->aggregate(updates, dim, reference);
  SPATL_DCHECK(out.value.size() == dim && out.defined.size() == dim);
  for (const std::size_t c : out.excluded) stats_.suspects.push_back(c);
  stats_.clipped += out.clipped;
  return out;
}

AggregateOutcome RobustRule::companion(const std::vector<RobustUpdate>& updates,
                                       std::size_t dim) {
  AggregateOutcome out = aggregator_->aggregate(updates, dim, nullptr);
  SPATL_DCHECK(out.value.size() == dim && out.defined.size() == dim);
  stats_.clipped += out.clipped;
  return out;
}

namespace {

/// Outcome of one client's simulated uplink + server-side vetting: the
/// update is aggregated this round when neither rejected nor deferred.
struct Delivery {
  RejectReason reason = RejectReason::kNone;  // kNone: not rejected
  /// Semi-async path: the update passed vetting but the client's virtual
  /// compute time runs past this round's deadline — run_round parks it in
  /// the straggler buffer to commit `lag` rounds later. 0: not deferred.
  std::size_t lag = 0;
  double scale = 1.0;  // aggregation down-weight (stale stragglers)
};

/// True when the semi-async buffer governs this round's stragglers: async
/// is set and the fault model has a live deadline.
bool buffers_stragglers(const RoundPolicy& policy) {
  return policy.async != nullptr && policy.fault != nullptr &&
         policy.fault->config().round_deadline > 0.0;
}

/// Simulate the uplink of `up`'s payload (metered as its wire bytes): pay
/// the first attempt, inject message loss with bounded retry (retransmitted
/// bytes go through CommLedger's retransmission counters), maybe corrupt the
/// payload in flight, then apply the server's defenses — NaN/Inf
/// validation, optional L2 norm bound of (payload - reference), and the
/// straggler staleness policy. Counts the outcome into `stats`.
Delivery deliver(const RoundPolicy& policy, RoundStats& stats,
                 CommLedger& ledger, ClientUpload& up) {
  SPATL_TRACE_SPAN("fl/uplink");
  const std::size_t client = up.update.client;
  std::vector<float>& payload = up.update.values;
  const FaultModel* fault = policy.fault;
  const ResilienceConfig& rule = policy.rule;
  Delivery d;
  double backoff_wait = 0.0;
  ledger.add_uplink_bytes(up.wire_bytes);
  if (fault != nullptr) {
    // Byzantine clients craft their payload before it leaves the device —
    // a lost or rejected attack still counts as an attack attempt.
    if (fault->attack(policy.round, client, payload, up.reference)) {
      stats.attackers.push_back(client);
    }
    const Transmission t = fault->transmit(policy.round, client, rule.retry);
    if (t.attempts > 1) {
      ledger.add_uplink_retransmit_bytes(up.wire_bytes *
                                         double(t.attempts - 1));
      stats.retransmissions += t.attempts - 1;
    }
    backoff_wait = t.backoff_wait;
    stats.backoff_wait += t.backoff_wait;
    if (!t.delivered) {
      // Retry budget exhausted: the client gives up on this round's uplink.
      d.reason = RejectReason::kLost;
      stats.reject(d.reason, client);
      return d;
    }
    fault->corrupt(policy.round, client, payload);
  }
  ++stats.delivered;

  const std::vector<float>* reference = up.reference;
  if (rule.validate_updates && !is_finite(payload)) {
    d.reason = RejectReason::kNonFinite;
  } else if (rule.max_update_norm > 0.0) {
    double sum = 0.0;
    if (reference != nullptr && reference->size() == payload.size()) {
      for (std::size_t j = 0; j < payload.size(); ++j) {
        const double diff = double(payload[j]) - double((*reference)[j]);
        sum += diff * diff;
      }
    } else {
      for (const float x : payload) sum += double(x) * double(x);
    }
    if (sum > rule.max_update_norm * rule.max_update_norm) {
      d.reason = RejectReason::kNormBound;
    }
  }
  if (d.reason == RejectReason::kNone && fault != nullptr) {
    const ClientFault cf = fault->assess(policy.round, client);
    const double deadline = fault->config().round_deadline;
    // Backoff waits spend the same virtual clock as local compute: a retry
    // storm can push an otherwise-punctual client past the round deadline.
    // Zero with backoff disabled, so the legacy straggler set is unchanged.
    const double finish_time = cf.compute_time + backoff_wait;
    const bool late = cf.fate == ClientFate::kStraggler ||
                      (deadline > 0.0 && finish_time > deadline);
    if (late) {
      // Straggler policy, in order of preference: park for a late commit
      // (semi-async), down-weight in the same round (synchronous,
      // stale_weight > 0), reject (kDeadline) only when neither applies —
      // the contract RejectReason::kDeadline documents.
      if (buffers_stragglers(policy)) {
        const std::size_t lag = straggler_lag(finish_time, deadline);
        if (lag <= policy.async->max_lag) {
          d.lag = lag;
          return d;  // run_round parks the payload and counts it
        }
        d.reason = RejectReason::kDeadline;  // beyond the lag budget
      } else if (rule.stale_weight > 0.0) {
        d.scale = rule.stale_weight;
      } else {
        d.reason = RejectReason::kDeadline;
      }
    }
  }
  if (d.reason == RejectReason::kNone && policy.churn != nullptr) {
    // A returning client's first accepted uplink is discounted by its
    // absence through the straggler buffer's staleness arithmetic: the
    // update was trained from a freshly-downloaded model, but the client's
    // local state (optimizer statistics, BN history, SPATL agent) aged
    // while it was away, so its contribution earns back trust gradually.
    ChurnEngine& churn = *policy.churn;
    const std::size_t absence = churn.pending_staleness(client);
    if (absence > 0) {
      d.scale *= staleness_scale(churn.return_stale_weight(), absence);
      ++stats.returning_discounted;
      churn.clear_pending(client);
    }
  }
  if (d.reason == RejectReason::kNone) {
    ++stats.accepted;
  } else {
    stats.reject(d.reason, client);
  }
  return d;
}

}  // namespace

void FederatedAlgorithm::save_state(RunCheckpoint& out) {
  StateArchive ar = StateArchive::save_to(out);
  state(ar);
}

void FederatedAlgorithm::load_state(const RunCheckpoint& in) {
  StateArchive ar = StateArchive::load_from(in);
  state(ar);
}

void FederatedAlgorithm::state(StateArchive& ar) {
  walk_params(ar, "algo/w", global_.all_params());
  walk_bn(ar, "algo/bn", global_);
  // Parked straggler updates travel with the model so a resumed run replays
  // the same late commits.
  buffer_.state(ar, "algo/async/");
}

models::SplitModel& FederatedAlgorithm::deployed_model(std::size_t client) {
  if (client == 0) load_global_into_worker();
  return worker_;
}

EvalSummary FederatedAlgorithm::evaluate_clients() {
  SPATL_TRACE_SPAN("fl/eval");
  EvalSummary summary;
  for (std::size_t i = 0; i < env_.num_clients(); ++i) {
    const auto r = data::evaluate(deployed_model(i), env_.client(i).val);
    summary.avg_accuracy += r.accuracy;
    summary.avg_loss += r.loss;
  }
  const double n = double(env_.num_clients());
  summary.avg_accuracy /= n;
  summary.avg_loss /= n;
  return summary;
}

std::vector<double> FederatedAlgorithm::per_client_accuracy() {
  std::vector<double> acc(env_.num_clients(), 0.0);
  for (std::size_t i = 0; i < env_.num_clients(); ++i) {
    acc[i] = data::evaluate(deployed_model(i), env_.client(i).val).accuracy;
  }
  return acc;
}

// ------------------------------------------------ client-round skeleton ----

RoundStats FederatedAlgorithm::run_round(
    const std::vector<std::size_t>& selected, const RoundPolicy& policy) {
  RoundStats stats = policy.admission;
  auto& registry = obs::MetricsRegistry::instance();
  const std::vector<float> base = open_round();
  std::vector<Contribution> accepted;
  accepted.reserve(selected.size());

  // Late commits merge first, in the buffer's deterministic order, with the
  // commit-time staleness discount stale_weight^(round - source round);
  // they count toward the quorum like any other survivor.
  if (buffers_stragglers(policy) && !buffer_.empty()) {
    SPATL_TRACE_SPAN("fl/buffer");
    std::vector<BufferedUpdate> due = buffer_.take_due(policy.round);
    stats.late_commits += due.size();
    stats.buffer_depth = buffer_.size();
    if (!due.empty()) {
      registry.gauge("async.buffer_depth").set(double(buffer_.size()));
    }
    for (auto& b : due) {
      SPATL_DCHECK(policy.round >= b.source_round);
      const double scale = staleness_scale(policy.async->stale_weight,
                                           policy.round - b.source_round);
      accepted.push_back({std::move(b), scale, /*late=*/true});
    }
  }

  for (const std::size_t i : selected) {
    ClientUpload up = train_client(i, base);
    up.update.client = i;
    const Delivery d = deliver(policy, stats, ledger_, up);
    if (d.lag > 0) {
      // Validated but past the deadline: the update waits in the straggler
      // buffer for its commit round.
      BufferedUpdate parked = park_conversion(std::move(up.update), base);
      parked.source_round = policy.round;
      parked.commit_round = policy.round + d.lag;
      stats.dedup_dropped += buffer_.park(std::move(parked));
      ++stats.parked;
      stats.buffer_depth = buffer_.size();
      registry.gauge("async.buffer_depth").set(double(buffer_.size()));
      registry.histogram("async.lag", {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0})
          .record(double(d.lag));
      continue;
    }
    if (d.reason != RejectReason::kNone) continue;
    up.update.scale = d.scale;
    accepted.push_back(std::move(up.update));
  }
  // Post-validation quorum: enough clients were admitted, but validation
  // (or loss / deadline policy) may have thinned the survivor set below it;
  // the round is then skipped with the global model untouched.
  if (accepted.size() < std::max<std::size_t>(1, policy.rule.min_quorum)) {
    stats.skipped = true;
    stats.skip_reason = SkipReason::kPostValidationQuorum;
    return stats;
  }
  SPATL_TRACE_SPAN("fl/aggregate");
  std::optional<RobustRule> robust;
  if (policy.rule.aggregator != AggregatorKind::kWeightedMean) {
    robust.emplace(policy.rule, stats);
  }
  combine(accepted, base, robust ? &*robust : nullptr);
  return stats;
}

std::vector<float> FederatedAlgorithm::open_round() {
  return nn::flatten_values(global_.all_params());
}

ClientUpload FederatedAlgorithm::train_client(std::size_t client,
                                              const std::vector<float>& base) {
  load_global_into_worker();
  ledger_.add_downlink_floats(base.size());
  const data::GradHook hook = local_grad_hook(client, base);
  common::Rng client_rng(config_.seed ^ (0xC11E47ULL * (client + 1)));
  data::TrainStats stats;
  {
    SPATL_TRACE_SPAN("fl/train");
    stats = data::train_supervised(worker_, env_.client(client).train,
                                   config_.local, client_rng,
                                   worker_.all_params(), hook);
  }
  ClientUpload up;
  up.update.tau = double(std::max<std::size_t>(1, stats.steps));
  up.update.values = nn::flatten_values(worker_.all_params());
  up.update.bn = flatten_bn_stats(worker_);
  up.wire_bytes = 4.0 * double(uplink_cost_floats());
  up.reference = &base;
  return up;
}

std::vector<double> FederatedAlgorithm::accepted_weights(
    const std::vector<Contribution>& accepted) const {
  std::vector<double> w(accepted.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    w[i] = double(env_.client(accepted[i].client).train.size()) *
           accepted[i].scale;
    total += w[i];
  }
  if (total <= 0.0) throw std::logic_error("accepted clients have no data");
  for (auto& v : w) v /= total;
  return w;
}

namespace {

bool is_excluded(const std::vector<std::size_t>& excluded, std::size_t client) {
  return std::find(excluded.begin(), excluded.end(), client) != excluded.end();
}

}  // namespace

// BN buffers are low-dimensional summaries, so a plain mean over the trusted
// subset is the robust analogue of each algorithm's BN averaging.
std::vector<float> FederatedAlgorithm::robust_bn_mean(
    const std::vector<Contribution>& accepted,
    const std::vector<double>& weights,
    const std::vector<std::size_t>& excluded) {
  const std::size_t bn_dim = accepted.front().bn.size();
  std::vector<double> acc(bn_dim, 0.0);
  double total = 0.0;
  for (std::size_t s = 0; s < accepted.size(); ++s) {
    if (is_excluded(excluded, accepted[s].client)) continue;
    total += weights[s];
    for (std::size_t j = 0; j < bn_dim; ++j) {
      acc[j] += weights[s] * double(accepted[s].bn[j]);
    }
  }
  std::vector<float> out(bn_dim, 0.0f);
  if (total > 0.0) {
    for (std::size_t j = 0; j < bn_dim; ++j) out[j] = float(acc[j] / total);
  }
  return out;
}

// -------------------------------------------------------------- FedAvg ----

void FederatedAlgorithm::combine(std::vector<Contribution>& accepted,
                                 const std::vector<float>& base,
                                 RobustRule* robust) {
  auto views = global_.all_params();
  const auto weights = accepted_weights(accepted);
  if (robust != nullptr) {
    // Robust center of the delivered weight vectors themselves (FedAvg
    // aggregates in absolute weight space).
    std::vector<RobustUpdate> ups(accepted.size());
    for (std::size_t s = 0; s < accepted.size(); ++s) {
      ups[s] = {accepted[s].client, weights[s], &accepted[s].values, nullptr};
    }
    const auto outcome = robust->aggregate(ups, base.size(), &base);
    std::vector<float> w_new = base;
    for (std::size_t j = 0; j < w_new.size(); ++j) {
      if (outcome.defined[j]) w_new[j] = outcome.value[j];
    }
    nn::unflatten_values(w_new, views);
    unflatten_bn_stats(robust_bn_mean(accepted, weights, outcome.excluded),
                       global_);
    return;
  }
  std::vector<float> w_accum(base.size(), 0.0f);
  std::vector<float> bn_accum(accepted.front().bn.size(), 0.0f);
  for (std::size_t s = 0; s < accepted.size(); ++s) {
    axpy(w_accum, accepted[s].values, float(weights[s]));
    axpy(bn_accum, accepted[s].bn, float(weights[s]));
  }
  nn::unflatten_values(w_accum, views);
  unflatten_bn_stats(bn_accum, global_);
}

data::GradHook FedProx::local_grad_hook(std::size_t,
                                        const std::vector<float>& base) {
  return make_proximal_hook(base, config_.fedprox_mu);
}

// ------------------------------------------------------------- FedNova ----

namespace {

/// d_i = (w_base - w_i) / tau, in place over the client's flat weights.
void normalize_update(std::vector<float>& w, const std::vector<float>& base,
                      double tau) {
  for (std::size_t j = 0; j < w.size(); ++j) {
    w[j] = float((double(base[j]) - double(w[j])) / tau);
  }
}

}  // namespace

// A parked FedNova update carries the normalized direction against its own
// training base, so a late commit applies the same descent direction
// (staleness-discounted) instead of dragging the model toward a stale point.
BufferedUpdate FedNova::park_conversion(Contribution update,
                                        const std::vector<float>& base) {
  normalize_update(update.values, base, update.tau);
  return update;
}

void FedNova::combine(std::vector<Contribution>& accepted,
                      const std::vector<float>& base, RobustRule* robust) {
  auto views = global_.all_params();
  const auto weights = accepted_weights(accepted);
  if (robust != nullptr) {
    // Robust center of the normalized updates; tau_eff is renormalized over
    // the clients the aggregator kept, so an excluded client contributes
    // neither direction nor step size.
    std::vector<RobustUpdate> ups(accepted.size());
    for (std::size_t s = 0; s < accepted.size(); ++s) {
      auto& up = accepted[s];
      if (!up.late) normalize_update(up.values, base, up.tau);
      ups[s] = {up.client, weights[s], &up.values, nullptr};
    }
    const auto outcome = robust->aggregate(ups, base.size(), nullptr);
    double tau_eff_r = 0.0;
    double kept = 0.0;
    for (std::size_t s = 0; s < accepted.size(); ++s) {
      if (is_excluded(outcome.excluded, accepted[s].client)) continue;
      tau_eff_r += weights[s] * accepted[s].tau;
      kept += weights[s];
    }
    if (kept > 0.0) tau_eff_r /= kept;
    std::vector<float> w_new = base;
    for (std::size_t j = 0; j < w_new.size(); ++j) {
      if (outcome.defined[j]) {
        w_new[j] -= float(tau_eff_r * config_.server_lr) * outcome.value[j];
      }
    }
    nn::unflatten_values(w_new, views);
    unflatten_bn_stats(robust_bn_mean(accepted, weights, outcome.excluded),
                       global_);
    return;
  }
  std::vector<float> d_accum(base.size(), 0.0f);  // sum p_i * d_i
  std::vector<float> bn_accum(accepted.front().bn.size(), 0.0f);
  double tau_eff = 0.0;
  for (std::size_t s = 0; s < accepted.size(); ++s) {
    const auto& up = accepted[s];
    if (up.late) {
      axpy(d_accum, up.values, float(weights[s]));
    } else {
      for (std::size_t j = 0; j < up.values.size(); ++j) {
        d_accum[j] += float(weights[s] / up.tau) * (base[j] - up.values[j]);
      }
    }
    axpy(bn_accum, up.bn, float(weights[s]));
    tau_eff += weights[s] * up.tau;
  }
  std::vector<float> w_new = base;
  axpy(w_new, d_accum, -float(tau_eff * config_.server_lr));
  nn::unflatten_values(w_new, views);
  unflatten_bn_stats(bn_accum, global_);
}

// ------------------------------------------------------------ SCAFFOLD ----

Scaffold::Scaffold(FlEnvironment& env, FlConfig config)
    : FederatedAlgorithm(env, std::move(config)) {
  const std::size_t dim = nn::param_count(global_.all_params());
  server_c_.assign(dim, 0.0f);
  client_c_.assign(env_.num_clients(), {});
}

ClientUpload Scaffold::train_client(std::size_t client,
                                    const std::vector<float>& base) {
  ledger_.add_downlink_floats(base.size());  // the server variate c
  return FederatedAlgorithm::train_client(client, base);
}

data::GradHook Scaffold::local_grad_hook(std::size_t client,
                                         const std::vector<float>& base) {
  auto& c_i = client_c_[client];
  if (c_i.empty()) c_i.assign(base.size(), 0.0f);
  // Correction: g <- g - c_i + c  (eq. 9's drift term).
  std::vector<float> correction(base.size());
  for (std::size_t j = 0; j < correction.size(); ++j) {
    correction[j] = server_c_[j] - c_i[j];
  }
  return make_correction_hook(std::move(correction));
}

void Scaffold::to_deltas(Contribution& update,
                         const std::vector<float>& base) const {
  const auto& c_i = client_c_[update.client];
  const double klr = control_k_lr(config_.local, update.tau);
  update.aux.resize(base.size());
  for (std::size_t j = 0; j < base.size(); ++j) {
    const float w = update.values[j];
    update.aux[j] =
        control_update(c_i[j], server_c_[j], base[j], w, klr) - c_i[j];
    update.values[j] = w - base[j];
  }
}

// c_i is NOT advanced when an update parks — it commits with the buffered
// dc at the commit round, so the variate stays transactional across the
// buffering gap (tolerating late commits without double-counting drift).
BufferedUpdate Scaffold::park_conversion(Contribution update,
                                         const std::vector<float>& base) {
  to_deltas(update, base);
  return update;
}

void Scaffold::combine(std::vector<Contribution>& accepted,
                       const std::vector<float>& base, RobustRule* robust) {
  auto views = global_.all_params();
  const std::size_t dim = base.size();
  if (robust != nullptr) {
    // Robustify both server aggregates. The displacement dw is what an
    // attacker poisons directly; the control-variate delta dc is derived
    // from the same delivered weights, so a poisoned update would otherwise
    // leak into c through the plain mean and bias every future round.
    // Exclusion is decided on dw; excluded clients commit no c_i
    // (transactional, like a lost uplink) and contribute to neither center.
    // Every entry becomes (values = staleness-scaled dw, aux = dc) in place.
    std::vector<RobustUpdate> dw_ups(accepted.size());
    for (std::size_t s = 0; s < accepted.size(); ++s) {
      auto& up = accepted[s];
      if (!up.late) to_deltas(up, base);
      for (float& v : up.values) v = float(up.scale) * v;
      dw_ups[s] = {up.client, 1.0, &up.values, nullptr};
    }
    const auto dw_out = robust->aggregate(dw_ups, dim, nullptr);

    std::vector<RobustUpdate> dc_ups;
    std::vector<double> bn_weights(accepted.size(), 1.0);
    std::size_t kept = 0;
    for (const auto& up : accepted) {
      if (is_excluded(dw_out.excluded, up.client)) continue;
      dc_ups.push_back({up.client, 1.0, &up.aux, nullptr});
      auto& c_i = client_c_[up.client];
      if (c_i.empty()) c_i.assign(dim, 0.0f);
      for (std::size_t j = 0; j < dim; ++j) c_i[j] += up.aux[j];
      ++kept;
    }
    const auto dc_out = robust->companion(dc_ups, dim);

    std::vector<float> w_new = base;
    for (std::size_t j = 0; j < dim; ++j) {
      if (dw_out.defined[j]) {
        w_new[j] += float(config_.server_lr) * dw_out.value[j];
      }
    }
    nn::unflatten_values(w_new, views);
    unflatten_bn_stats(robust_bn_mean(accepted, bn_weights, dw_out.excluded),
                       global_);
    // c <- c + |kept|/N * center(dc): the robust analogue of eq. 11's
    // c + sum(dc)/N, with the mean replaced by the configured center.
    const float c_step = float(double(kept) / double(env_.num_clients()));
    for (std::size_t j = 0; j < dim; ++j) {
      if (dc_out.defined[j]) server_c_[j] += c_step * dc_out.value[j];
    }
    return;
  }

  std::vector<float> dw_accum(dim, 0.0f);
  std::vector<float> dc_accum(dim, 0.0f);
  std::vector<float> bn_accum(accepted.front().bn.size(), 0.0f);
  for (const auto& up : accepted) {
    auto& c_i = client_c_[up.client];
    if (c_i.empty()) c_i.assign(dim, 0.0f);
    if (up.late) {
      // Deferred transactional commit: the parked dc advances c_i now, and
      // the staleness-discounted dw joins the displacement mean.
      for (std::size_t j = 0; j < dim; ++j) {
        dc_accum[j] += up.aux[j];
        dw_accum[j] += float(up.scale) * up.values[j];
        c_i[j] += up.aux[j];
      }
      axpy(bn_accum, up.bn, 1.0f / float(accepted.size()));
      continue;
    }
    // Option II of the SCAFFOLD paper (eq. 10 here).
    const double klr = control_k_lr(config_.local, up.tau);
    for (std::size_t j = 0; j < dim; ++j) {
      const float c_new =
          control_update(c_i[j], server_c_[j], base[j], up.values[j], klr);
      dc_accum[j] += c_new - c_i[j];
      // Stale stragglers contribute a down-weighted displacement; the
      // variate delta stays full-strength (it is bookkeeping, not a step).
      dw_accum[j] += float(up.scale) * (up.values[j] - base[j]);
      c_i[j] = c_new;
    }
    axpy(bn_accum, up.bn, 1.0f / float(accepted.size()));
  }

  const float inv_s = 1.0f / float(accepted.size());
  std::vector<float> w_new = base;
  axpy(w_new, dw_accum, inv_s * float(config_.server_lr));
  nn::unflatten_values(w_new, views);
  unflatten_bn_stats(bn_accum, global_);
  // c <- c + |S|/N * mean(dc) = c + sum(dc)/N  (eq. 11)
  axpy(server_c_, dc_accum, 1.0f / float(env_.num_clients()));
}

void Scaffold::state(StateArchive& ar) {
  FederatedAlgorithm::state(ar);
  ar.floats("algo/scaffold/c", server_c_);
  // Lazily-initialized per-client variates: only materialized ones travel.
  for (std::size_t i = 0; i < client_c_.size(); ++i) {
    ar.optional(!client_c_[i].empty())
        .floats("algo/scaffold/ci/" + std::to_string(i), client_c_[i]);
  }
}

std::unique_ptr<FederatedAlgorithm> make_baseline(const std::string& name,
                                                  FlEnvironment& env,
                                                  FlConfig config) {
  if (name == "fedavg") return std::make_unique<FedAvg>(env, std::move(config));
  if (name == "fedprox")
    return std::make_unique<FedProx>(env, std::move(config));
  if (name == "fednova")
    return std::make_unique<FedNova>(env, std::move(config));
  if (name == "scaffold")
    return std::make_unique<Scaffold>(env, std::move(config));
  if (name == "fedavgm" || name == "fedadam") {
    return std::make_unique<CompressedFedAvg>(
        env, std::move(config), Codec::kNone,
        name == "fedavgm" ? ServerOptimizer::kMomentum
                          : ServerOptimizer::kAdam);
  }
  if (name == "fedavg+topk" || name == "fedavg+int8") {
    return std::make_unique<CompressedFedAvg>(
        env, std::move(config),
        name == "fedavg+topk" ? Codec::kTopK : Codec::kInt8);
  }
  if (name == "local-only")
    return std::make_unique<LocalOnly>(env, std::move(config));
  throw std::invalid_argument("make_baseline: unknown algorithm '" + name +
                              "'");
}

}  // namespace spatl::fl
