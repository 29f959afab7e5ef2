// The self_test here prints its diagnosis directly (it runs under
// `spatl_report --self-test`, a CLI surface), hence:
// spatl-lint: allow(raw-stderr)
#include "report/report.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/export.hpp"
#include "obs/quantile.hpp"

namespace spatl::report {

namespace {

/// Folds one round record; `counts` is its run-counter object.
void fold_round(const JsonValue& rec, const JsonValue& counts,
                HealthReport* r,
                std::map<std::string, obs::LogBucketSketch>* sketches) {
  if (r->round_records == 0) {
    r->algo = rec.str("algo");
    r->first_round = rec.u64("round");
  }
  ++r->round_records;
  r->last_round = rec.u64("round");

  r->selected += counts.u64("selected");
  r->dropped += counts.u64("dropped");
  r->stragglers += counts.u64("stragglers");
  r->accepted += counts.u64("accepted");
  r->rejected += counts.u64("rejected");
  r->retransmissions += counts.u64("retransmissions");
  r->rounds_skipped += counts.u64("skipped");
  r->rollbacks += counts.u64("rolled_back");

  if (const JsonValue* comm = rec.find("comm")) {
    r->uplink_bytes += comm->num("uplink_bytes");
    r->downlink_bytes += comm->num("downlink_bytes");
    r->retransmitted_bytes += comm->num("retransmitted_bytes");
    r->cumulative_bytes = comm->num("cumulative_bytes");
  }
  if (const JsonValue* eval = rec.find("eval")) {
    const double acc = eval->num("avg_accuracy");
    r->final_accuracy = acc;
    if (!r->has_eval || acc > r->best_accuracy) r->best_accuracy = acc;
    r->final_loss = eval->num("avg_loss");
    r->has_eval = true;
  }
  if (const JsonValue* phases = rec.find("phases")) {
    for (const auto& [name, timing] : phases->members) {
      const double ms = timing.num("total_ns") / 1.0e6;
      PhaseStat& stat = r->phases[name];
      ++stat.rounds;
      stat.total_ms += ms;
      if (ms > stat.max_ms) stat.max_ms = ms;
      // Same sketch, same accuracy as the runner's online percentiles, so
      // offline and exported quantiles agree to the last bit.
      sketches->try_emplace(name).first->second.record(ms);
    }
  }
}

void fold_recovery(const JsonValue& rec, HealthReport* r) {
  if (rec.flag("ok")) {
    // Successful commits are routine; only count load-phase recoveries.
    if (rec.str("phase") == "load") ++r->recoveries_ok;
  } else {
    ++r->recoveries_failed;
  }
}

double phase_p95(const JsonValue& baseline, const std::string& name) {
  if (const JsonValue* phases = baseline.find("phases")) {
    if (const JsonValue* phase = phases->find(name)) {
      return phase->num("p95_ms");
    }
  }
  return 0.0;
}

}  // namespace

HealthReport build_report(const std::vector<JsonValue>& records,
                          const JsonValue* trace) {
  HealthReport r;
  std::map<std::string, obs::LogBucketSketch> sketches;
  for (const JsonValue& rec : records) {
    const std::string type = rec.str("type");
    const JsonValue* counts = type == "round" ? rec.find("counts") : nullptr;
    if (counts != nullptr) {
      fold_round(rec, *counts, &r, &sketches);
    } else if (type == "alert") {
      ++r.alerts;
      ++r.alerts_by_rule[rec.str("rule", "?")];
    } else if (type == "recovery") {
      fold_recovery(rec, &r);
    } else if (type == "flight") {
      ++r.flight_dumps;
      ++r.flight_by_trigger[rec.str("trigger", "?")];
    } else if (type == "metrics") {
      // The end-of-run registry snapshot duplicates what the per-round
      // records already carry; acknowledged but not folded.
    } else {
      // Includes a round record without "counts" and a retired "crash"
      // record: schema drift, not zeros.
      ++r.unknown_records;
    }
  }
  for (auto& [name, sketch] : sketches) {
    PhaseStat& stat = r.phases[name];
    stat.p50_ms = sketch.quantile(0.50);
    stat.p90_ms = sketch.quantile(0.90);
    stat.p95_ms = sketch.quantile(0.95);
    stat.p99_ms = sketch.quantile(0.99);
  }
  if (trace != nullptr) {
    if (const JsonValue* events = trace->find("traceEvents")) {
      for (const JsonValue& ev : events->items) {
        if (ev.str("ph") != "X") continue;
        ++r.trace_events;
        r.trace_total_ms += ev.num("dur") / 1.0e3;  // dur is microseconds
      }
    }
  }
  return r;
}

std::string render_json(const HealthReport& r) {
  obs::JsonObject rounds;
  rounds.add("records", r.round_records)
      .add("first", r.first_round)
      .add("last", r.last_round)
      .add("skipped", r.rounds_skipped);

  obs::JsonObject participation;
  participation.add("selected", r.selected)
      .add("dropped", r.dropped)
      .add("stragglers", r.stragglers)
      .add("accepted", r.accepted)
      .add("rejected", r.rejected)
      .add("retransmissions", r.retransmissions);

  obs::JsonObject resilience;
  resilience.add("rollbacks", r.rollbacks)
      .add("recoveries_ok", r.recoveries_ok)
      .add("recoveries_failed", r.recoveries_failed);

  obs::JsonObject alerts_by_rule;
  for (const auto& [rule, n] : r.alerts_by_rule) alerts_by_rule.add(rule, n);
  obs::JsonObject alerts;
  alerts.add("total", r.alerts).add_raw("by_rule", alerts_by_rule.str());

  obs::JsonObject flight_by_trigger;
  for (const auto& [trigger, n] : r.flight_by_trigger) {
    flight_by_trigger.add(trigger, n);
  }
  obs::JsonObject flight;
  flight.add("dumps", r.flight_dumps)
      .add_raw("by_trigger", flight_by_trigger.str());

  obs::JsonObject comm;
  comm.add("uplink_bytes", r.uplink_bytes)
      .add("downlink_bytes", r.downlink_bytes)
      .add("retransmitted_bytes", r.retransmitted_bytes)
      .add("cumulative_bytes", r.cumulative_bytes);

  obs::JsonObject phases;
  for (const auto& [name, stat] : r.phases) {
    obs::JsonObject phase;
    phase.add("rounds", stat.rounds)
        .add("total_ms", stat.total_ms)
        .add("max_ms", stat.max_ms)
        .add("p50_ms", stat.p50_ms)
        .add("p90_ms", stat.p90_ms)
        .add("p95_ms", stat.p95_ms)
        .add("p99_ms", stat.p99_ms);
    phases.add_raw(name, phase.str());
  }

  obs::JsonObject trace;
  trace.add("events", r.trace_events).add("total_ms", r.trace_total_ms);

  obs::JsonObject out;
  out.add("schema", "spatl-report-v1").add("algo", r.algo);
  out.add_raw("rounds", rounds.str());
  if (r.has_eval) {
    out.add_raw("eval", obs::JsonObject()
                            .add("final_accuracy", r.final_accuracy)
                            .add("best_accuracy", r.best_accuracy)
                            .add("final_loss", r.final_loss)
                            .str());
  }
  out.add_raw("participation", participation.str())
      .add_raw("resilience", resilience.str())
      .add_raw("alerts", alerts.str())
      .add_raw("flight", flight.str())
      .add_raw("comm", comm.str())
      .add_raw("phases", phases.str())
      .add_raw("trace", trace.str())
      .add("unknown_records", r.unknown_records);
  return out.str() + "\n";
}

namespace {

std::string fixed2(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string fixed4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

std::string render_markdown(const HealthReport& r) {
  std::string md;
  md += "# SPATL run health report\n\n";
  md += "Algorithm: `" + (r.algo.empty() ? std::string("?") : r.algo) +
        "` — rounds " + std::to_string(r.first_round) + ".." +
        std::to_string(r.last_round) + " (" +
        std::to_string(r.round_records) + " records, " +
        std::to_string(r.rounds_skipped) + " skipped)\n\n";

  if (r.has_eval) {
    md += "## Learning\n\n";
    md += "| final accuracy | best accuracy | final loss |\n";
    md += "|---|---|---|\n";
    md += "| " + fixed4(r.final_accuracy) + " | " + fixed4(r.best_accuracy) +
          " | " + fixed4(r.final_loss) + " |\n\n";
  }

  md += "## Participation\n\n";
  md += "| selected | dropped | stragglers | accepted | rejected | "
        "retransmissions |\n";
  md += "|---|---|---|---|---|---|\n";
  md += "| " + std::to_string(r.selected) + " | " + std::to_string(r.dropped) +
        " | " + std::to_string(r.stragglers) + " | " +
        std::to_string(r.accepted) + " | " + std::to_string(r.rejected) +
        " | " + std::to_string(r.retransmissions) + " |\n\n";

  md += "## Resilience\n\n";
  md += "| rollbacks | recoveries ok | recoveries failed | flight dumps |\n";
  md += "|---|---|---|---|\n";
  md += "| " + std::to_string(r.rollbacks) + " | " +
        std::to_string(r.recoveries_ok) + " | " +
        std::to_string(r.recoveries_failed) + " | " +
        std::to_string(r.flight_dumps) + " |\n\n";

  if (r.alerts > 0) {
    md += "## Alerts (" + std::to_string(r.alerts) + ")\n\n";
    md += "| rule | fired |\n|---|---|\n";
    for (const auto& [rule, n] : r.alerts_by_rule) {
      md += "| " + rule + " | " + std::to_string(n) + " |\n";
    }
    md += "\n";
  }

  md += "## Communication\n\n";
  md += "| cumulative bytes | sampled uplink | sampled downlink | "
        "retransmitted |\n";
  md += "|---|---|---|---|\n";
  md += "| " + fixed2(r.cumulative_bytes) + " | " + fixed2(r.uplink_bytes) +
        " | " + fixed2(r.downlink_bytes) + " | " +
        fixed2(r.retransmitted_bytes) + " |\n\n";

  if (!r.phases.empty()) {
    md += "## Phase latency (ms)\n\n";
    md += "| phase | rounds | total | p50 | p90 | p95 | p99 | max |\n";
    md += "|---|---|---|---|---|---|---|---|\n";
    for (const auto& [name, s] : r.phases) {
      md += "| " + name + " | " + std::to_string(s.rounds) + " | " +
            fixed2(s.total_ms) + " | " + fixed2(s.p50_ms) + " | " +
            fixed2(s.p90_ms) + " | " + fixed2(s.p95_ms) + " | " +
            fixed2(s.p99_ms) + " | " + fixed2(s.max_ms) + " |\n";
    }
    md += "\n";
  }

  if (r.trace_events > 0) {
    md += "## Trace\n\n";
    md += std::to_string(r.trace_events) + " complete events, " +
          fixed2(r.trace_total_ms) + " ms total span time\n\n";
  }

  if (r.unknown_records > 0) {
    md += "**Warning:** " + std::to_string(r.unknown_records) +
          " record(s) with an unknown or retired type, or round records "
          "without \"counts\" — possible schema drift.\n";
  }
  return md;
}

std::vector<DiffViolation> diff_reports(const JsonValue& baseline,
                                        const HealthReport& current,
                                        const DiffTolerances& tol) {
  std::vector<DiffViolation> out;
  const auto violate = [&out](const std::string& what, double base,
                              double cur) {
    out.push_back({what, base, cur});
  };

  if (const JsonValue* eval = baseline.find("eval")) {
    const double base_acc = eval->num("final_accuracy");
    if (current.has_eval &&
        current.final_accuracy < base_acc - tol.accuracy_drop) {
      violate("final_accuracy dropped beyond tolerance", base_acc,
              current.final_accuracy);
    }
  }
  if (const JsonValue* comm = baseline.find("comm")) {
    const double base_bytes = comm->num("cumulative_bytes");
    if (base_bytes > 0.0 &&
        current.cumulative_bytes > base_bytes * (1.0 + tol.bytes_ratio)) {
      violate("cumulative_bytes grew beyond tolerance", base_bytes,
              current.cumulative_bytes);
    }
  }
  for (const auto& [name, stat] : current.phases) {
    const double base_p95 = phase_p95(baseline, name);
    if (base_p95 > 0.0 && stat.p95_ms > base_p95 * (1.0 + tol.p95_ratio)) {
      violate("phase " + name + " p95_ms regressed beyond tolerance",
              base_p95, stat.p95_ms);
    }
  }
  if (const JsonValue* res = baseline.find("resilience")) {
    const double base_failed = res->num("recoveries_failed");
    if (double(current.recoveries_failed) > base_failed) {
      violate("recoveries_failed exceeded baseline", base_failed,
              double(current.recoveries_failed));
    }
  }
  const double base_unknown = baseline.num("unknown_records");
  if (double(current.unknown_records) > base_unknown) {
    violate("unknown_records exceeded baseline", base_unknown,
            double(current.unknown_records));
  }
  return out;
}

namespace {

// Known-input stream for the self-test: two traced rounds with eval, an
// alert, a failed recovery load, and the flight dump its exhaustion fires.
const char kSelfTestJsonl[] =
    R"({"type":"round","algo":"spatl","round":1,"counts":{"selected":4,"dropped":1,"stragglers":0,"accepted":3,"rejected":1,"retransmissions":2,"skipped":0,"rolled_back":0},"comm":{"uplink_bytes":1000,"downlink_bytes":2000,"retransmitted_bytes":100,"cumulative_bytes":3000},"eval":{"avg_accuracy":0.5,"avg_loss":1.2},"phases":{"fl/aggregate":{"total_ns":2000000,"count":1},"fl/local_train":{"total_ns":8000000,"count":4}}}
{"type":"alert","rule":"acc-floor","metric":"eval.avg_accuracy","value":0.5,"threshold":0.6,"direction":"below","round":1}
{"type":"round","algo":"spatl","round":2,"counts":{"selected":4,"dropped":0,"stragglers":1,"accepted":4,"rejected":0,"retransmissions":0,"skipped":0,"rolled_back":1},"comm":{"uplink_bytes":1200,"downlink_bytes":2000,"retransmitted_bytes":0,"cumulative_bytes":6200},"eval":{"avg_accuracy":0.7,"avg_loss":0.9},"phases":{"fl/aggregate":{"total_ns":4000000,"count":1},"fl/local_train":{"total_ns":6000000,"count":4}}}
{"type":"recovery","phase":"load","round":2,"path":"g0.ckpt","attempt":1,"ok":false,"error":"crc mismatch"}
{"type":"flight","trigger":"recovery_exhausted","round":2,"window":2,"rounds_seen":2,"rounds_dropped":0,"first_round":1,"last_round":2,"records":[]}
)";

bool expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "spatl_report self-test FAILED: %s\n", what);
  return ok;
}

}  // namespace

int self_test() {
  std::vector<JsonValue> records;
  std::string err;
  if (!expect(parse_jsonl(kSelfTestJsonl, &records, &err),
              "embedded stream must parse")) {
    std::fprintf(stderr, "  parse error: %s\n", err.c_str());
    return 1;
  }
  const HealthReport r = build_report(records, nullptr);
  bool ok = true;
  ok &= expect(r.algo == "spatl", "algo folds from the first round record");
  ok &= expect(r.round_records == 2 && r.first_round == 1 &&
                   r.last_round == 2,
               "round coverage");
  ok &= expect(r.selected == 8 && r.dropped == 1 && r.stragglers == 1,
               "participation sums");
  ok &= expect(r.accepted == 7 && r.rejected == 1 && r.retransmissions == 2,
               "acceptance sums");
  ok &= expect(r.rollbacks == 1, "resilience counts");
  ok &= expect(r.recoveries_ok == 0 && r.recoveries_failed == 1,
               "recovery ladder counts");
  ok &= expect(r.alerts == 1 && r.alerts_by_rule.count("acc-floor") == 1,
               "alert attribution");
  ok &= expect(r.flight_dumps == 1 &&
                   r.flight_by_trigger.count("recovery_exhausted") == 1,
               "flight attribution");
  ok &= expect(r.has_eval && r.final_accuracy == 0.7 &&
                   r.best_accuracy == 0.7 && r.final_loss == 0.9,
               "eval folds to the last record");
  ok &= expect(r.cumulative_bytes == 6200.0 && r.uplink_bytes == 2200.0,
               "comm totals");
  ok &= expect(r.phases.size() == 2, "two traced phases");
  const PhaseStat& agg = r.phases.at("fl/aggregate");
  ok &= expect(agg.rounds == 2 && agg.max_ms == 4.0, "aggregate phase fold");
  // Sketch guarantee: estimates within 1% relative error of the true
  // sample. With two samples, every quantile's 0-based nearest rank is 0,
  // so p50 through p99 all land on the smaller sample (2 ms).
  ok &= expect(std::fabs(agg.p50_ms - 2.0) <= 0.02 + 1e-12 &&
                   std::fabs(agg.p99_ms - 2.0) <= 0.02 + 1e-12,
               "quantiles within sketch error bound");
  ok &= expect(r.unknown_records == 0, "all record types recognised");

  const std::string json_a = render_json(r);
  const std::string json_b = render_json(build_report(records, nullptr));
  ok &= expect(json_a == json_b, "render_json is byte-deterministic");
  ok &= expect(json_a.find("\"spatl-report-v1\"") != std::string::npos,
               "schema tag present");
  const std::string md = render_markdown(r);
  ok &= expect(md.find("## Phase latency") != std::string::npos,
               "markdown has a phase table");

  // A report must diff clean against itself...
  JsonValue self;
  ok &= expect(parse_json(json_a, &self, &err), "own JSON must re-parse");
  ok &= expect(diff_reports(self, r, DiffTolerances{}).empty(),
               "self-diff has no violations");
  // ...and trip the gate once the baseline is strictly better.
  HealthReport worse = r;
  worse.final_accuracy = r.final_accuracy - 0.5;
  worse.cumulative_bytes = r.cumulative_bytes * 10.0;
  worse.recoveries_failed = r.recoveries_failed + 1;
  ok &= expect(diff_reports(self, worse, DiffTolerances{}).size() == 3,
               "regressed report trips accuracy, bytes and recovery gates");
  return ok ? 0 : 1;
}

}  // namespace spatl::report
