// Offline health reports over SPATL telemetry.
//
// spatl_report ingests the JSONL stream a run produced (round / alert /
// recovery / metrics / flight records, see DESIGN.md §10) plus an
// optional Chrome trace, folds them into one HealthReport, and renders it
// as operator-facing markdown and machine-readable JSON
// ("spatl-report-v1"). The JSON form doubles as a regression baseline:
// diff_reports compares a current report against a stored one and counts
// tolerance violations, which the CLI turns into a non-zero exit code.
//
// Everything here is deterministic: same input bytes → same output bytes.
// Aggregates live in ordered maps, floats render through obs::JsonObject's
// %.17g path, and phase percentiles are recomputed from the per-round
// phase timings with the same obs::LogBucketSketch the runner uses online.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace spatl::report {

/// Latency summary for one traced phase, rebuilt from the per-round
/// "phases" blocks of the round records.
struct PhaseStat {
  std::uint64_t rounds = 0;   // rounds contributing a sample
  double total_ms = 0.0;      // summed wall time across those rounds
  double max_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// One run's health, folded from a telemetry stream.
struct HealthReport {
  std::string algo;

  // Round coverage.
  std::uint64_t round_records = 0;
  std::uint64_t first_round = 0;
  std::uint64_t last_round = 0;

  // Learning outcome (absent when the run never evaluated).
  bool has_eval = false;
  double final_accuracy = 0.0;
  double best_accuracy = 0.0;
  double final_loss = 0.0;

  // Participation totals across the observed rounds.
  std::uint64_t selected = 0;
  std::uint64_t dropped = 0;
  std::uint64_t stragglers = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t retransmissions = 0;

  // Resilience events.
  std::uint64_t rounds_skipped = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t recoveries_ok = 0;
  std::uint64_t recoveries_failed = 0;

  // Alert / flight activity.
  std::uint64_t alerts = 0;
  std::map<std::string, std::uint64_t> alerts_by_rule;
  std::uint64_t flight_dumps = 0;
  std::map<std::string, std::uint64_t> flight_by_trigger;

  // Communication. Sampled sums cover only the rounds that emitted a
  // record (telemetry stride may skip rounds); cumulative_bytes is the
  // ledger total as of the last record and covers the whole run.
  double uplink_bytes = 0.0;
  double downlink_bytes = 0.0;
  double retransmitted_bytes = 0.0;
  double cumulative_bytes = 0.0;

  // Per-phase latency, keyed by the tracer's phase name ("fl/aggregate").
  std::map<std::string, PhaseStat> phases;

  // Chrome trace ingest (zero when no trace was supplied).
  std::uint64_t trace_events = 0;
  double trace_total_ms = 0.0;

  // Records whose "type" is missing, unrecognised or retired ("crash"), and
  // round records without a "counts" object — should stay zero on a healthy
  // stream;
  // surfaced so schema drift is visible in the report.
  std::uint64_t unknown_records = 0;
};

/// Tolerances for diff_reports. Ratios are fractional headroom over the
/// baseline; the accuracy tolerance is an absolute drop in [0,1] units.
struct DiffTolerances {
  double accuracy_drop = 0.01;
  double bytes_ratio = 0.05;
  double p95_ratio = 0.50;
};

/// One tolerance violation found by diff_reports.
struct DiffViolation {
  std::string what;      // human-readable description
  double baseline = 0.0;
  double current = 0.0;
};

/// Fold parsed telemetry records into a HealthReport. `trace` may be null;
/// when given it must be a Chrome trace object ({"traceEvents": [...]}).
HealthReport build_report(const std::vector<JsonValue>& records,
                          const JsonValue* trace);

/// Machine-readable rendering, schema "spatl-report-v1". Deterministic:
/// byte-identical for identical reports. Ends with a newline.
std::string render_json(const HealthReport& r);

/// Operator-facing markdown rendering. Deterministic as well.
std::string render_markdown(const HealthReport& r);

/// Compare `current` against a previously rendered "spatl-report-v1"
/// baseline. Checks: final accuracy may not drop more than
/// `accuracy_drop`; cumulative bytes may not exceed baseline by more than
/// `bytes_ratio`; each baseline phase's p95 may not exceed baseline by
/// more than `p95_ratio`; recoveries_failed and unknown_records may not
/// exceed the baseline at all.
std::vector<DiffViolation> diff_reports(const JsonValue& baseline,
                                        const HealthReport& current,
                                        const DiffTolerances& tol);

/// Built-in known-answer check (run by `spatl_report --self-test` and
/// ctest): builds a report from an embedded stream, verifies the folded
/// numbers, re-renders twice for byte-identity, and exercises both the
/// clean and the violating diff path. Returns 0 on success; prints the
/// first failure to stderr and returns 1 otherwise.
int self_test();

}  // namespace spatl::report
