// This tool IS a CLI diagnostics surface, hence:
// spatl-lint: allow(raw-stderr)
//
// spatl_report — offline health reports over SPATL telemetry.
//
//   spatl_report --jsonl run.jsonl [--trace run.trace.json]
//                [--out-json run.report.json] [--out-md run.report.md]
//                [--diff baseline.report.json]
//                [--tol-accuracy 0.01] [--tol-bytes 0.05] [--tol-p95 0.5]
//   spatl_report --self-test
//
// With no --out-* flag the markdown report goes to stdout. --diff compares
// the freshly built report against a stored "spatl-report-v1" baseline and
// exits 1 when any tolerance is violated, which makes the tool usable as a
// CI health gate:
//
//   spatl_report --jsonl run.jsonl --diff golden.report.json || exit 1
//
// Exit codes: 0 healthy, 1 diff violations or self-test failure, 2 usage
// or I/O errors. Output is deterministic — identical inputs produce
// byte-identical reports.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "report/report.hpp"

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return bool(out);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: spatl_report --jsonl <run.jsonl> [--trace <trace.json>]\n"
      "                    [--out-json <path>] [--out-md <path>]\n"
      "                    [--diff <baseline.report.json>]\n"
      "                    [--tol-accuracy F] [--tol-bytes F] [--tol-p95 F]\n"
      "       spatl_report --self-test\n");
  return 2;
}

int run(const spatl::common::Flags& flags) {
  using spatl::report::DiffTolerances;
  using spatl::report::DiffViolation;
  using spatl::report::HealthReport;
  using spatl::report::JsonValue;

  if (flags.get_bool("self-test", false)) {
    const int rc = spatl::report::self_test();
    if (rc == 0) std::printf("spatl_report self-test OK\n");
    return rc;
  }

  const std::string jsonl_path = flags.get("jsonl");
  if (jsonl_path.empty()) return usage();

  std::string raw;
  if (!read_file(jsonl_path, &raw)) {
    std::fprintf(stderr, "spatl_report: cannot read %s\n",
                 jsonl_path.c_str());
    return 2;
  }
  std::vector<JsonValue> records;
  std::string err;
  if (!spatl::report::parse_jsonl(raw, &records, &err)) {
    std::fprintf(stderr, "spatl_report: %s: %s\n", jsonl_path.c_str(),
                 err.c_str());
    return 2;
  }

  JsonValue trace;
  const JsonValue* trace_ptr = nullptr;
  const std::string trace_path = flags.get("trace");
  if (!trace_path.empty()) {
    std::string trace_raw;
    if (!read_file(trace_path, &trace_raw)) {
      std::fprintf(stderr, "spatl_report: cannot read %s\n",
                   trace_path.c_str());
      return 2;
    }
    if (!spatl::report::parse_json(trace_raw, &trace, &err)) {
      std::fprintf(stderr, "spatl_report: %s: %s\n", trace_path.c_str(),
                   err.c_str());
      return 2;
    }
    trace_ptr = &trace;
  }

  const HealthReport report = spatl::report::build_report(records, trace_ptr);
  const std::string json = spatl::report::render_json(report);
  const std::string markdown = spatl::report::render_markdown(report);

  const std::string out_json = flags.get("out-json");
  if (!out_json.empty() && !write_file(out_json, json)) {
    std::fprintf(stderr, "spatl_report: cannot write %s\n", out_json.c_str());
    return 2;
  }
  const std::string out_md = flags.get("out-md");
  if (!out_md.empty() && !write_file(out_md, markdown)) {
    std::fprintf(stderr, "spatl_report: cannot write %s\n", out_md.c_str());
    return 2;
  }
  if (out_json.empty() && out_md.empty()) std::fputs(markdown.c_str(), stdout);

  const std::string diff_path = flags.get("diff");
  if (!diff_path.empty()) {
    std::string base_raw;
    if (!read_file(diff_path, &base_raw)) {
      std::fprintf(stderr, "spatl_report: cannot read %s\n",
                   diff_path.c_str());
      return 2;
    }
    JsonValue baseline;
    if (!spatl::report::parse_json(base_raw, &baseline, &err)) {
      std::fprintf(stderr, "spatl_report: %s: %s\n", diff_path.c_str(),
                   err.c_str());
      return 2;
    }
    if (baseline.str("schema") != "spatl-report-v1") {
      std::fprintf(stderr,
                   "spatl_report: %s is not a spatl-report-v1 document\n",
                   diff_path.c_str());
      return 2;
    }
    DiffTolerances tol;
    tol.accuracy_drop = flags.get_double("tol-accuracy", tol.accuracy_drop);
    tol.bytes_ratio = flags.get_double("tol-bytes", tol.bytes_ratio);
    tol.p95_ratio = flags.get_double("tol-p95", tol.p95_ratio);
    const std::vector<DiffViolation> violations =
        spatl::report::diff_reports(baseline, report, tol);
    for (const DiffViolation& v : violations) {
      std::fprintf(stderr, "DIFF VIOLATION: %s (baseline %.6g, current %.6g)\n",
                   v.what.c_str(), v.baseline, v.current);
    }
    if (!violations.empty()) {
      std::fprintf(stderr, "spatl_report: %zu violation(s) vs %s\n",
                   violations.size(), diff_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spatl_report: healthy vs %s\n", diff_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed, repeated or unknown flag, or a stray positional, is a
  // usage error wherever it is read.
  try {
    const spatl::common::Flags flags(argc, argv, 1);
    flags.check_known({"jsonl", "trace", "out-json", "out-md", "diff",
                       "tol-accuracy", "tol-bytes", "tol-p95", "self-test"});
    return run(flags);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "spatl_report: %s\n", e.what());
    return usage();
  }
}
