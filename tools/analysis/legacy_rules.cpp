// The original per-file determinism/resource rules, ported onto the shared
// scanner. Rule semantics are unchanged from the single-file spatl_lint;
// see the driver's usage text for the one-line description of each.
#include <cctype>

#include "analysis/analysis.hpp"

namespace spatl::analysis {
namespace {

void check_banned_random(const SourceFile& f, std::vector<Finding>* out) {
  for (const char* token : {"rand(", "srand(", "time("}) {
    for (std::size_t p : find_token(f.text.code, token)) {
      emit(f, out, "banned-random", p,
           std::string(token) +
               ") call — use a seeded common::Rng so runs replay");
    }
  }
  for (std::size_t p : find_token(f.text.code, "random_device")) {
    emit(f, out, "banned-random", p,
         "std::random_device — nondeterministic entropy source");
  }
}

void check_chrono_now(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel == "src/common/timer.hpp") return;
  for (std::size_t p : find_token(f.text.code, "now(")) {
    if (p >= 2 && f.text.code[p - 1] == ':' && f.text.code[p - 2] == ':') {
      emit(f, out, "chrono-now", p,
           "clock ::now() outside common/timer.hpp — wall-clock reads "
           "break reproducibility");
    }
  }
}

void check_fl_unordered(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel.rfind("src/fl/", 0) != 0) return;
  for (const char* token : {"unordered_map", "unordered_set"}) {
    for (std::size_t p : find_token(f.text.code, token)) {
      emit(f, out, "fl-unordered", p,
           std::string("std::") + token +
               " in an aggregation path — hash-order iteration reorders "
               "float reductions; use std::map/std::vector");
    }
  }
}

void check_naked_new(const SourceFile& f, std::vector<Finding>* out) {
  for (std::size_t p : find_token(f.text.code, "new")) {
    emit(f, out, "naked-new", p,
         "raw new — use containers or std::make_unique");
  }
  for (std::size_t p : find_token(f.text.code, "delete")) {
    std::size_t q = p;
    while (q > 0 &&
           std::isspace(static_cast<unsigned char>(f.text.code[q - 1]))) {
      --q;
    }
    if (q > 0 && f.text.code[q - 1] == '=') continue;  // deleted member fn
    emit(f, out, "naked-new", p, "raw delete — ownership must be RAII-managed");
  }
}

void check_pragma_once(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel.size() < 4 || f.rel.substr(f.rel.size() - 4) != ".hpp") return;
  if (f.text.raw.find("#pragma once") == std::string::npos) {
    emit(f, out, "pragma-once", 0, "header is missing #pragma once");
  }
}

void check_raw_thread(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel == "src/common/thread_pool.hpp" ||
      f.rel == "src/common/thread_pool.cpp") {
    return;
  }
  for (const char* token : {"thread", "jthread"}) {
    for (std::size_t p : find_token(f.text.code, token)) {
      if (p >= 5 && f.text.code.compare(p - 5, 5, "std::") == 0) {
        emit(f, out, "raw-thread", p,
             std::string("std::") + token +
                 " outside common/thread_pool — route parallelism through "
                 "ThreadPool/parallel_for");
      }
    }
  }
}

void check_raw_stderr(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel == "src/common/log.cpp") return;    // the sanctioned log sink
  if (f.rel.rfind("src/obs/", 0) == 0) return;  // telemetry exporters
  for (std::size_t p : find_token(f.text.code, "stderr")) {
    emit(f, out, "raw-stderr", p,
         "raw stderr write — route diagnostics through common/log.hpp "
         "(log_warn/log_error)");
  }
  for (std::size_t p : find_token(f.text.code, "cerr")) {
    if (p >= 5 && f.text.code.compare(p - 5, 5, "std::") == 0) {
      emit(f, out, "raw-stderr", p,
           "std::cerr — route diagnostics through common/log.hpp "
           "(log_warn/log_error)");
    }
  }
}

void check_async_wallclock(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel.rfind("src/fl/async", 0) != 0) return;
  // Stricter than chrono-now: in the semi-async buffer even naming a clock
  // type is banned, because any time source other than the fault model's
  // virtual compute_time would break bit-reproducible buffered runs.
  for (const char* token : {"chrono", "steady_clock", "system_clock",
                            "high_resolution_clock", "time_point",
                            "sleep_for"}) {
    for (std::size_t p : find_token(f.text.code, token)) {
      emit(f, out, "async-wallclock", p,
           std::string(token) +
               " in src/fl/async — the straggler buffer runs on virtual "
               "time only (FaultModel compute_time draws)");
    }
  }
  // The include path is a string literal (blanked in the code channel), so
  // match it against the extracted literals instead.
  for (const auto& lit : f.text.strings) {
    if (lit.text == "common/timer.hpp") {
      emit(f, out, "async-wallclock", lit.pos,
           "common/timer.hpp include in src/fl/async — timers are wall "
           "clocks; key buffering on simulated compute_time instead");
    }
  }
}

void check_telemetry_record_type(const SourceFile& f,
                                 std::vector<Finding>* out) {
  // Every JSONL record the product emits starts with add("type", "<tag>");
  // downstream consumers (spatl_report, the JsonChecker suites) key on the
  // closed tag set, so an unknown literal here is schema drift at the
  // source. Tests are exempt — they feed exporters synthetic types on
  // purpose ("probe").
  if (f.rel.rfind("src/", 0) != 0 && f.rel.rfind("tools/", 0) != 0 &&
      f.rel.rfind("bench/", 0) != 0) {
    return;
  }
  static const std::set<std::string> kRecordTypes = {
      "round", "metrics", "alert", "recovery", "flight"};
  const auto& lits = f.text.strings;
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    if (lits[i].text != "type") continue;
    // The key literal must be the first argument of an add( call. The code
    // channel keeps the quotes, so the opening quote sits at lits[i].pos.
    std::size_t q = lits[i].pos;
    while (q > 0 &&
           std::isspace(static_cast<unsigned char>(f.text.code[q - 1]))) {
      --q;
    }
    if (q < 4 || f.text.code.compare(q - 4, 4, "add(") != 0 ||
        !token_at(f.text.code, q - 4, "add(")) {
      continue;
    }
    // Between the key and the value: closing quote, comma, opening quote of
    // the very next literal. Anything else (a variable, an expression) is
    // outside this rule's reach.
    std::size_t r = f.text.code.find('"', lits[i].pos + 1);
    if (r == std::string::npos) continue;
    ++r;
    while (r < f.text.code.size() &&
           std::isspace(static_cast<unsigned char>(f.text.code[r]))) {
      ++r;
    }
    if (r >= f.text.code.size() || f.text.code[r] != ',') continue;
    ++r;
    while (r < f.text.code.size() &&
           std::isspace(static_cast<unsigned char>(f.text.code[r]))) {
      ++r;
    }
    if (r != lits[i + 1].pos) continue;  // value is not a string literal
    if (kRecordTypes.count(lits[i + 1].text) == 0) {
      emit(f, out, "telemetry-record-type", lits[i + 1].pos,
           "unknown telemetry record type \"" + lits[i + 1].text +
               "\" — the JSONL schema covers round/metrics/alert/"
               "recovery/flight; extend the set (and spatl_report) "
               "deliberately, not by typo");
    }
  }
}

void check_simd_isolation(const SourceFile& f, std::vector<Finding>* out) {
  // Vector intrinsics are confined to src/tensor/simd/ — the only directory
  // whose translation units are built with ISA flags and dispatched to
  // behind a runtime CPU check (tensor/backend.hpp). An intrinsics header
  // anywhere else either SIGILLs older CPUs (the TU lacks -mavx2) or leaks
  // ISA flags into portable code; both are wrong. Angle-bracket include
  // paths are not string literals, so the scanner leaves them in the code
  // channel where find_token sees them.
  if (f.rel.rfind("src/tensor/simd/", 0) == 0) return;  // the sanctioned home
  for (const char* token :
       {"immintrin", "x86intrin", "xmmintrin", "emmintrin", "smmintrin",
        "avxintrin", "avx2intrin", "avx512fintrin", "arm_neon"}) {
    for (std::size_t p : find_token(f.text.code, token)) {
      emit(f, out, "simd-isolation", p,
           std::string(token) +
               " outside src/tensor/simd/ — vector intrinsics live behind "
               "the ComputeContext seam (tensor/backend.hpp) so portable "
               "TUs never carry ISA-specific code");
    }
  }
}

void check_store_bypass(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel.rfind("src/fl/", 0) != 0) return;
  if (f.rel.rfind("src/fl/store/", 0) == 0) return;  // the sanctioned layer
  for (const char* token : {"save_tensors", "load_tensors", "write_tensors",
                            "read_tensors"}) {
    for (std::size_t p : find_token(f.text.code, token)) {
      emit(f, out, "store-bypass", p,
           std::string(token) +
               " in src/fl outside fl/store — route run-state persistence "
               "through the durable store (atomic commit + CRC "
               "verification + retention)");
    }
  }
}

}  // namespace

void run_legacy_rules(const Project& project, std::vector<Finding>* out) {
  for (const auto& f : project.files) {
    check_banned_random(f, out);
    check_chrono_now(f, out);
    check_fl_unordered(f, out);
    check_naked_new(f, out);
    check_pragma_once(f, out);
    check_raw_thread(f, out);
    check_raw_stderr(f, out);
    check_async_wallclock(f, out);
    check_telemetry_record_type(f, out);
    check_simd_isolation(f, out);
    check_store_bypass(f, out);
  }
}

}  // namespace spatl::analysis
