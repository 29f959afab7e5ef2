// spatl_report internals: the strict JSON reader, the telemetry folder,
// the deterministic renderers, and the tolerance-gated diff. The binary's
// embedded known-answer check (self_test) runs here too, so ctest fails if
// either side of the --self-test contract drifts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "report/json.hpp"
#include "report/report.hpp"

namespace spatl::report {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(parse_json(text, &v, &err)) << text << " — " << err;
  return v;
}

std::string parse_err(const std::string& text) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parse_json(text, &v, &err)) << text;
  return err;
}

// ---------------------------------------------------------------------------
// JSON reader

TEST(ReportJson, ParsesScalarsExactly) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").boolean);
  EXPECT_FALSE(parse_ok("false").boolean);
  EXPECT_DOUBLE_EQ(parse_ok("-12.5e2").number, -1250.0);
  EXPECT_DOUBLE_EQ(parse_ok("0.001").number, 0.001);
  EXPECT_EQ(parse_ok("\"hi\"").string, "hi");
}

TEST(ReportJson, DecodesEscapesIncludingUnicode) {
  EXPECT_EQ(parse_ok(R"("a\"b\\c\/d\n\t")").string, "a\"b\\c/d\n\t");
  EXPECT_EQ(parse_ok(R"("\u0041\u00e9")").string, "A\xc3\xa9");
  // Surrogate pair → 4-byte UTF-8.
  EXPECT_EQ(parse_ok(R"("\ud83d\ude00")").string, "\xf0\x9f\x98\x80");
  // The writer's control-character form round-trips.
  EXPECT_EQ(parse_ok(R"("\u0001")").string, std::string("\x01", 1));
}

TEST(ReportJson, ObjectsPreserveInsertionOrder) {
  const JsonValue v = parse_ok(R"({"z":1,"a":{"nested":[1,2,3]},"m":true})");
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "z");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[2].first, "m");
  const JsonValue* nested = v.find("a");
  ASSERT_NE(nested, nullptr);
  ASSERT_NE(nested->find("nested"), nullptr);
  EXPECT_EQ(nested->find("nested")->items.size(), 3u);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.num("z"), 1.0);
  EXPECT_EQ(v.u64("z"), 1u);
  EXPECT_TRUE(v.flag("m"));
  EXPECT_EQ(v.str("absent", "fallback"), "fallback");
}

TEST(ReportJson, RejectsMalformedInputWithPosition) {
  EXPECT_NE(parse_err("{\"a\":1,}").find("expected object key"),
            std::string::npos);
  EXPECT_NE(parse_err("[1,2""").find("unterminated"), std::string::npos);
  EXPECT_NE(parse_err("{} trailing").find("trailing"), std::string::npos);
  EXPECT_NE(parse_err("\"\\x\"").find("invalid escape"), std::string::npos);
  EXPECT_NE(parse_err("\"\x01\"").find("control"), std::string::npos);
  EXPECT_NE(parse_err("\"\\ud800.\"").find("surrogate"), std::string::npos);
  EXPECT_NE(parse_err("nul"), "");
  // Recursion depth is bounded, not stack-bounded.
  EXPECT_NE(parse_err(std::string(100, '[') + std::string(100, ']'))
                .find("deep"),
            std::string::npos);
}

TEST(ReportJson, JsonlReportsTheFailingLine) {
  std::vector<JsonValue> records;
  std::string err;
  EXPECT_TRUE(parse_jsonl("{\"a\":1}\n\n  \n{\"b\":2}\r\n", &records, &err));
  EXPECT_EQ(records.size(), 2u);
  records.clear();
  EXPECT_FALSE(parse_jsonl("{\"a\":1}\n{bad}\n", &records, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Folding + rendering + diff

const char kStream[] =
    "{\"type\":\"round\",\"algo\":\"fedavg\",\"round\":1,"
    "\"counts\":{\"selected\":4,\"skipped\":0},"
    "\"comm\":{\"uplink_bytes\":10,\"downlink_bytes\":20,"
    "\"retransmitted_bytes\":0,\"cumulative_bytes\":30},"
    "\"eval\":{\"avg_accuracy\":0.4,\"avg_loss\":1.5}}\n"
    "{\"type\":\"round\",\"algo\":\"fedavg\",\"round\":2,"
    "\"counts\":{\"selected\":4,\"skipped\":1},"
    "\"comm\":{\"uplink_bytes\":10,\"downlink_bytes\":20,"
    "\"retransmitted_bytes\":0,\"cumulative_bytes\":60}}\n"
    "{\"type\":\"mystery\",\"round\":2}\n";

TEST(ReportFold, CountsUnknownRecordTypes) {
  // A round record in the pre-"counts" shape and a retired "crash" record
  // are schema drift: counted as unknown, not folded as zeros.
  const std::string stream =
      std::string(kStream) +
      "{\"type\":\"round\",\"algo\":\"fedavg\",\"round\":3,\"selected\":4,"
      "\"skipped\":false,\"comm\":{\"uplink_bytes\":10,"
      "\"downlink_bytes\":20,\"retransmitted_bytes\":0,"
      "\"cumulative_bytes\":90}}\n"
      "{\"type\":\"crash\",\"algo\":\"fedavg\",\"round\":2,"
      "\"recovered_to\":1}\n";
  std::vector<JsonValue> records;
  std::string err;
  ASSERT_TRUE(parse_jsonl(stream, &records, &err)) << err;
  const HealthReport r = build_report(records, nullptr);
  EXPECT_EQ(r.algo, "fedavg");
  EXPECT_EQ(r.round_records, 2u);
  EXPECT_EQ(r.last_round, 2u);
  EXPECT_EQ(r.rounds_skipped, 1u);
  EXPECT_EQ(r.selected, 8u);
  EXPECT_TRUE(r.has_eval);
  EXPECT_DOUBLE_EQ(r.final_accuracy, 0.4);
  EXPECT_DOUBLE_EQ(r.cumulative_bytes, 60.0);
  EXPECT_EQ(r.unknown_records, 3u);
}

TEST(ReportRender, JsonIsDeterministicAndReparses) {
  std::vector<JsonValue> records;
  std::string err;
  ASSERT_TRUE(parse_jsonl(kStream, &records, &err)) << err;
  const HealthReport r = build_report(records, nullptr);
  const std::string a = render_json(r);
  const std::string b = render_json(build_report(records, nullptr));
  EXPECT_EQ(a, b);
  JsonValue round_trip;
  ASSERT_TRUE(parse_json(a, &round_trip, &err)) << err;
  EXPECT_EQ(round_trip.str("schema"), "spatl-report-v1");
  EXPECT_EQ(round_trip.num("unknown_records"), 1.0);
  const std::string md = render_markdown(r);
  EXPECT_NE(md.find("# SPATL run health report"), std::string::npos);
  EXPECT_NE(md.find("schema drift"), std::string::npos);  // unknown warning
}

TEST(ReportDiff, EachGateTripsIndependently) {
  std::vector<JsonValue> records;
  std::string err;
  ASSERT_TRUE(parse_jsonl(kStream, &records, &err)) << err;
  HealthReport current = build_report(records, nullptr);
  current.phases["fl/train"].p95_ms = 100.0;
  JsonValue baseline;
  ASSERT_TRUE(parse_json(render_json(current), &baseline, &err)) << err;

  DiffTolerances tol;  // defaults: 0.01 acc, 5% bytes, 50% p95
  EXPECT_TRUE(diff_reports(baseline, current, tol).empty());

  HealthReport worse = current;
  worse.final_accuracy -= 0.02;
  ASSERT_EQ(diff_reports(baseline, worse, tol).size(), 1u);
  EXPECT_NE(diff_reports(baseline, worse, tol)[0].what.find("accuracy"),
            std::string::npos);

  worse = current;
  worse.cumulative_bytes *= 1.10;
  EXPECT_EQ(diff_reports(baseline, worse, tol).size(), 1u);

  worse = current;
  worse.phases["fl/train"].p95_ms = 200.0;
  EXPECT_EQ(diff_reports(baseline, worse, tol).size(), 1u);

  worse = current;
  worse.recoveries_failed += 1;
  EXPECT_EQ(diff_reports(baseline, worse, tol).size(), 1u);

  worse = current;
  worse.unknown_records += 1;
  EXPECT_EQ(diff_reports(baseline, worse, tol).size(), 1u);

  // Looser tolerances absorb the same regressions.
  tol.accuracy_drop = 0.5;
  tol.bytes_ratio = 10.0;
  tol.p95_ratio = 10.0;
  worse = current;
  worse.final_accuracy -= 0.02;
  worse.cumulative_bytes *= 1.10;
  worse.phases["fl/train"].p95_ms = 200.0;
  EXPECT_TRUE(diff_reports(baseline, worse, tol).empty());
}

TEST(ReportSelfTest, EmbeddedKnownAnswerCheckPasses) {
  EXPECT_EQ(self_test(), 0);
}

}  // namespace
}  // namespace spatl::report
