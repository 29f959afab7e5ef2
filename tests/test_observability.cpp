// Telemetry layer (DESIGN.md §10): metrics registry merge semantics —
// including under concurrent pool chunks, the TSan tier's race probe —
// span tracer ordering/windowing, exporter well-formedness, and the
// contract the whole layer hangs on: enabling telemetry must not move a
// single float of the simulation.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/comm.hpp"
#include "fl/runner.hpp"
#include "nn/module.hpp"
#include "obs/alert.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "obs/trace.hpp"

namespace spatl {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON syntax checker — enough to prove exporter output is
// machine-loadable without pulling a JSON library into the build.
class JsonChecker {
 public:
  static bool valid(const std::string& text) {
    JsonChecker c(text);
    c.ws();
    if (!c.value()) return false;
    c.ws();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        ++pos_;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      if (!value()) return false;
      ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }
  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    for (;;) {
      if (!value()) return false;
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsRegistry, CounterGaugeHistogramRoundTrip) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();

  obs::Counter c = reg.counter("test.obs.counter");
  c.add(5);
  c.increment();

  obs::Gauge g = reg.gauge("test.obs.gauge");
  g.set(1.0);
  g.set(2.0);
  g.set(42.5);  // last write wins

  obs::Histogram h = reg.histogram("test.obs.hist", {1.0, 3.0, 5.0});
  h.record(0.5);   // bucket 0
  h.record(1.0);   // bucket 0 (inclusive upper bound)
  h.record(2.0);   // bucket 1
  h.record(4.0);   // bucket 2
  h.record(99.0);  // overflow

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("test.obs.counter"), 6u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.obs.gauge"), 42.5);
  const obs::HistogramSnapshot& hs = snap.histograms.at("test.obs.hist");
  ASSERT_EQ(hs.buckets.size(), 4u);
  EXPECT_EQ(hs.buckets[0], 2u);
  EXPECT_EQ(hs.buckets[1], 1u);
  EXPECT_EQ(hs.buckets[2], 1u);
  EXPECT_EQ(hs.buckets[3], 1u);
  EXPECT_EQ(hs.count, 5u);
  EXPECT_NEAR(hs.sum, 0.5 + 1.0 + 2.0 + 4.0 + 99.0, 1e-5);
}

TEST(MetricsRegistry, HistogramSumSurvivesNegativeValues) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  obs::Histogram h = reg.histogram("test.obs.signed_hist", {0.0});
  h.record(-2.5);  // sum travels as signed micro-units in a u64 slot
  h.record(1.0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramSnapshot& hs =
      snap.histograms.at("test.obs.signed_hist");
  EXPECT_EQ(hs.count, 2u);
  EXPECT_NEAR(hs.sum, -1.5, 1e-5);
}

TEST(MetricsRegistry, RegistrationIsIdempotentButKindChecked) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  obs::Counter a = reg.counter("test.obs.dup");
  obs::Counter b = reg.counter("test.obs.dup");  // same slot
  a.increment();
  b.increment();
  EXPECT_EQ(reg.snapshot().counters.at("test.obs.dup"), 2u);
  EXPECT_THROW(reg.gauge("test.obs.dup"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("test.obs.dup", {1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, ResetZeroesButHandlesStayValid) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter c = reg.counter("test.obs.reset");
  c.add(7);
  reg.reset();
  EXPECT_EQ(reg.snapshot().counters.at("test.obs.reset"), 0u);
  c.add(3);
  EXPECT_EQ(reg.snapshot().counters.at("test.obs.reset"), 3u);
}

// The race probe for the TSan tier: many pool threads hammer the same
// counter/histogram handles through their per-thread shards; snapshot()
// must merge to the exact total.
TEST(MetricsRegistry, ConcurrentUpdatesMergeExactlyAcrossPoolThreads) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  obs::Counter c = reg.counter("test.obs.parallel_counter");
  obs::Histogram h = reg.histogram("test.obs.parallel_hist", {1.0, 3.0, 5.0});

  constexpr std::size_t kChunks = 64;
  common::ThreadPool pool(4);
  pool.run_chunks(kChunks, [&](std::size_t i) {
    c.add(i + 1);
    h.record(double(i % 8));
  });

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.obs.parallel_counter"),
            kChunks * (kChunks + 1) / 2);
  const obs::HistogramSnapshot& hs =
      snap.histograms.at("test.obs.parallel_hist");
  EXPECT_EQ(hs.count, kChunks);
  // values 0..7, 8 repetitions each: {0,1} | {2,3} | {4,5} | {6,7}
  ASSERT_EQ(hs.buckets.size(), 4u);
  for (const std::uint64_t bucket : hs.buckets) EXPECT_EQ(bucket, 16u);
  EXPECT_NEAR(hs.sum, 8.0 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7), 1e-4);
}

TEST(MetricsRegistry, ThreadPoolSelfInstrumentationCountsChunks) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  common::ThreadPool pool(2);
  pool.run_chunks(10, [](std::size_t) {});
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_GE(snap.counters.at("threadpool.batches"), 1u);
  EXPECT_GE(snap.counters.at("threadpool.chunks"), 10u);
  EXPECT_TRUE(snap.gauges.count("threadpool.queue_depth"));
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, DisabledSpansRecordNothing) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  const std::uint64_t before = tracer.cursor();
  {
    SPATL_TRACE_SPAN("test/never");
    SPATL_TRACE_SPAN("test/never_nested", "test");
  }
  EXPECT_EQ(tracer.cursor(), before);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, NestedSpansRecordDepthAndCompletionOrder) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_capacity(1 << 10);  // clears
  tracer.set_enabled(true);
  {
    SPATL_TRACE_SPAN("test/outer");
    { SPATL_TRACE_SPAN("test/inner"); }
  }
  tracer.set_enabled(false);
  const std::vector<obs::SpanEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Inner completes first; events() is completion (seq) order.
  EXPECT_STREQ(events[0].name, "test/inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_STREQ(events[1].name, "test/outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_GE(events[1].dur_ns, events[0].dur_ns);
}

TEST(Tracer, RingOverflowDropsOldest) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_capacity(4);
  tracer.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    SPATL_TRACE_SPAN("test/ring");
  }
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 2u);
  tracer.set_capacity(1 << 16);  // restore default for later tests
}

TEST(Tracer, PhaseTotalsWindowFromCursor) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_capacity(1 << 10);
  tracer.set_enabled(true);
  { SPATL_TRACE_SPAN("test/before_window"); }
  const std::uint64_t cursor = tracer.cursor();
  { SPATL_TRACE_SPAN("test/a"); }
  { SPATL_TRACE_SPAN("test/a"); }
  { SPATL_TRACE_SPAN("test/b"); }
  tracer.set_enabled(false);
  const auto totals = tracer.phase_totals(cursor);
  ASSERT_EQ(totals.size(), 2u);  // before_window excluded, names sorted
  EXPECT_EQ(totals[0].name, "test/a");
  EXPECT_EQ(totals[0].count, 2u);
  EXPECT_EQ(totals[1].name, "test/b");
  EXPECT_EQ(totals[1].count, 1u);
}

// ---------------------------------------------------------------------------
// Exporters

TEST(Exporters, JsonObjectEscapesAndSerializesNonFiniteAsNull) {
  obs::JsonObject obj;
  obj.add("plain", std::string("a\"b\\c\nd"))
      .add("num", 1.5)
      .add("nan", std::nan(""))
      .add("inf", HUGE_VAL)
      .add("flag", true)
      .add("count", std::uint64_t{7})
      .add("delta", std::int64_t{-3});
  const std::string text = obj.str();
  EXPECT_TRUE(JsonChecker::valid(text)) << text;
  EXPECT_NE(text.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(text.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(text.find("\\\"b\\\\c\\n"), std::string::npos);
}

TEST(Exporters, MetricsObjectIsValidJson) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset();
  reg.counter("test.obs.export_counter").add(3);
  reg.gauge("test.obs.export_gauge").set(0.25);
  reg.histogram("test.obs.export_hist", {1.0, 2.0}).record(1.5);
  const std::string text = obs::metrics_object(reg.snapshot()).str();
  EXPECT_TRUE(JsonChecker::valid(text)) << text;
  EXPECT_NE(text.find("\"test.obs.export_counter\":3"), std::string::npos);
  EXPECT_NE(text.find("\"test.obs.export_hist\""), std::string::npos);
}

TEST(Exporters, JsonlWriterEmitsOneValidObjectPerLine) {
  const std::string path = temp_path("test_obs.jsonl");
  obs::JsonlWriter writer(path);
  for (int i = 0; i < 3; ++i) {
    obs::JsonObject rec;
    rec.add("type", "probe").add("i", std::uint64_t(i));
    writer.write(rec);
  }
  EXPECT_EQ(writer.lines(), 3u);
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonChecker::valid(line)) << line;
  }
}

TEST(Exporters, ChromeTraceIsValidJsonWithOneEventPerSpan) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_capacity(1 << 10);
  tracer.set_enabled(true);
  { SPATL_TRACE_SPAN("test/trace_export"); }
  { SPATL_TRACE_SPAN("test/trace_export2", "test"); }
  tracer.set_enabled(false);
  const std::string path = temp_path("test_obs.trace.json");
  obs::write_chrome_trace(tracer, path);
  const std::string text = read_file(path);
  EXPECT_TRUE(JsonChecker::valid(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"test/trace_export\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"test\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Federated runner integration

fl::RunResult run_fed(fl::RunOptions opts, std::vector<float>* params_out,
                      const std::string& algo_name = "fedavg") {
  data::SyntheticConfig scfg;
  scfg.num_samples = 240;
  scfg.image_size = 8;
  scfg.num_classes = 10;
  scfg.noise_stddev = 0.2f;
  scfg.seed = 11;
  const auto source = data::make_synth_cifar(scfg);
  common::Rng rng(13);
  fl::FlEnvironment env(source, /*clients=*/4, /*beta=*/0.5,
                        /*val_fraction=*/0.25, rng);
  fl::FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 32;
  cfg.local.lr = 0.05;
  cfg.seed = 21;
  const auto algo = fl::make_baseline(algo_name, env, cfg);
  fl::RunResult result = fl::run_federated(*algo, opts);
  if (params_out != nullptr) {
    *params_out = nn::flatten_values(algo->global_model().all_params());
  }
  return result;
}

TEST(Telemetry, RunnerEmitsOneRoundRecordPerRoundWithPhases) {
  // local-only trains and evaluates off the client-round skeleton, so its
  // records must carry the same training and evaluation phases.
  for (const std::string algo : {"fedavg", "local-only"}) {
    SCOPED_TRACE(algo);
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_capacity(1 << 16);
    tracer.set_enabled(true);
    const std::string path = temp_path("test_obs_rounds.jsonl");
    {
      obs::JsonlWriter telemetry(path);
      fl::RunOptions opts;
      opts.rounds = 3;
      opts.eval_every = 2;
      opts.telemetry = &telemetry;
      const fl::RunResult result = run_fed(opts, nullptr, algo);
      EXPECT_EQ(telemetry.lines(), 3u);
    }
    tracer.set_enabled(false);

    const std::vector<std::string> lines = read_lines(path);
    ASSERT_EQ(lines.size(), 3u);
    for (const std::string& line : lines) {
      EXPECT_TRUE(JsonChecker::valid(line)) << line;
      EXPECT_NE(line.find("\"type\":\"round\""), std::string::npos);
      EXPECT_NE(line.find("\"algo\":\"" + algo + "\""), std::string::npos);
      EXPECT_NE(line.find("\"selected\":"), std::string::npos);
      EXPECT_NE(line.find("\"comm\":{"), std::string::npos);
      EXPECT_NE(line.find("\"uplink_bytes\":"), std::string::npos);
      // Tracing was on: per-phase wall-time attribution rides along.
      EXPECT_NE(line.find("\"phases\":{"), std::string::npos);
      EXPECT_NE(line.find("\"fl/train\""), std::string::npos);
      if (algo == "fedavg") {
        EXPECT_NE(line.find("\"fl/aggregate\""), std::string::npos);
      }
    }
    // eval_every = 2 → eval summary and its phase land on rounds 2 and 3
    // (final round).
    EXPECT_EQ(lines[0].find("\"eval\":"), std::string::npos);
    EXPECT_EQ(lines[0].find("\"fl/eval\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"eval\":"), std::string::npos);
    EXPECT_NE(lines[1].find("\"fl/eval\""), std::string::npos);
  }
}

TEST(Telemetry, TelemetryEveryStrideStillEmitsFinalRound) {
  const std::string path = temp_path("test_obs_stride.jsonl");
  obs::JsonlWriter telemetry(path);
  fl::RunOptions opts;
  opts.rounds = 5;
  opts.eval_every = 100;
  opts.telemetry = &telemetry;
  opts.telemetry_every = 2;
  run_fed(opts, nullptr);
  // Rounds 2, 4 (stride) + 5 (final) = 3 records.
  EXPECT_EQ(telemetry.lines(), 3u);
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines.back().find("\"round\":5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// json_escape known answers (the control-character path in particular)

TEST(Exporters, JsonEscapeControlCharacterKnownAnswers) {
  EXPECT_EQ(obs::json_escape("plain ascii"), "plain ascii");
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  // The three named short escapes...
  EXPECT_EQ(obs::json_escape("\n\r\t"), "\\n\\r\\t");
  // ...and every other control character as \u00XX.
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(obs::json_escape(std::string("\x08", 1)), "\\u0008");
  EXPECT_EQ(obs::json_escape(std::string("\x1f", 1)), "\\u001f");
  EXPECT_EQ(obs::json_escape(std::string("a\0b", 3)), "a\\u0000b");
  // 0x20 (space) is the first character that passes through untouched.
  EXPECT_EQ(obs::json_escape(" ~"), " ~");
  // An escaped payload embedded in a record stays machine-loadable.
  obs::JsonObject rec;
  rec.add("msg", std::string("bad\x02 value\n"));
  EXPECT_TRUE(JsonChecker::valid(rec.str())) << rec.str();
  EXPECT_NE(rec.str().find("\\u0002"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram bucket boundaries in the exported snapshot

TEST(Exporters, HistogramBucketBoundsRideTheSnapshot) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  auto h = registry.histogram("test.bounds_ms", {1.0, 10.0, 100.0});
  h.record(0.5);    // bucket 0: <= 1
  h.record(5.0);    // bucket 1: (1, 10]
  h.record(50.0);   // bucket 2: (10, 100]
  h.record(500.0);  // overflow bucket
  const std::string text =
      obs::metrics_object(registry.snapshot()).str();
  EXPECT_TRUE(JsonChecker::valid(text)) << text;
  // The bounds array makes bucket counts self-describing: a consumer can
  // reconstruct "1 sample <= 1ms, 1 in (1,10], ..." from the record alone.
  EXPECT_NE(text.find("\"test.bounds_ms\":{\"bounds\":[1,10,100],"
                      "\"buckets\":[1,1,1,1]"),
            std::string::npos)
      << text;
  registry.reset();
}

// ---------------------------------------------------------------------------
// Log-bucket quantile sketch

TEST(QuantileSketch, QuantilesStayWithinTheRelativeErrorBound) {
  obs::LogBucketSketch s(0.01);
  for (int i = 1; i <= 1000; ++i) s.record(double(i));
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
  // Nearest rank over 1..1000: quantile q lands on value q*999 + 1.
  EXPECT_NEAR(s.quantile(0.50), 500.0, 500.0 * 0.01 + 1e-9);
  EXPECT_NEAR(s.quantile(0.90), 900.0, 900.0 * 0.01 + 1e-9);
  EXPECT_NEAR(s.quantile(0.95), 950.0, 950.0 * 0.01 + 1e-9);
  EXPECT_NEAR(s.quantile(0.99), 991.0, 991.0 * 0.01 + 1e-9);
  EXPECT_NEAR(s.quantile(1.0), 1000.0, 1000.0 * 0.01 + 1e-9);
  // Bounded memory: 1000 distinct values collapse into O(log range / α)
  // buckets, far fewer than one per sample.
  EXPECT_LT(s.bucket_count(), 400u);
}

TEST(QuantileSketch, MergeEqualsRecordingTheUnion) {
  obs::LogBucketSketch evens(0.02), odds(0.02), all(0.02);
  for (int i = 1; i <= 500; ++i) {
    (i % 2 == 0 ? evens : odds).record(double(i));
    all.record(double(i));
  }
  evens.merge(odds);
  EXPECT_EQ(evens.count(), all.count());
  EXPECT_DOUBLE_EQ(evens.sum(), all.sum());
  // Same buckets, same counts → identical estimates, not just close ones.
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(evens.quantile(q), all.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, RejectsBadAccuracyAndMismatchedMerge) {
  EXPECT_THROW(obs::LogBucketSketch(0.0), std::invalid_argument);
  EXPECT_THROW(obs::LogBucketSketch(1.0), std::invalid_argument);
  obs::LogBucketSketch a(0.01), b(0.02);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(QuantileSketch, IgnoresNonFiniteAndTracksZeroes) {
  obs::LogBucketSketch s;
  s.record(std::nan(""));
  s.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.count(), 0u);
  s.record(0.0);
  s.record(0.0);
  s.record(8.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_NEAR(s.quantile(1.0), 8.0, 8.0 * 0.01 + 1e-9);
  const obs::SketchSnapshot snap = s.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 8.0);
  EXPECT_DOUBLE_EQ(snap.relative_accuracy, 0.01);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(MetricsRegistry, SketchPlaneRegistersExportsAndResets) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  auto sk = registry.sketch("test.sketch_ms");
  for (int i = 1; i <= 100; ++i) sk.record(double(i));
  // Re-registration under the same accuracy returns the same sketch...
  registry.sketch("test.sketch_ms").record(200.0);
  obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.sketches.count("test.sketch_ms"), 1u);
  EXPECT_EQ(snap.sketches["test.sketch_ms"].count, 101u);
  EXPECT_NEAR(snap.sketches["test.sketch_ms"].p50, 51.0, 51.0 * 0.011);
  // ...while an accuracy mismatch is a registration bug, loudly rejected.
  EXPECT_THROW(registry.sketch("test.sketch_ms", 0.05),
               std::invalid_argument);
  registry.reset();
  snap = registry.snapshot();
  ASSERT_EQ(snap.sketches.count("test.sketch_ms"), 1u);
  EXPECT_EQ(snap.sketches["test.sketch_ms"].count, 0u);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, RingKeepsLastNAndDumpsValidJson) {
  const std::string path = temp_path("test_obs_flight_ring.jsonl");
  {
    obs::JsonlWriter sink(path);
    obs::FlightRecorder flight(&sink, 3);
    for (std::uint64_t r = 1; r <= 5; ++r) {
      flight.record_round(
          r, obs::JsonObject().add("round", r).add("ok", true).str());
    }
    EXPECT_EQ(flight.window_size(), 3u);
    EXPECT_EQ(flight.rounds_seen(), 5u);
    EXPECT_EQ(flight.rounds_dropped(), 2u);
    flight.dump("unit_probe", 5);
    EXPECT_EQ(flight.dumps(), 1u);
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& rec = lines[0];
  EXPECT_TRUE(JsonChecker::valid(rec)) << rec;
  EXPECT_NE(rec.find("\"type\":\"flight\""), std::string::npos);
  EXPECT_NE(rec.find("\"trigger\":\"unit_probe\""), std::string::npos);
  EXPECT_NE(rec.find("\"first_round\":3"), std::string::npos);
  EXPECT_NE(rec.find("\"last_round\":5"), std::string::npos);
  // The dropped rounds are really gone from the embedded window.
  EXPECT_EQ(rec.find("{\"round\":2,"), std::string::npos);
  EXPECT_NE(rec.find("{\"round\":4,"), std::string::npos);
}

TEST(FlightRecorder, NullSinkCountsDumpsWithoutWriting) {
  obs::FlightRecorder flight(nullptr, 4);
  flight.record_round(1, "{}");
  flight.dump("unit_probe", 1);
  flight.dump("unit_probe", 1);
  EXPECT_EQ(flight.dumps(), 2u);
  EXPECT_EQ(flight.window_size(), 1u);
}

// ---------------------------------------------------------------------------
// Alert edge-trigger semantics under checkpoint replay

TEST(Alerts, EdgeTriggerReArmsAcrossCheckpointReplay) {
  const std::string path = temp_path("test_obs_alert_rearm.jsonl");
  obs::JsonlWriter sink(path);
  obs::AlertWatcher watcher(&sink);
  watcher.add_rule({"rej_high", "fl.reject_rate", 0.5, /*above=*/true});
  watcher.observe("fl.reject_rate", 0.2, 1);  // good side
  watcher.observe("fl.reject_rate", 0.8, 2);  // crossing → fires
  watcher.observe("fl.reject_rate", 0.9, 3);  // sustained breach: silent
  EXPECT_EQ(watcher.alerts_emitted(), 1u);
  // Crash rollback: the runner restores round 1 and replays. The replayed
  // good-side observation must re-arm the rule so the repeated breach
  // alerts again instead of staying latched from before the rollback.
  watcher.observe("fl.reject_rate", 0.2, 1);
  watcher.observe("fl.reject_rate", 0.8, 2);
  EXPECT_EQ(watcher.alerts_emitted(), 2u);
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonChecker::valid(line)) << line;
    EXPECT_NE(line.find("\"type\":\"alert\""), std::string::npos);
    EXPECT_NE(line.find("\"rule\":\"rej_high\""), std::string::npos);
    EXPECT_NE(line.find("\"round\":2"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Communication snapshot deltas

TEST(Comm, SinceReportsDeltasAndSurvivesLedgerReset) {
  fl::CommLedger ledger;
  ledger.add_uplink_floats(100);  // 400 bytes
  const fl::CommSnapshot before = ledger.snapshot();
  ledger.add_downlink_bytes(1000.0);
  ledger.add_uplink_retransmit_bytes(50.0);
  fl::CommSnapshot delta = ledger.snapshot().since(before);
  EXPECT_DOUBLE_EQ(delta.uplink, 50.0);
  EXPECT_DOUBLE_EQ(delta.downlink, 1000.0);
  EXPECT_DOUBLE_EQ(delta.retransmitted, 50.0);
  // A reset (or restore to an older snapshot) between observations makes
  // the later totals smaller than `before`: since() then reports the flow
  // since that reset — never a negative delta.
  ledger.reset();
  ledger.add_uplink_floats(10);  // 40 bytes since the reset
  delta = ledger.snapshot().since(before);
  EXPECT_DOUBLE_EQ(delta.uplink, 40.0);
  EXPECT_DOUBLE_EQ(delta.downlink, 0.0);
  EXPECT_DOUBLE_EQ(delta.retransmitted, 0.0);
  EXPECT_DOUBLE_EQ(delta.total(), 40.0);
  // Restore semantics: counters continue from the restored totals.
  ledger.restore(before);
  ledger.add_downlink_bytes(8.0);
  delta = ledger.snapshot().since(before);
  EXPECT_DOUBLE_EQ(delta.uplink, 0.0);
  EXPECT_DOUBLE_EQ(delta.downlink, 8.0);
}

// The load-bearing invariant: telemetry + tracing observe the run, they
// never participate in it. Global parameters must match bit for bit.
TEST(Telemetry, EnabledTelemetryIsBitIdenticalToDisabled) {
  fl::RunOptions opts;
  opts.rounds = 3;
  opts.eval_every = 2;

  std::vector<float> baseline;
  run_fed(opts, &baseline);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_capacity(1 << 16);
  tracer.set_enabled(true);
  std::vector<float> traced;
  {
    obs::JsonlWriter telemetry(temp_path("test_obs_bitid.jsonl"));
    fl::RunOptions opts_t = opts;
    opts_t.telemetry = &telemetry;
    run_fed(opts_t, &traced);
  }
  tracer.set_enabled(false);

  ASSERT_EQ(baseline.size(), traced.size());
  EXPECT_EQ(std::memcmp(baseline.data(), traced.data(),
                        baseline.size() * sizeof(float)),
            0)
      << "telemetry changed the simulation";
}

// Same contract for the flight recorder: a run with the ring attached (and
// dumping on every divergence rollback) must finish with bit-identical
// parameters to the same run without it.
TEST(Telemetry, FlightRecorderOffSwitchIsBitIdentical) {
  fl::RunOptions opts;
  opts.rounds = 4;
  opts.eval_every = 2;
  opts.checkpoint_every = 1;
  // One colluder pushing an enormous fixed direction makes every mean-
  // aggregated round's loss non-finite, so each round rolls back.
  fl::FaultConfig fc;
  fc.byzantine_clients = {1, 0, 0, 0};
  fc.attack_kind = fl::AttackKind::kFixedDirection;
  fc.attack_scale = 1.0e30;
  opts.faults = fc;
  opts.resilience = fl::ResilienceConfig{};
  opts.divergence_factor = 2.0;

  std::vector<float> baseline;
  const fl::RunResult plain = run_fed(opts, &baseline);
  ASSERT_EQ(plain.total("rolled_back"), opts.rounds);

  const std::string path = temp_path("test_obs_flight_run.jsonl");
  std::vector<float> flown;
  {
    obs::JsonlWriter telemetry(path);
    obs::FlightRecorder flight(&telemetry, 2);
    fl::RunOptions opts_f = opts;
    opts_f.telemetry = &telemetry;
    // Stride past every round: the ring must still capture each one, so
    // the dump carries rounds the JSONL stream itself skipped.
    opts_f.telemetry_every = 100;
    opts_f.flight = &flight;
    run_fed(opts_f, &flown);
    EXPECT_EQ(flight.dumps(), opts.rounds);
  }

  ASSERT_EQ(baseline.size(), flown.size());
  EXPECT_EQ(std::memcmp(baseline.data(), flown.data(),
                        baseline.size() * sizeof(float)),
            0)
      << "flight recorder changed the simulation";

  bool found_window = false;
  for (const std::string& line : read_lines(path)) {
    if (line.find("\"type\":\"flight\"") == std::string::npos) continue;
    EXPECT_TRUE(JsonChecker::valid(line)) << line;
    EXPECT_NE(line.find("\"trigger\":\"divergence_rollback\""),
              std::string::npos);
    // Rounds 1 and 2 never produced telemetry lines (stride 100), yet the
    // window preserved their rendered records for round 3's dump.
    found_window |= line.find("\"round\":3,") != std::string::npos &&
                    line.find("\"first_round\":1") != std::string::npos &&
                    line.find("\"last_round\":2") != std::string::npos;
  }
  EXPECT_TRUE(found_window);
}

}  // namespace
}  // namespace spatl
