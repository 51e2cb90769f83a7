// Tests for the src/trace subsystem: span and instant records through the
// .cyt recorder (nothing dropped on long single-thread runs, nothing
// recorded with the span gate closed, concurrent multi-thread recording),
// histogram percentile math against known distributions, and well-formed
// Chrome trace JSON export (parsed back with a minimal JSON reader).
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string_view>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "trace/metrics.h"

namespace cycada::trace {
namespace {

// --- Minimal JSON reader (just enough to validate our own exports) --------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return parse_number(out);
  }

  bool parse_number(JsonValue& out) {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    out.number = std::strtod(begin, &end);
    if (end == begin) return false;
    out.kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<std::size_t>(end - begin);
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            out += '?';  // close enough for validation purposes
            pos_ += 4;
            break;
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      std::string key;
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace(std::move(key), std::move(value));
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Runs `body` under a fresh capture (span gate open when `spans`) and
// returns the parsed file. The recorder is process-global; every test
// leaves it stopped.
ParsedTrace capture(const char* name, bool spans,
                    const std::function<void()>& body) {
  const std::string path =
      std::string(::testing::TempDir()) + "trace_" + name + ".cyt";
  TraceRecorder& recorder = TraceRecorder::instance();
  EXPECT_TRUE(recorder.start(path, spans).is_ok());
  body();
  EXPECT_TRUE(recorder.stop().is_ok());
  auto parsed = read_cyt(path);
  std::remove(path.c_str());
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  return parsed.is_ok() ? std::move(parsed).value() : ParsedTrace{};
}

bool is_kind(const CytRecord& record, CytEventKind kind) {
  return record.kind == static_cast<std::uint8_t>(kind);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_FALSE(TraceRecorder::instance().active()); }
  void TearDown() override { (void)TraceRecorder::instance().stop(); }
};

// --- Span and instant records ----------------------------------------------

TEST_F(TraceTest, ScopesAndInstantsAreCollected) {
  const ParsedTrace trace = capture("scopes", /*spans=*/true, [] {
    TRACE_SCOPE("unit", "outer");
    TRACE_INSTANT("unit", "marker");
  });
  const CytRecord* span = nullptr;
  const CytRecord* instant = nullptr;
  for (const CytRecord& record : trace.records) {
    if (!cyt_is_span(record) || cyt_span_category(record) != "unit") continue;
    if (is_kind(record, CytEventKind::kSpan)) {
      EXPECT_EQ(span, nullptr);
      span = &record;
      EXPECT_EQ(cyt_span_name(record), "outer");
    } else {
      EXPECT_EQ(instant, nullptr);
      instant = &record;
      EXPECT_TRUE(is_kind(record, CytEventKind::kInstant));
      EXPECT_EQ(cyt_span_name(record), "marker");
    }
  }
  ASSERT_NE(span, nullptr);
  ASSERT_NE(instant, nullptr);
  // Exact timestamps: the instant fired inside the span's interval.
  EXPECT_GE(span->timestamp_ns, trace.header.start_ns);
  EXPECT_LE(span->timestamp_ns, instant->timestamp_ns);
  EXPECT_LE(instant->timestamp_ns,
            span->timestamp_ns + static_cast<std::int64_t>(span->aux));
  EXPECT_EQ(span->tid, instant->tid);
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  // Recorder idle: the span gate is closed.
  EXPECT_FALSE(spans_enabled());
  {
    TRACE_SCOPE("unit", "ignored");
    TRACE_INSTANT("unit", "ignored");
  }
  // A capture without spans (CYCADA_TRACE_CAPTURE alone) keeps the gate
  // closed too: the file holds no span records.
  const ParsedTrace trace = capture("disabled", /*spans=*/false, [] {
    EXPECT_FALSE(spans_enabled());
    TRACE_SCOPE("unit", "ignored");
    TRACE_INSTANT("unit", "ignored");
  });
  for (const CytRecord& record : trace.records) {
    EXPECT_FALSE(cyt_is_span(record));
  }
  EXPECT_FALSE(spans_enabled());
}

// A long single-thread run keeps every span and instant: the recorder
// drops only when its chunk pool is exhausted, and 3 x 8192 + 3 records fit
// in the pool even if the writer thread never drains.
TEST_F(TraceTest, LongRunsKeepEverySpan) {
  constexpr int kLaps = 3;
  constexpr int kSpansPerLap = 8192;
  const ParsedTrace trace = capture("long", /*spans=*/true, [] {
    for (int lap = 0; lap < kLaps; ++lap) {
      for (int i = 0; i < kSpansPerLap; ++i) TRACE_SCOPE("long", "span");
      TRACE_INSTANT("long", "lap");
    }
  });
  int spans = 0;
  int instants = 0;
  for (const CytRecord& record : trace.records) {
    if (!cyt_is_span(record) || cyt_span_category(record) != "long") continue;
    if (is_kind(record, CytEventKind::kSpan)) ++spans;
    if (is_kind(record, CytEventKind::kInstant)) ++instants;
  }
  EXPECT_EQ(spans, kLaps * kSpansPerLap);
  EXPECT_EQ(instants, kLaps);
  EXPECT_EQ(trace.dropped, 0u);
}

TEST_F(TraceTest, ConcurrentSpanRecordingFromManyThreads) {
  constexpr int kThreads = 4;
  constexpr int kSpans = 2000;
  // The writer thread drains full chunks while the workers keep recording
  // (the TSan-relevant interleaving).
  const ParsedTrace trace = capture("mt", /*spans=*/true, [] {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kSpans; ++i) {
          TRACE_SCOPE("mt", "worker-span");
        }
      });
    }
    for (auto& thread : threads) thread.join();
  });

  std::set<std::uint32_t> tids;
  int count = 0;
  for (const CytRecord& record : trace.records) {
    if (!cyt_is_span(record) || cyt_span_category(record) != "mt") continue;
    ++count;
    tids.insert(record.tid);
  }
  EXPECT_EQ(count, kThreads * kSpans);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(trace.dropped, 0u);
}

// --- Histogram ------------------------------------------------------------

TEST(HistogramTest, PercentilesOfBimodalDistribution) {
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.record(100);
  for (int i = 0; i < 900; ++i) histogram.record(1000);
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_EQ(histogram.sum(), 100 * 100 + 900 * 1000);
  EXPECT_EQ(histogram.min(), 100);
  EXPECT_EQ(histogram.max(), 1000);
  // 10% of samples are 100 ns; everything from p10 up lands in the 1000 ns
  // bucket (upper bound clamped to the observed max).
  EXPECT_GE(histogram.percentile(5), 100);
  EXPECT_LE(histogram.percentile(5), 150);
  EXPECT_EQ(histogram.percentile(50), 1000);
  EXPECT_EQ(histogram.percentile(95), 1000);
  EXPECT_EQ(histogram.percentile(99), 1000);
}

TEST(HistogramTest, PercentilesOfUniformDistribution) {
  Histogram histogram;
  for (int v = 1; v <= 1000; ++v) histogram.record(v);
  // Buckets are ±25% wide, so the estimate lands near the true percentile.
  EXPECT_GE(histogram.percentile(50), 400);
  EXPECT_LE(histogram.percentile(50), 650);
  EXPECT_GE(histogram.percentile(99), 900);
  EXPECT_LE(histogram.percentile(99), 1000);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.percentile(50), 0);
  EXPECT_EQ(histogram.min(), 0);
}

TEST(HistogramTest, ConcurrentRecordingSumsExactly) {
  Histogram histogram;
  constexpr int kThreads = 4;
  constexpr int kSamples = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 1; i <= kSamples; ++i) histogram.record(i);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kSamples);
  EXPECT_EQ(histogram.sum(),
            static_cast<std::int64_t>(kThreads) * kSamples * (kSamples + 1) / 2);
  EXPECT_EQ(histogram.min(), 1);
  EXPECT_EQ(histogram.max(), kSamples);
}

// --- Chrome JSON export ---------------------------------------------------

TEST_F(TraceTest, ChromeJsonExportParsesBack) {
  const ParsedTrace trace = capture("json", /*spans=*/true, [] {
    capture_span("alpha", "span-a", 1000, 500);
    capture_span("beta", "evil\"name\\with\nescapes", 2000, 250);
    capture_instant("alpha", "tick");
  });

  const std::string json = chrome_trace_json(trace);
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).parse(root)) << json;
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events.array.size(), 3u);

  std::set<std::string> categories;
  std::set<std::string> phases;
  std::set<std::string> names;
  for (const JsonValue& event : events.array) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    for (const char* key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
      EXPECT_TRUE(event.has(key)) << "missing " << key;
    }
    categories.insert(event.at("cat").string);
    phases.insert(event.at("ph").string);
    names.insert(event.at("name").string);
    EXPECT_GT(event.at("tid").number, 0);
  }
  EXPECT_TRUE(categories.count("alpha"));
  EXPECT_TRUE(categories.count("beta"));
  EXPECT_TRUE(phases.count("X"));
  EXPECT_TRUE(phases.count("i"));
  EXPECT_TRUE(names.count("evil\"name\\with\nescapes"));
  for (const JsonValue& event : events.array) {
    if (event.at("name").string != "span-a") continue;
    EXPECT_DOUBLE_EQ(event.at("ts").number, 1.0);  // microseconds
    EXPECT_DOUBLE_EQ(event.at("dur").number, 0.5);
  }
}

// --- Metrics registry -----------------------------------------------------

TEST(MetricsTest, RegistryCountersAndSnapshot) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.reset();
  Counter& counter = registry.counter("test.counter");
  counter.add();
  counter.add(4);
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_EQ(&registry.counter("test.counter"), &counter);  // deduplicated

  Histogram& histogram = registry.histogram("test.latency_ns");
  histogram.record(1000);
  histogram.record(3000);

  const MetricsSnapshot snapshot = registry.snapshot();
  bool found_counter = false;
  bool found_histogram = false;
  for (const auto& c : snapshot.counters) {
    if (c.name == "test.counter") {
      found_counter = true;
      EXPECT_EQ(c.value, 5u);
    }
  }
  for (const auto& h : snapshot.histograms) {
    if (h.name == "test.latency_ns") {
      found_histogram = true;
      EXPECT_EQ(h.count, 2u);
      EXPECT_EQ(h.sum, 4000);
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_TRUE(found_histogram);

  std::ostringstream summary;
  registry.dump_summary(summary);
  EXPECT_NE(summary.str().find("test.counter"), std::string::npos);
  EXPECT_NE(summary.str().find("test.latency_ns"), std::string::npos);

  JsonValue root;
  ASSERT_TRUE(JsonParser(snapshot.to_json()).parse(root));
  EXPECT_EQ(root.at("counters").at("test.counter").number, 5);
  EXPECT_EQ(root.at("histograms").at("test.latency_ns").at("count").number, 2);

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
}

}  // namespace
}  // namespace cycada::trace
