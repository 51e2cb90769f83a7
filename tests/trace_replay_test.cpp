// Trace capture/replay (src/trace/cyt.h, src/core/replay.h) and the trace
// miner (analyze::check_trace, docs/TRACING.md): byte-identical round
// trips, rejection of truncated/corrupt/wrong-version files with errors
// that name the defect, capture→replay count fidelity, every seeded mining
// rule, legacy batch records read as plain calls, span records riding
// along without changing what replay and the miner see, and the committed
// golden corpora.
#include "core/replay.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "core/diplomat.h"
#include "glport/system_config.h"
#include "passmark/passmark.h"
#include "trace/cyt.h"
#include "util/status.h"

namespace cycada::core {
namespace {

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "cyt_" + name + ".cyt";
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

trace::CytRecord make_def(std::uint32_t id, const char* name,
                          DiplomatPattern pattern) {
  trace::CytRecord def = trace::cyt_zero_record();
  def.type = static_cast<std::uint8_t>(trace::CytRecordType::kDef);
  def.kind = static_cast<std::uint8_t>(pattern);
  def.id = id;
  std::strncpy(def.name, name, trace::kCytNameChars - 1);
  return def;
}

trace::CytRecord make_event(std::uint32_t id, trace::CytEventKind kind,
                            std::uint8_t flags = 0, std::uint32_t aux = 0,
                            std::uint32_t tid = 0) {
  trace::CytRecord event = trace::cyt_zero_record();
  event.type = static_cast<std::uint8_t>(trace::CytRecordType::kEvent);
  event.kind = static_cast<std::uint8_t>(kind);
  event.flags = flags;
  event.id = id;
  event.tid = tid;
  event.aux = aux;
  return event;
}

Status write_trace(const std::string& path,
                   const std::vector<trace::CytRecord>& records) {
  trace::CytHeader header{};
  return trace::write_cyt(path, header, records);
}

// Captures `workload` into `path` through the real recorder (with span
// records when `spans`).
void capture(const std::string& path, const std::function<void()>& workload,
             bool spans = false) {
  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
  ASSERT_TRUE(recorder.start(path, spans).is_ok());
  workload();
  ASSERT_TRUE(recorder.stop().is_ok());
  ASSERT_EQ(recorder.dropped(), 0u);
}

std::map<std::string, std::uint64_t> registry_call_counts() {
  std::map<std::string, std::uint64_t> counts;
  for (const DiplomatSnapshot& s : DiplomatRegistry::instance().snapshot()) {
    if (s.calls != 0) counts[s.name] = s.calls;
  }
  return counts;
}

std::map<std::string, std::uint64_t> delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, count] : after) {
    auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (count != base) out[name] = count - base;
  }
  return out;
}

class TraceReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  }
};

// --- Format round trips ------------------------------------------------------

TEST_F(TraceReplayTest, RecorderFileRoundTripsByteIdentical) {
  const std::string path = tmp_path("roundtrip");
  DiplomatEntry& enable =
      DiplomatRegistry::instance().entry("glEnable", DiplomatPattern::kDirect);
  DiplomatEntry& multi = DiplomatRegistry::instance().entry(
      "trace_replay_test.multi", DiplomatPattern::kMulti);
  capture(path, [&] {
    for (int i = 0; i < 3; ++i) diplomat_call(enable, {}, [] {});
    diplomat_call(multi, {}, [] {});
  });

  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_FALSE(parsed->records.empty());

  const std::string rewritten = tmp_path("roundtrip2");
  ASSERT_TRUE(trace::write_cyt(rewritten, parsed->header, parsed->records,
                               parsed->dropped)
                  .is_ok());
  EXPECT_EQ(read_file(path), read_file(rewritten));
}

TEST_F(TraceReplayTest, TruncatedFilesAreRejectedWithClearErrors) {
  const std::string path = tmp_path("trunc_src");
  ASSERT_TRUE(write_trace(path, {make_def(1, "fn", DiplomatPattern::kDirect),
                                 make_event(1, trace::CytEventKind::kCall)})
                  .is_ok());
  const std::string bytes = read_file(path);

  const std::string trunc = tmp_path("trunc");
  // Shorter than header + footer: structurally impossible.
  write_file(trunc, bytes.substr(0, 40));
  auto r1 = trace::read_cyt(trunc);
  ASSERT_FALSE(r1.is_ok());
  EXPECT_NE(r1.status().message().find("truncated"), std::string::npos)
      << r1.status().to_string();

  // Cut mid-record: the payload is no longer a whole number of records.
  write_file(trunc, bytes.substr(0, bytes.size() - 100));
  auto r2 = trace::read_cyt(trunc);
  ASSERT_FALSE(r2.is_ok());
  EXPECT_NE(r2.status().message().find("truncated"), std::string::npos)
      << r2.status().to_string();

  // Whole records but the footer is gone (crashed writer).
  write_file(trunc, bytes.substr(0, bytes.size() - sizeof(trace::CytFooter)));
  auto r3 = trace::read_cyt(trunc);
  ASSERT_FALSE(r3.is_ok());
  EXPECT_NE(r3.status().message().find("truncated"), std::string::npos)
      << r3.status().to_string();
}

TEST_F(TraceReplayTest, CorruptRecordFailsTheChecksum) {
  const std::string path = tmp_path("corrupt");
  ASSERT_TRUE(write_trace(path, {make_def(1, "fn", DiplomatPattern::kDirect),
                                 make_event(1, trace::CytEventKind::kCall)})
                  .is_ok());
  std::string bytes = read_file(path);
  // Flip one byte inside the first record's name field.
  bytes[sizeof(trace::CytHeader) + 100] ^= 0x5a;
  write_file(path, bytes);
  auto parsed = trace::read_cyt(path);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().message().find("checksum"), std::string::npos)
      << parsed.status().to_string();
}

TEST_F(TraceReplayTest, WrongVersionAndMagicAreRejected) {
  const std::string path = tmp_path("version");
  ASSERT_TRUE(write_trace(path, {make_def(1, "fn", DiplomatPattern::kDirect)})
                  .is_ok());
  std::string bytes = read_file(path);

  trace::CytHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = trace::kCytVersion + 7;
  std::string versioned = bytes;
  std::memcpy(versioned.data(), &header, sizeof(header));
  write_file(path, versioned);
  auto wrong_version = trace::read_cyt(path);
  ASSERT_FALSE(wrong_version.is_ok());
  EXPECT_NE(wrong_version.status().message().find("version"),
            std::string::npos)
      << wrong_version.status().to_string();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  write_file(path, bad_magic);
  auto not_cyt = trace::read_cyt(path);
  ASSERT_FALSE(not_cyt.is_ok());
  EXPECT_NE(not_cyt.status().message().find("magic"), std::string::npos)
      << not_cyt.status().to_string();

  EXPECT_FALSE(trace::read_cyt(path + ".does-not-exist").is_ok());
}

// --- Capture → replay fidelity ----------------------------------------------

TEST_F(TraceReplayTest, ReplayReproducesCapturedCallCountsExactly) {
  const std::string path = tmp_path("fidelity");
  DiplomatEntry& enable =
      DiplomatRegistry::instance().entry("glEnable", DiplomatPattern::kDirect);
  DiplomatEntry& skip = DiplomatRegistry::instance().entry(
      "glGetString", DiplomatPattern::kDataDependent);
  DiplomatEntry& plain = DiplomatRegistry::instance().entry(
      "trace_replay_test.plain", DiplomatPattern::kDirect);
  DiplomatEntry& multi = DiplomatRegistry::instance().entry(
      "trace_replay_test.multi", DiplomatPattern::kMulti);
  capture(path, [&] {
    for (int i = 0; i < 5; ++i) diplomat_call(enable, {}, [] {});
    for (int i = 0; i < 2; ++i) diplomat_call(plain, {}, [] {});
    diplomat_call(multi, {}, [] {});
    diplomat_skip(skip);
  });

  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const std::map<std::string, std::uint64_t> per_pass =
      trace_call_counts(*parsed);
  EXPECT_EQ(per_pass.at("glEnable"), 5u);
  EXPECT_EQ(per_pass.at("trace_replay_test.plain"), 2u);
  EXPECT_EQ(per_pass.at("trace_replay_test.multi"), 1u);
  EXPECT_EQ(per_pass.at("glGetString"), 1u);

  ReplayOptions options;
  options.threads = 2;
  options.iterations = 3;
  const std::map<std::string, std::uint64_t> before = registry_call_counts();
  auto stats = replay_trace(*parsed, options);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  const std::map<std::string, std::uint64_t> replayed =
      delta(before, registry_call_counts());

  for (const auto& [name, count] : per_pass) {
    EXPECT_EQ(replayed.at(name), count * 6) << name;
  }
  EXPECT_EQ(replayed.size(), per_pass.size());

  // Every call crosses twice, the multi one included; the skip crosses
  // nothing.
  EXPECT_EQ(trace_expected_crossings(*parsed), 16u);
  EXPECT_EQ(stats->persona_switches, 16u * 6);
  EXPECT_EQ(stats->calls, 9u * 6);
  EXPECT_EQ(stats->skips, 6u);
}

TEST_F(TraceReplayTest, ReplayRejectsDeflessIdsAndBadOptions) {
  const std::string path = tmp_path("defless");
  ASSERT_TRUE(
      write_trace(path, {make_event(7, trace::CytEventKind::kCall)}).is_ok());
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_FALSE(replay_trace(*parsed, {}).is_ok());

  ReplayOptions bad;
  bad.threads = 0;
  EXPECT_FALSE(replay_trace(trace::ParsedTrace{}, bad).is_ok());
}

// Adds a def for `id` with a raw pattern byte, and one call referencing it,
// to a hand-built trace.
void add_def_and_call(trace::ParsedTrace& trace, std::uint32_t id,
                      std::string name, std::uint8_t pattern) {
  trace.defs[id] = trace::CytDef{std::move(name), pattern};
  trace.records.push_back(make_event(id, trace::CytEventKind::kCall));
}

constexpr auto kDirectByte =
    static_cast<std::uint8_t>(DiplomatPattern::kDirect);

TEST_F(TraceReplayTest, ReplayRejectsAnUnknownPatternBeforeRegistering) {
  trace::ParsedTrace trace;
  add_def_and_call(trace, 1, "replay_test.valid", kDirectByte);
  add_def_and_call(trace, 2, "replay_test.bad_pattern", 0x7f);
  const std::size_t before = DiplomatRegistry::instance().snapshot().size();
  auto result = replay_trace(trace, {});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DiplomatRegistry::instance().snapshot().size(), before);
}

TEST_F(TraceReplayTest, ReplayRejectsMoreNamesThanTheRegistryHolds) {
  trace::ParsedTrace trace;
  for (std::uint32_t id = 0; id <= DiplomatRegistry::kCapacity; ++id) {
    add_def_and_call(trace, id, "replay_test.flood." + std::to_string(id),
                     kDirectByte);
  }
  const std::size_t before = DiplomatRegistry::instance().snapshot().size();
  auto result = replay_trace(trace, {});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DiplomatRegistry::instance().snapshot().size(), before);
}

// --- Trace mining ------------------------------------------------------------

TEST_F(TraceReplayTest, MinerFlagsEverySeededViolation) {
  const std::string path = tmp_path("violations");
  std::vector<trace::CytRecord> records = {
      // kSkip on a direct diplomat: only data-dependent entries may skip.
      make_def(1, "mine.direct", DiplomatPattern::kDirect),
      make_event(1, trace::CytEventKind::kSkip),
      // A coalesced multi crossing on a non-multi def.
      make_event(1, trace::CytEventKind::kMulti),
      // An invoked kUnimplemented diplomat.
      make_def(2, "mine.unimpl", DiplomatPattern::kUnimplemented),
      make_event(2, trace::CytEventKind::kCall),
      // An event with no def record at all.
      make_event(99, trace::CytEventKind::kCall),
      // A Table 2 name recorded with the wrong pattern.
      make_def(4, "glClear", DiplomatPattern::kIndirect),
      make_event(4, trace::CytEventKind::kCall),
  };
  ASSERT_TRUE(write_trace(path, records).is_ok());
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();

  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(*parsed, report);
  EXPECT_EQ(audit.events, 5u);
  EXPECT_TRUE(report.has_rule("trace.illegal-skip"));
  EXPECT_TRUE(report.has_rule("trace.pattern-contradiction"));
  EXPECT_TRUE(report.has_rule("trace.unimplemented-invoked"));
  EXPECT_TRUE(report.has_rule("trace.def-missing"));
  EXPECT_TRUE(report.has_rule("trace.classification-mismatch"));
  EXPECT_EQ(report.findings().size(), 5u);
}

// Captures from older builds hold kBatchedCall records (calls that shared
// one crossing) closed by a kBatchFlush, on defs whose flags carry a
// batchable bit. This build reads such a batched call as a plain call that
// costs its own crossing pair, skips the flush and ignores the bit.
TEST_F(TraceReplayTest, LegacyBatchRecordsReadAsPlainCalls) {
  const std::string path = tmp_path("legacy_batch");
  trace::CytRecord def = make_def(1, "glEnable", DiplomatPattern::kDirect);
  def.flags = 1u << 0;  // the legacy batchable bit
  const std::uint8_t scalar_void =
      trace::kCytFlagVoidReturn | trace::kCytFlagScalarArgs;
  ASSERT_TRUE(
      write_trace(path,
                  {def,
                   make_event(1, trace::CytEventKind::kBatchedCall,
                              scalar_void),
                   make_event(1, trace::CytEventKind::kBatchedCall,
                              scalar_void),
                   make_event(1, trace::CytEventKind::kBatchedCall,
                              scalar_void),
                   make_event(1, trace::CytEventKind::kBatchFlush, 0,
                              /*aux=*/3),
                   make_event(1, trace::CytEventKind::kCall, scalar_void)})
          .is_ok());
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(trace_call_counts(*parsed).at("glEnable"), 4u);
  EXPECT_EQ(trace_expected_crossings(*parsed), 8u);

  const std::map<std::string, std::uint64_t> before = registry_call_counts();
  auto stats = replay_trace(*parsed, {});
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats->calls, 4u);
  EXPECT_EQ(stats->persona_switches, 8u);
  EXPECT_EQ(stats->persona_switches, trace_expected_crossings(*parsed));
  EXPECT_EQ(delta(before, registry_call_counts()),
            (std::map<std::string, std::uint64_t>{{"glEnable", 4}}));

  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(*parsed, report);
  EXPECT_TRUE(report.clean()) << report.findings().front().rule;
  EXPECT_EQ(audit.calls, 4u);
}

TEST_F(TraceReplayTest, ReplayDivergenceComparesCountMaps) {
  analyze::Report report;
  analyze::check_replay_divergence({{"a", 4}, {"b", 2}}, {{"a", 4}, {"b", 2}},
                                   report);
  EXPECT_TRUE(report.clean());

  analyze::check_replay_divergence({{"a", 4}, {"gone", 1}},
                                   {{"a", 3}, {"extra", 2}}, report);
  EXPECT_EQ(report.by_checker("trace").size(), 3u);
  EXPECT_TRUE(report.has_rule("trace.replay-divergence"));
}

// --- The committed golden corpus --------------------------------------------

TEST_F(TraceReplayTest, GoldenPassmarkTraceMinesCleanAndReplaysFaithfully) {
  const std::string path =
      std::string(CYCADA_SOURCE_DIR) + "/tests/data/golden_passmark.cyt";
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->dropped, 0u);
  EXPECT_GT(parsed->records.size(), 50u);

  // The miner must find no contract violations in the legacy batch
  // records the file holds.
  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(*parsed, report);
  EXPECT_TRUE(report.clean()) << report.findings().front().rule;
  EXPECT_EQ(audit.calls, 162u);

  // Max-rate replay reproduces the live per-diplomat counts exactly, and
  // every call, the legacy batched ones included, crosses twice.
  ReplayOptions options;
  options.threads = 1;
  options.iterations = 1;
  const std::map<std::string, std::uint64_t> before = registry_call_counts();
  auto stats = replay_trace(*parsed, options);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  const std::map<std::string, std::uint64_t> replayed =
      delta(before, registry_call_counts());
  const std::map<std::string, std::uint64_t> expected =
      trace_call_counts(*parsed);
  EXPECT_EQ(replayed, expected);
  EXPECT_EQ(stats->calls, 162u);
  EXPECT_EQ(trace_expected_crossings(*parsed), 324u);
  EXPECT_EQ(stats->persona_switches, 324u);
}

TEST_F(TraceReplayTest, GoldenCorporaRoundTripByteIdentical) {
  for (const char* name : {"golden_passmark", "golden_sunspider"}) {
    const std::string path =
        std::string(CYCADA_SOURCE_DIR) + "/tests/data/" + name + ".cyt";
    auto parsed = trace::read_cyt(path);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    for (const trace::CytRecord& record : parsed->records) {
      ASSERT_FALSE(trace::cyt_is_span(record)) << name;
    }
    const std::string rewritten = tmp_path(name);
    ASSERT_TRUE(trace::write_cyt(rewritten, parsed->header, parsed->records,
                                 parsed->dropped)
                    .is_ok());
    EXPECT_EQ(read_file(path), read_file(rewritten)) << name;
  }
}

// --- Spans in the crossing stream --------------------------------------------

// One PassMark frame of every Figure 6 test on a fresh Cycada iOS machine.
void passmark_workload() {
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  auto port = glport::make_gl_port(glport::SystemConfig::kCycadaIos);
  ASSERT_TRUE(port->init(64, 64, 1).is_ok());
  passmark::PassMark passmark(*port);
  for (const passmark::TestSpec& spec : passmark::test_specs()) {
    ASSERT_TRUE(passmark.run(spec.name, 1).is_ok()) << spec.name;
  }
}

struct Mined {
  std::vector<std::string> findings;  // "rule subject"
  std::uint64_t events = 0;
  std::uint64_t calls = 0;
};

Mined mine(const trace::ParsedTrace& trace) {
  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(trace, report);
  Mined out;
  for (const analyze::Finding& finding : report.findings()) {
    out.findings.push_back(finding.rule + " " + finding.subject);
  }
  out.events = audit.events;
  out.calls = audit.calls;
  return out;
}

TEST_F(TraceReplayTest, SpansLeaveReplayAndMiningUnchanged) {
  const std::string plain_path = tmp_path("workload_plain");
  const std::string spans_path = tmp_path("workload_spans");
  capture(plain_path, passmark_workload);
  capture(spans_path, passmark_workload, /*spans=*/true);
  auto plain = trace::read_cyt(plain_path);
  auto spans = trace::read_cyt(spans_path);
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();
  ASSERT_TRUE(spans.is_ok()) << spans.status().to_string();

  // Only the span capture carries the timeline, across the layers.
  std::set<std::string> categories;
  std::uint64_t span_records = 0;
  for (const trace::CytRecord& record : plain->records) {
    EXPECT_FALSE(trace::cyt_is_span(record));
  }
  for (const trace::CytRecord& record : spans->records) {
    if (!trace::cyt_is_span(record)) continue;
    ++span_records;
    categories.insert(std::string(trace::cyt_span_category(record)));
  }
  EXPECT_GT(span_records, 0u);
  for (const char* category : {"diplomat", "persona", "gpu"}) {
    EXPECT_EQ(categories.count(category), 1u) << category;
  }

  // Same crossing stream: per-diplomat counts and expected crossings.
  const std::map<std::string, std::uint64_t> counts =
      trace_call_counts(*plain);
  ASSERT_FALSE(counts.empty());
  EXPECT_EQ(trace_call_counts(*spans), counts);
  EXPECT_EQ(trace_expected_crossings(*spans), trace_expected_crossings(*plain));

  // Both replay to the same per-diplomat counts and crossings per call.
  ReplayOptions options;
  options.threads = 1;
  options.iterations = 1;
  std::vector<ReplayStats> stats;
  for (const trace::ParsedTrace* trace : {&*plain, &*spans}) {
    const std::map<std::string, std::uint64_t> before = registry_call_counts();
    auto replayed = replay_trace(*trace, options);
    ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
    EXPECT_EQ(delta(before, registry_call_counts()), counts);
    stats.push_back(*replayed);
  }
  EXPECT_EQ(stats[1].events, stats[0].events);
  EXPECT_EQ(stats[1].calls, stats[0].calls);
  EXPECT_EQ(stats[1].lanes, stats[0].lanes);
  EXPECT_DOUBLE_EQ(stats[1].crossings_per_call(),
                   stats[0].crossings_per_call());

  // Both mine to the same findings and totals.
  const Mined mined_plain = mine(*plain);
  const Mined mined_spans = mine(*spans);
  EXPECT_EQ(mined_spans.findings, mined_plain.findings);
  EXPECT_EQ(mined_spans.events, mined_plain.events);
  EXPECT_EQ(mined_spans.calls, mined_plain.calls);
}

}  // namespace
}  // namespace cycada::core
