// Trace capture/replay (src/trace/cyt.h, src/core/replay.h) and the trace
// miner (analyze::check_trace, docs/TRACING.md): byte-identical round
// trips, rejection of truncated/corrupt/wrong-version files with errors
// that name the defect, capture→replay count fidelity, every seeded mining
// rule, span records riding along without changing what replay and the
// miner see, and the committed golden corpora.
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
#include "core/batch.h"
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
                          DiplomatPattern pattern, bool batchable) {
  trace::CytRecord def = trace::cyt_zero_record();
  def.type = static_cast<std::uint8_t>(trace::CytRecordType::kDef);
  def.kind = static_cast<std::uint8_t>(pattern);
  def.flags = batchable ? trace::kCytDefFlagBatchable : 0;
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

// Flags of a recorded batch-eligible plain call.
constexpr std::uint8_t kEligible =
    trace::kCytFlagVoidReturn | trace::kCytFlagScalarArgs;

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
  capture(path, [&] {
    {
      BatchScope scope;
      for (int i = 0; i < 3; ++i) ASSERT_TRUE(batch_record(enable, {}, [] {}));
    }
    diplomat_call(enable, {}, [] {});
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
  ASSERT_TRUE(write_trace(path, {make_def(1, "fn", DiplomatPattern::kDirect,
                                          false),
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
  ASSERT_TRUE(write_trace(path, {make_def(1, "fn", DiplomatPattern::kDirect,
                                          false),
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
  ASSERT_TRUE(write_trace(path, {make_def(1, "fn", DiplomatPattern::kDirect,
                                          false)})
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
  capture(path, [&] {
    {
      BatchScope scope;
      for (int i = 0; i < 5; ++i) ASSERT_TRUE(batch_record(enable, {}, [] {}));
    }
    for (int i = 0; i < 2; ++i) diplomat_call(plain, {}, [] {});
    diplomat_skip(skip);
  });

  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const std::map<std::string, std::uint64_t> per_pass =
      trace_call_counts(*parsed);
  EXPECT_EQ(per_pass.at("glEnable"), 5u);
  EXPECT_EQ(per_pass.at("trace_replay_test.plain"), 2u);
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

  // Crossings per call must track the recorded stream within 5%: the five
  // batched calls share one crossing, the skip crosses nothing.
  const double expected =
      static_cast<double>(trace_expected_crossings(*parsed) * 6) /
      static_cast<double>(stats->calls);
  EXPECT_NEAR(stats->crossings_per_call(), expected, expected * 0.05);
  EXPECT_EQ(stats->skips, 6u);
  EXPECT_EQ(stats->batched, 30u);
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

// --- Trace mining ------------------------------------------------------------

TEST_F(TraceReplayTest, MinerFlagsEverySeededViolation) {
  const std::string path = tmp_path("violations");
  std::vector<trace::CytRecord> records = {
      // kSkip on a direct diplomat: only data-dependent entries may skip.
      make_def(1, "mine.direct", DiplomatPattern::kDirect, false),
      make_event(1, trace::CytEventKind::kSkip),
      // Batched evidence on a non-batchable def.
      make_event(1, trace::CytEventKind::kBatchedCall),
      // A coalesced multi crossing on a non-multi def.
      make_event(1, trace::CytEventKind::kMulti),
      // An invoked kUnimplemented diplomat.
      make_def(2, "mine.unimpl", DiplomatPattern::kUnimplemented, false),
      make_event(2, trace::CytEventKind::kCall),
      // An event with no def record at all.
      make_event(99, trace::CytEventKind::kCall),
      // A flush that crossed personas carrying nothing.
      make_def(3, "mine.opener", DiplomatPattern::kDirect, true),
      make_event(3, trace::CytEventKind::kBatchFlush, 0, /*aux=*/0),
      // A Table 2 name recorded with the wrong pattern.
      make_def(4, "glClear", DiplomatPattern::kIndirect, false),
      make_event(4, trace::CytEventKind::kCall),
  };
  ASSERT_TRUE(write_trace(path, records).is_ok());
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();

  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(*parsed, report);
  EXPECT_EQ(audit.events, 7u);
  EXPECT_TRUE(report.has_rule("trace.illegal-skip"));
  EXPECT_TRUE(report.has_rule("trace.illegal-batched-call"));
  EXPECT_TRUE(report.has_rule("trace.pattern-contradiction"));
  EXPECT_TRUE(report.has_rule("trace.unimplemented-invoked"));
  EXPECT_TRUE(report.has_rule("trace.def-missing"));
  EXPECT_TRUE(report.has_rule("trace.empty-flush"));
  EXPECT_TRUE(report.has_rule("trace.classification-mismatch"));
}

TEST_F(TraceReplayTest, MinerFindsUnbatchedRunsAndHonorsSuppression) {
  const std::string path = tmp_path("candidates");
  std::vector<trace::CytRecord> records = {
      make_def(1, "mine.run", DiplomatPattern::kDirect, true),
      make_def(2, "mine.already_batched", DiplomatPattern::kDirect, true),
  };
  // A run of five batch-eligible plain calls: a candidate.
  for (int i = 0; i < 5; ++i) {
    records.push_back(make_event(1, trace::CytEventKind::kCall, kEligible));
  }
  // This def DID batch elsewhere in the trace, so its run is not reported.
  records.push_back(
      make_event(2, trace::CytEventKind::kBatchedCall, kEligible));
  records.push_back(make_event(2, trace::CytEventKind::kBatchFlush, 0, 1));
  for (int i = 0; i < 5; ++i) {
    records.push_back(make_event(2, trace::CytEventKind::kCall, kEligible));
  }
  ASSERT_TRUE(write_trace(path, records).is_ok());
  auto parsed = trace::read_cyt(path);
  ASSERT_TRUE(parsed.is_ok());

  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(*parsed, report);
  EXPECT_TRUE(report.clean()) << report.findings().size();
  ASSERT_EQ(audit.candidates.size(), 1u);
  EXPECT_EQ(audit.candidates[0].name, "mine.run");
  EXPECT_EQ(audit.candidates[0].longest_run, 5u);
  EXPECT_TRUE(audit.candidates[0].classifier_batchable);

  // Below the run-length floor nothing is reported.
  analyze::TraceAuditOptions strict;
  strict.min_run_length = 6;
  analyze::Report quiet_report;
  EXPECT_TRUE(
      analyze::check_trace(*parsed, quiet_report, strict).candidates.empty());
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

  // The miner must find no contract violations and at least one actionable
  // batchability candidate (the generator plants an un-batched run).
  analyze::Report report;
  const analyze::TraceAudit audit = analyze::check_trace(*parsed, report);
  EXPECT_TRUE(report.clean()) << report.findings().front().rule;
  EXPECT_GE(audit.candidates.size(), 1u);

  // Max-rate replay reproduces the live per-diplomat counts exactly and
  // crossings-per-call within 5% (the ISSUE acceptance bar).
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

  const double expected_cpc =
      static_cast<double>(trace_expected_crossings(*parsed)) /
      static_cast<double>(stats->calls);
  EXPECT_NEAR(stats->crossings_per_call(), expected_cpc, expected_cpc * 0.05);
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
  std::vector<std::string> findings;    // "rule subject"
  std::vector<std::string> candidates;  // "name occurrences longest_run"
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
  for (const analyze::BatchCandidate& candidate : audit.candidates) {
    out.candidates.push_back(candidate.name + " " +
                             std::to_string(candidate.occurrences) + " " +
                             std::to_string(candidate.longest_run));
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

  // Both mine to the same findings and batchable-run candidates: no span
  // closes a run.
  const Mined mined_plain = mine(*plain);
  const Mined mined_spans = mine(*spans);
  EXPECT_FALSE(mined_plain.candidates.empty());
  EXPECT_EQ(mined_spans.findings, mined_plain.findings);
  EXPECT_EQ(mined_spans.candidates, mined_plain.candidates);
  EXPECT_EQ(mined_spans.events, mined_plain.events);
  EXPECT_EQ(mined_spans.calls, mined_plain.calls);
}

}  // namespace
}  // namespace cycada::core
