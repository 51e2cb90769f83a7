// Trace miner: turns a captured .cyt diplomat stream (src/trace/cyt.h)
// into contract findings (docs/TRACING.md).
//
// The runtime checkers judge aggregate counters; this pass judges the
// recorded event stream, so it can judge a capture taken on another build
// or another host.
#include <map>
#include <set>
#include <string>

#include "analyze/analyze.h"
#include "core/classification.h"
#include "core/diplomat.h"
#include "trace/cyt.h"

namespace cycada::analyze {

namespace {

using core::DiplomatPattern;

DiplomatPattern def_pattern(const trace::CytDef& def) {
  return static_cast<DiplomatPattern>(def.pattern);
}

}  // namespace

TraceAudit check_trace(const trace::ParsedTrace& trace, Report& report) {
  TraceAudit audit;
  // Rules that fire per def, not per event — one finding each no matter
  // how many records repeat the violation.
  std::set<std::uint32_t> reported_skip;
  std::set<std::uint32_t> reported_multi;
  std::set<std::uint32_t> reported_missing;
  std::set<std::uint32_t> reported_unimpl;
  std::set<std::uint32_t> checked_defs;

  for (const trace::CytRecord& record : trace.records) {
    if (!trace::cyt_is_stream_event(record)) continue;
    ++audit.events;
    if (record.id == trace::kCytMarkerId) continue;
    const trace::CytDef* def = trace.def(record.id);
    if (def == nullptr) {
      if (reported_missing.insert(record.id).second) {
        report.add("trace", "trace.def-missing",
                   "id " + std::to_string(record.id),
                   "event stream references a diplomat id with no def "
                   "record; the trace is incomplete or hand-built");
      }
      continue;
    }
    const DiplomatPattern pattern = def_pattern(*def);

    // One-time cross-check of the recorded classification against this
    // build's classifier (Table 2 drift between capture and analysis).
    if (checked_defs.insert(record.id).second &&
        core::in_table2_universe(def->name)) {
      const DiplomatPattern expected =
          core::classify_ios_gl_function(def->name);
      if (expected != pattern) {
        report.add("trace", "trace.classification-mismatch", def->name,
                   std::string("trace recorded pattern ") +
                       std::string(pattern_name(pattern)) +
                       " but this build's Table 2 classifies it as " +
                       std::string(pattern_name(expected)));
      }
    }

    if (pattern == DiplomatPattern::kUnimplemented &&
        reported_unimpl.insert(record.id).second) {
      report.add("trace", "trace.unimplemented-invoked", def->name,
                 "the workload invoked a diplomat classified as "
                 "unimplemented (never called by real apps)");
    }

    switch (static_cast<trace::CytEventKind>(record.kind)) {
      case trace::CytEventKind::kCall:
      case trace::CytEventKind::kBatchedCall:  // legacy: a plain call
        ++audit.calls;
        break;
      case trace::CytEventKind::kSkip:
        ++audit.calls;
        if (pattern != DiplomatPattern::kDataDependent &&
            reported_skip.insert(record.id).second) {
          report.add("trace", "trace.illegal-skip", def->name,
                     std::string("a ") + std::string(pattern_name(pattern)) +
                         " diplomat skipped its Android call; only "
                         "data-dependent diplomats may answer on the iOS "
                         "side");
        }
        break;
      case trace::CytEventKind::kMulti:
        ++audit.calls;
        if (pattern != DiplomatPattern::kMulti &&
            reported_multi.insert(record.id).second) {
          report.add("trace", "trace.pattern-contradiction", def->name,
                     std::string("coalesced multi-call crossing recorded on "
                                 "a ") +
                         std::string(pattern_name(pattern)) +
                         " diplomat; the stream contradicts its Table 2 "
                         "pattern");
        }
        break;
      default:  // legacy kBatchFlush: no call of its own
        break;
    }
  }
  return audit;
}

void check_replay_divergence(
    const std::map<std::string, std::uint64_t>& expected,
    const std::map<std::string, std::uint64_t>& observed, Report& report) {
  for (const auto& [name, want] : expected) {
    auto it = observed.find(name);
    const std::uint64_t got = it == observed.end() ? 0 : it->second;
    if (got != want) {
      report.add("trace", "trace.replay-divergence", name,
                 "replay drove " + std::to_string(got) +
                     " call(s) but the trace expects " +
                     std::to_string(want) +
                     "; the replay engine diverged from the recorded "
                     "stream");
    }
  }
  for (const auto& [name, got] : observed) {
    if (expected.count(name) == 0 && got != 0) {
      report.add("trace", "trace.replay-divergence", name,
                 "replay drove " + std::to_string(got) +
                     " call(s) on a diplomat the trace never recorded");
    }
  }
}

}  // namespace cycada::analyze
