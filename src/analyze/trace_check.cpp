// Trace miner: turns a captured .cyt diplomat stream (src/trace/cyt.h)
// into contract findings and batchability leads (docs/TRACING.md).
//
// The runtime checkers judge aggregate counters; this pass judges the
// event *sequence*, so it can see things the aggregates cannot — e.g. a
// run of direct void/scalar calls that crossed personas one by one when a
// BatchScope would have carried them on a single crossing.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "core/batch.h"
#include "core/classification.h"
#include "core/diplomat.h"
#include "trace/cyt.h"

namespace cycada::analyze {

namespace {

using core::DiplomatPattern;

DiplomatPattern def_pattern(const trace::CytDef& def) {
  return static_cast<DiplomatPattern>(def.pattern);
}

// Is a recorded plain call eligible for the command buffer on its own
// terms — void-returning with scalar-only (stageable) arguments? The
// capture layer flags both at dispatch time.
bool batch_eligible(const trace::CytRecord& record) {
  const std::uint8_t flags = record.flags & 0x0f;
  return (flags & trace::kCytFlagVoidReturn) != 0 &&
         (flags & trace::kCytFlagScalarArgs) != 0;
}

// The Table 2 function universe: names whose classification is
// authoritative. Bridge internals, bench diplomats and test entries fall
// outside it and carry whatever pattern their registrar chose.
const std::set<std::string>& table2_universe() {
  static const std::set<std::string>* universe = [] {
    auto* set = new std::set<std::string>();
    for (auto pattern :
         {DiplomatPattern::kDirect, DiplomatPattern::kIndirect,
          DiplomatPattern::kDataDependent, DiplomatPattern::kMulti,
          DiplomatPattern::kUnimplemented}) {
      for (std::string& name : core::functions_with_pattern(pattern)) {
        set->insert(std::move(name));
      }
    }
    return set;
  }();
  return *universe;
}

// Per-lane state for the batchability scan.
struct RunState {
  std::vector<const trace::CytDef*> defs;  // defs of the current run, in order
};

struct CandidateStats {
  std::uint64_t occurrences = 0;
  std::uint64_t longest_run = 0;
  const trace::CytDef* def = nullptr;
};

}  // namespace

TraceAudit check_trace(const trace::ParsedTrace& trace, Report& report,
                       const TraceAuditOptions& options) {
  TraceAudit audit;
  // Rules that fire per def, not per event — one finding each no matter
  // how many records repeat the violation.
  std::set<std::uint32_t> reported_skip;
  std::set<std::uint32_t> reported_batched;
  std::set<std::uint32_t> reported_multi;
  std::set<std::uint32_t> reported_missing;
  std::set<std::uint32_t> reported_unimpl;
  std::set<std::uint32_t> checked_defs;
  // Defs that did ride the command buffer somewhere in the trace: already
  // batched, so not candidates.
  std::set<std::uint32_t> batched_somewhere;
  for (const trace::CytRecord& record : trace.records) {
    if (!trace::cyt_is_stream_event(record)) continue;
    if (static_cast<trace::CytEventKind>(record.kind) ==
        trace::CytEventKind::kBatchedCall) {
      batched_somewhere.insert(record.id);
    }
  }

  std::map<std::uint32_t, RunState> lanes;
  std::map<const trace::CytDef*, CandidateStats> candidates;

  auto close_run = [&](RunState& state) {
    if (state.defs.size() >= options.min_run_length) {
      // Count the run toward every distinct def it contains.
      std::map<const trace::CytDef*, std::uint64_t> in_run;
      for (const trace::CytDef* def : state.defs) ++in_run[def];
      for (const auto& [def, count] : in_run) {
        CandidateStats& stats = candidates[def];
        stats.def = def;
        stats.occurrences += count;
        stats.longest_run = std::max<std::uint64_t>(stats.longest_run,
                                                    state.defs.size());
      }
    }
    state.defs.clear();
  };

  for (const trace::CytRecord& record : trace.records) {
    if (!trace::cyt_is_stream_event(record)) continue;
    ++audit.events;
    const auto kind = static_cast<trace::CytEventKind>(record.kind);
    RunState& lane = lanes[record.tid];

    if (record.id == trace::kCytMarkerId) {
      // Context switches and impersonation edges break batchable runs: a
      // real BatchScope could not span them either.
      close_run(lane);
      continue;
    }
    const trace::CytDef* def = trace.def(record.id);
    if (def == nullptr) {
      close_run(lane);
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
        table2_universe().count(def->name) != 0) {
      const DiplomatPattern expected =
          core::classify_ios_gl_function(def->name);
      const bool expected_batchable =
          expected == DiplomatPattern::kDirect &&
          core::classify_ios_gl_batchable(def->name);
      if (expected != pattern) {
        report.add("trace", "trace.classification-mismatch", def->name,
                   std::string("trace recorded pattern ") +
                       std::string(pattern_name(pattern)) +
                       " but this build's Table 2 classifies it as " +
                       std::string(pattern_name(expected)));
      } else if (expected_batchable != def->batchable) {
        report.add("trace", "trace.classification-mismatch", def->name,
                   std::string("trace recorded batchable=") +
                       (def->batchable ? "true" : "false") +
                       " but this build's classifier says " +
                       (expected_batchable ? "true" : "false"));
      }
    }

    if (pattern == DiplomatPattern::kUnimplemented &&
        reported_unimpl.insert(record.id).second) {
      report.add("trace", "trace.unimplemented-invoked", def->name,
                 "the workload invoked a diplomat classified as "
                 "unimplemented (never called by real apps)");
    }

    switch (kind) {
      case trace::CytEventKind::kCall:
        ++audit.calls;
        if (pattern == DiplomatPattern::kDirect && batch_eligible(record) &&
            batched_somewhere.count(record.id) == 0) {
          lane.defs.push_back(def);
        } else {
          close_run(lane);
        }
        break;
      case trace::CytEventKind::kSkip:
        ++audit.calls;
        close_run(lane);
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
        close_run(lane);
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
      case trace::CytEventKind::kBatchedCall:
        ++audit.calls;
        close_run(lane);
        if (!def->batchable && reported_batched.insert(record.id).second) {
          report.add("trace", "trace.illegal-batched-call", def->name,
                     "recorded into the command buffer but the def says "
                     "non-batchable; the batch gate and the registration "
                     "disagree");
        }
        break;
      case trace::CytEventKind::kBatchFlush:
        close_run(lane);
        if (record.aux == 0) {
          report.add("trace", "trace.empty-flush", def->name,
                     "a batch flush crossed personas carrying zero calls "
                     "(reason: " +
                         std::string(core::batch_flush_reason_name(
                             static_cast<core::BatchFlushReason>(
                                 trace::cyt_flush_reason(record.flags)))) +
                         ")");
        }
        break;
      default:
        close_run(lane);
        break;
    }
  }
  for (auto& [tid, lane] : lanes) close_run(lane);

  for (const auto& [def, stats] : candidates) {
    BatchCandidate candidate;
    candidate.name = stats.def->name;
    candidate.occurrences = stats.occurrences;
    candidate.longest_run = stats.longest_run;
    candidate.classifier_batchable = stats.def->batchable;
    candidate.why =
        stats.def->batchable
            ? "classifier-batchable, but the workload crossed personas "
              "call-by-call — no BatchScope was open; wrapping this stretch "
              "batches " +
                  std::to_string(stats.longest_run) + " calls per crossing"
            : "direct void/scalar calls the classifier keeps out of the "
              "command buffer; review for classify_ios_gl_batchable";
    audit.candidates.push_back(std::move(candidate));
  }
  // Longest runs first: the biggest crossing savings lead.
  std::sort(audit.candidates.begin(), audit.candidates.end(),
            [](const BatchCandidate& a, const BatchCandidate& b) {
              if (a.longest_run != b.longest_run)
                return a.longest_run > b.longest_run;
              return a.name < b.name;
            });
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
