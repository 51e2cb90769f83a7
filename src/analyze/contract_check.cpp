// Diplomat contract checker: turns the DiplomatContract counters the
// diplomat procedure accumulates (src/core/diplomat.h) into findings.
#include <string>

#include "analyze/analyze.h"
#include "core/classification.h"
#include "core/diplomat.h"
#include "core/impersonation.h"

namespace cycada::analyze {

namespace {

bool has_activity(const core::DiplomatSnapshot& s) {
  return s.calls != 0 || s.preludes != 0 || s.postludes != 0 ||
         s.unbalanced_persona != 0 || s.pattern_conflicts != 0;
}

std::string count_pair(std::uint64_t a, std::uint64_t b) {
  return std::to_string(a) + " vs " + std::to_string(b);
}

}  // namespace

void check_diplomat_contracts(Report& report) {
  using core::DiplomatPattern;
  for (const core::DiplomatSnapshot& s :
       core::DiplomatRegistry::instance().snapshot()) {
    // The registry is process-lifetime; only entries with evidence since
    // the last stats reset are judged.
    if (!has_activity(s)) continue;

    if (s.preludes != s.postludes) {
      report.add("diplomat", "diplomat.prelude-postlude-balance", s.name,
                 "prelude ran " + count_pair(s.preludes, s.postludes) +
                     " postlude runs; a call path skips one of the "
                     "library-wide hooks");
    }
    if (s.calls != s.domestic_calls + s.skipped_calls) {
      report.add("diplomat", "diplomat.call-accounting", s.name,
                 std::to_string(s.calls) + " calls but " +
                     std::to_string(s.domestic_calls) + " domestic + " +
                     std::to_string(s.skipped_calls) +
                     " skipped; a call path bypassed the diplomat "
                     "procedure");
    }
    if (s.skipped_calls != 0 && s.pattern != DiplomatPattern::kDataDependent) {
      report.add("diplomat", "diplomat.illegal-skip", s.name,
                 std::string("a ") + std::string(pattern_name(s.pattern)) +
                     " diplomat answered " + std::to_string(s.skipped_calls) +
                     " call(s) on the iOS side; only data-dependent "
                     "diplomats may skip their Android call");
    }
    if (s.pattern == DiplomatPattern::kUnimplemented && s.calls != 0) {
      report.add("diplomat", "diplomat.unimplemented-invoked", s.name,
                 "registered as unimplemented (never called by real apps) "
                 "but invoked " +
                     std::to_string(s.calls) + " time(s)");
    }
    if (s.unbalanced_persona != 0) {
      report.add("diplomat", "diplomat.unbalanced-persona", s.name,
                 std::to_string(s.unbalanced_persona) +
                     " domestic return(s) in a non-Android persona: an "
                     "unbalanced set_persona inside domestic code");
    }
    if (s.pattern_conflicts != 0) {
      report.add("diplomat", "diplomat.pattern-conflict", s.name,
                 std::to_string(s.pattern_conflicts) +
                     " registration(s) under a different pattern than \"" +
                     std::string(pattern_name(s.pattern)) + "\"");
    }
    if (s.calls != 0 && core::in_table2_universe(s.name)) {
      const DiplomatPattern expected = core::classify_ios_gl_function(s.name);
      if (expected != s.pattern) {
        report.add("diplomat", "diplomat.classification-mismatch", s.name,
                   std::string("registered as ") +
                       std::string(pattern_name(s.pattern)) +
                       " but Table 2 classifies it as " +
                       std::string(pattern_name(expected)));
      }
    }
  }

  // A prelude that opened the graphics-TLS gating window without a matching
  // postlude leaves the calling thread's window open forever — every later
  // key creation would be mis-tracked as graphics-related.
  if (core::GraphicsTlsTracker::instance().in_graphics_diplomat()) {
    report.add("diplomat", "diplomat.open-graphics-window", "current thread",
               "the graphics-diplomat TLS window is still open after the "
               "workload; a prelude ran without its postlude");
  }
}

}  // namespace cycada::analyze
