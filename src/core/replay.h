// Trace replay: re-drives a captured .cyt diplomat stream through the real
// dispatch/persona machinery (docs/TRACING.md).
//
// Events are grouped into lanes by recording thread; each replay thread
// walks every lane in capture order, once per iteration, and replays every
// call as the eleven-step procedure. Legacy kBatchedCall records replay as
// plain calls and legacy kBatchFlush records are skipped. Replayed calls
// hit the live DiplomatRegistry and kernel, so the run emits exactly the
// counters/histograms the live benches emit — a replayed PassMark trace is
// a first-class bench workload. Max-rate mode replays as fast as the
// machinery allows; paced mode sleeps each lane to the recorded inter-event
// gaps.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "trace/cyt.h"
#include "util/status.h"

namespace cycada::core {

struct ReplayOptions {
  int threads = 1;
  int iterations = 1;
  // Replay the recorded timestamp gaps (true) or run at max rate (false).
  bool paced = false;
};

struct ReplayStats {
  std::uint64_t events = 0;    // events walked (markers included, spans not)
  std::uint64_t calls = 0;     // diplomat calls re-driven (all kinds)
  std::uint64_t skips = 0;     // of which data-dependent skips
  // Delta of the persona.switches counter across the replay (every thread).
  std::uint64_t persona_switches = 0;
  std::int64_t wall_ns = 0;
  int lanes = 0;

  double crossings_per_call() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(persona_switches) /
                            static_cast<double>(calls);
  }
};

// Per-diplomat call counts one pass over the trace produces (kCall, kSkip,
// kMulti and kBatchedCall events, keyed by def name). Replaying at
// N threads × M iterations multiplies every count by N*M; the --verify
// mode and the golden replay test compare this against the registry delta.
std::map<std::string, std::uint64_t> trace_call_counts(
    const trace::ParsedTrace& trace);

// Crossings (persona switches) one pass over the trace costs live: two per
// call (legacy batched calls included), none for skips.
std::uint64_t trace_expected_crossings(const trace::ParsedTrace& trace);

// Replays `trace` on options.threads threads × options.iterations passes.
// Every replay thread registers with the iOS persona (the foreign-app
// direction diplomats exist for). Returns aggregate stats. Fails with
// invalid_argument, before registering anything, when the trace references
// a def-less diplomat id, a def whose pattern byte names no DiplomatPattern,
// or more new diplomat names than the registry has room for (corrupt or
// hand-built trace).
StatusOr<ReplayStats> replay_trace(const trace::ParsedTrace& trace,
                                   const ReplayOptions& options);

}  // namespace cycada::core
