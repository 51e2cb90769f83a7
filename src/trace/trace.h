// Span tracing for the persona/diplomat/GL pipeline: the human-timeline
// front end of the .cyt recorder (trace/cyt.h).
//
// Every layer of the bridge records spans (TRACE_SCOPE) and instant events
// (TRACE_INSTANT). While a capture started with spans runs, each one
// becomes a kSpan / kInstant record in the recording thread's chunk, next
// to the diplomat crossings; a record the exhausted chunk pool cannot take
// is counted in the .cyt footer. chrome_trace_json() exports the span
// records of a ParsedTrace, so a run with CYCADA_TRACE=out.json can be
// loaded into chrome://tracing / Perfetto.
//
// Categories in use across the pipeline: "persona" (set_persona syscalls),
// "diplomat" (the 11-step call procedure), "impersonation" (thread identity
// acquire/release and TLS migration), "linker" (dlopen/dlforce/dlsym),
// "gl" (EAGL/EGL context operations), "frame" (SurfaceFlinger composition),
// "gpu" (the tile pipeline's bin/raster/tile spans, docs/PIPELINE.md),
// "watchdog" (overdue-scope flags and recovery-ladder rung moves,
// docs/ROBUSTNESS.md).
#pragma once

#include <cstdint>
#include <string>

#include "trace/cyt.h"
#include "util/clock.h"
#include "util/status.h"

namespace cycada::trace {

// RAII span: records one span covering its lexical scope. The category/name
// pointers must stay valid until the scope ends (string literals, or
// registry-owned names such as DiplomatEntry::name); they are copied then.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name)
      : active_(spans_enabled()) {
    if (active_) {
      category_ = category;
      name_ = name;
      start_ns_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (active_) {
      capture_span(category_, name_, start_ns_, now_ns() - start_ns_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const bool active_;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
};

// --- Chrome-tracing export (trace_export.cpp) ------------------------------

// Serializes the span and instant records of `trace` as chrome://tracing
// JSON; crossing records are skipped.
std::string chrome_trace_json(const ParsedTrace& trace);
// Writes chrome_trace_json(trace) to `path` (the CYCADA_TRACE=path.json
// hook).
Status write_chrome_trace(const std::string& path, const ParsedTrace& trace);

}  // namespace cycada::trace

#define CYCADA_TRACE_CONCAT2(a, b) a##b
#define CYCADA_TRACE_CONCAT(a, b) CYCADA_TRACE_CONCAT2(a, b)

#define TRACE_SCOPE(category, name)                              \
  ::cycada::trace::ScopedSpan CYCADA_TRACE_CONCAT(trace_span_,   \
                                                  __LINE__)(category, name)

#define TRACE_INSTANT(category, name)                   \
  do {                                                  \
    if (::cycada::trace::spans_enabled()) {             \
      ::cycada::trace::capture_instant(category, name); \
    }                                                   \
  } while (0)
