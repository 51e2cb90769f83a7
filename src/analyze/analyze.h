// cycada-check: contract analysis over the persona/diplomat/DLR pipeline
// (DESIGN.md §6).
//
// The checkers are *semi-static*: run a workload, then assert layer
// invariants over the evidence the instrumented tree accumulated — diplomat
// contract counters, the lock acquisition graph, the linker's loaded-copy
// table, the TLS tracker — plus one purely static lint pass over the source
// tree. Each violated invariant becomes a Finding; a clean tree under a
// representative workload produces none, and every class of violation has a
// seeded negative test in tests/analyze_test.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/classification.h"
#include "core/diplomat.h"
#include "kernel/kernel.h"
#include "trace/cyt.h"

namespace cycada::analyze {

// One contract violation. `checker` names the pass ("diplomat", "locks",
// "tls", "replica", "lint"), `rule` the invariant (stable kebab-case ids,
// documented in DESIGN.md §6), `subject` what broke it (a function, lock
// edge, TLS key, symbol or file:line).
struct Finding {
  std::string checker;
  std::string rule;
  std::string subject;
  std::string message;
};

// Accumulates findings and mirrors them into the PR-1 observability layer:
// every add() emits a TRACE_INSTANT("analyze", "finding") event and bumps
// the "analyze.findings" and "analyze.findings.<checker>" counters.
class Report {
 public:
  void add(Finding finding);
  void add(std::string checker, std::string rule, std::string subject,
           std::string message) {
    add(Finding{std::move(checker), std::move(rule), std::move(subject),
                std::move(message)});
  }

  const std::vector<Finding>& findings() const { return findings_; }
  bool clean() const { return findings_.empty(); }
  // Findings produced by one checker / matching one rule (test support).
  std::vector<Finding> by_checker(std::string_view checker) const;
  bool has_rule(std::string_view rule) const;

  // Prints one line per finding; returns the finding count.
  int print(std::ostream& os) const;

 private:
  std::vector<Finding> findings_;
};

// --- Checkers ---------------------------------------------------------------

// Diplomat contract checker (over DiplomatRegistry::snapshot()). Rules:
//   diplomat.prelude-postlude-balance  preludes != postludes
//   diplomat.call-accounting           calls != domestic + skipped (a call
//                                      path bypassed the diplomat procedure)
//   diplomat.illegal-skip              a non-data-dependent entry skipped
//                                      its Android call (misclassified)
//   diplomat.unimplemented-invoked     a kUnimplemented entry was called
//   diplomat.unbalanced-persona        domestic code returned in the wrong
//                                      persona (unbalanced set_persona)
//   diplomat.pattern-conflict          call sites disagree on the pattern
//   diplomat.classification-mismatch   entry pattern != Table 2 universe
//   diplomat.open-graphics-window      a prelude's graphics-TLS window was
//                                      never closed by a postlude
// Entries with no runtime activity are skipped (the registry is
// process-lifetime; only evidence since the last stats reset counts).
void check_diplomat_contracts(Report& report);

// Lock-order checker (over util::LockOrderGraph; enable recording before
// the workload). Rules:
//   locks.order-inversion  a lock was acquired while holding an equal or
//                          higher level
//   locks.cycle            the observed acquisition graph contains a cycle
void check_lock_order(Report& report);

// DLR replica isolation checker (over linker::Linker::loaded_copies()).
// Rules:
//   replica.null-symbol     a listed exported symbol does not resolve
//   replica.shared-address  one address exported by two loaded copies
//   replica.ns-escape       a replica's dependency lives outside its
//                           namespace
//   replica.bypass          a global-namespace dlopen bypassed the
//                           replica-aware path while replicas were live
void check_replica_isolation(Report& report);

// Second, independent observer of the kernel's TLS-key hooks: records which
// keys were created inside a graphics-diplomat window without trusting
// GraphicsTlsTracker. check_tls_migration() cross-references the two.
class TlsAudit {
 public:
  static TlsAudit& instance();

  // (Re)installs the kernel hooks; safe to call after a kernel reset.
  void install();
  void reset();
  bool installed() const;

  std::vector<kernel::TlsKey> graphics_window_keys() const;

 private:
  TlsAudit() = default;
  mutable std::mutex mutex_;  // leaf: nothing is acquired under it
  std::set<kernel::TlsKey> keys_;
  int create_hook_ = 0;
  int delete_hook_ = 0;
  bool installed_ = false;
};

// TLS-migration completeness checker. Runs an active probe: registers a
// helper thread as the impersonation target, propagates per-key sentinels
// into its TLS areas, impersonates it, and verifies every expected graphics
// key (tracker keys ∪ TlsAudit window keys) was actually migrated in and
// restored after. Rules:
//   tls.tracker-missed-key  TlsAudit saw a graphics-window key the tracker
//                           does not consider graphics-related
//   tls.unmigrated-key      an expected key was absent from the
//                           impersonation's migration set
//   tls.sentinel-missing    a migrated key did not carry the target's value
//   tls.not-restored        the probing thread's own value was not restored
//   tls.no-record           impersonation completed without a migration
//                           record
void check_tls_migration(Report& report);

// Fault-safety checker (run at a quiescent point, after a fault-injected
// workload). Rules:
//   fault.persona-leak  a registered thread's current persona differs from
//                       the persona it registered with (a failure path
//                       leaked a crossing)
//   fault.lock-leak     the lock-order graph records more acquisitions
//                       than releases (a failure path leaked a held mutex;
//                       requires recording to have been on)
void check_fault_safety(Report& report);

// Tile-pipeline thread-ownership checker (docs/PIPELINE.md). Rules:
//   pipeline.worker-crossing  a persona switch or diplomat call was
//                             initiated from a GPU tile worker thread
//                             (the "pipeline.worker.crossings" metric is
//                             nonzero; raster workers may only touch
//                             pre-resolved framebuffer work)
void check_pipeline_isolation(Report& report);

// Session isolation checker (docs/SESSIONS.md). Rules:
//   session.cross-leak  a thread bound to one session touched another
//                       session's kernel/linker/gpu/surface/gralloc/
//                       iosurface state (one finding per live session and
//                       layer with nonzero Session::check_access evidence)
void check_session_isolation(Report& report);

// --- Trace mining (docs/TRACING.md) -----------------------------------------

struct TraceAudit {
  std::uint64_t events = 0;
  std::uint64_t calls = 0;
};

// Mines a captured .cyt stream for contract violations. Legacy kBatchedCall
// records count as plain calls; legacy kBatchFlush records are skipped.
// Rules (checker "trace"):
//   trace.illegal-skip             a kSkip event on a non-data-dependent def
//   trace.pattern-contradiction    observed behaviour contradicts the
//                                  recorded Table 2 pattern (e.g. a kMulti
//                                  crossing on a non-multi def)
//   trace.classification-mismatch  a def's recorded pattern disagrees with
//                                  this build's classifier
//   trace.unimplemented-invoked    an event on a kUnimplemented def
//   trace.def-missing              an event references an id with no def
// Returns the event and call totals.
TraceAudit check_trace(const trace::ParsedTrace& trace, Report& report);

// Compares per-diplomat call counts a replay was expected to produce
// (core::trace_call_counts × threads × iterations) against the observed
// registry deltas. Any mismatch is a trace.replay-divergence finding.
void check_replay_divergence(
    const std::map<std::string, std::uint64_t>& expected,
    const std::map<std::string, std::uint64_t>& observed, Report& report);

// --- Source lint ------------------------------------------------------------

// Purely static pass over one file's contents. Rules:
//   lint.raw-set-persona       sys_set_persona() outside kernel/, the
//                              diplomat procedure or the ScopedPersona guard
//   lint.raw-pthread-key       pthread_key_create/delete in graphics code
//                              not routed through kernel::libc:: (bypasses
//                              the 12-line-patch hooks the TLS tracker
//                              relies on)
//   lint.allow-without-reason  a bare "cycada-lint: allow" marker; every
//                              suppression must carry a justification,
//                              "cycada-lint: allow(<reason>)"
//   watchdog.unbounded-wait    an indefinite condition_variable/atomic
//                              .wait( in a watchdog-supervised directory
//                              (gpu/, android_gl/) — supervised domains
//                              must use deadline-sliced wait_for loops so a
//                              stalled producer can never hang them; true
//                              idle parking carries a reasoned allow marker
// Comment-only lines are skipped; a line containing a reasoned
// "cycada-lint: allow(<reason>)" marker is exempt. `path` is used for
// allowlisting and finding subjects.
void lint_source_file(const std::string& path, const std::string& contents,
                      Report& report);

// Recursively lints every .h/.cpp under `root`. Returns false (with a
// finding) when `root` cannot be read.
bool lint_source_tree(const std::string& root, Report& report);

// --- Classification check (docs/ANALYZER.md) --------------------------------
//
// Checks the hand-written Table 2 classification (src/core/classification.cpp)
// against two independent evidence sources: the rows of the callable iOS
// GLES table (ios_gl::dispatch_sites(), source A) and a .cyt trace corpus
// (source B). Contradictions are blocking findings. Rules (checker
// "classify"):
//   classify.signature-mismatch    a row contradicts its declared pattern:
//                                  a row outside the Table 2 universe, a
//                                  row on a kUnimplemented name, or a
//                                  forwarding row whose engine call has
//                                  another name under kDirect
//   classify.corpus-contradiction  a corpus def records a pattern that
//                                  disagrees with this build's classifier
void check_classification(std::span<const core::DispatchSite> sites,
                          const std::vector<const trace::ParsedTrace*>& corpus,
                          Report& report);

// --- Convenience ------------------------------------------------------------

// Runs every evidence-based checker (not the lint, not the TLS probe).
void check_all_runtime(Report& report);

}  // namespace cycada::analyze
