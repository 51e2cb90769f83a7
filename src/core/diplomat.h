// Diplomats: Cycada's mechanism for calling domestic (Android) code from
// foreign (iOS) apps (paper §3).
//
// A diplomat executes the paper's eleven-step procedure:
//   (1) on first invocation, resolve and cache the domestic entry point in a
//       locally-scoped static; (2) run a prelude in the foreign persona;
//   (3-5) marshal arguments across the set_persona syscall; (6) invoke the
//   domestic function; (7-8) marshal the return value back across the second
//   set_persona syscall; (9) convert domestic TLS values such as errno into
//   the foreign TLS area; (10) run a postlude in the foreign persona;
//   (11) return to the foreign caller.
//
// The four usage patterns of §4.1 — direct, indirect, data-dependent and
// multi — classify how much wrapper logic surrounds that core procedure,
// and the registry records the classification plus per-function call
// statistics (the data behind Tables 2 and Figures 7-10).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/kernel.h"
#include "kernel/libc.h"
#include "trace/cyt.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/clock.h"
#include "util/lock_order.h"
#include "util/thread_role.h"

namespace cycada::core {

enum class DiplomatPattern : std::uint8_t {
  kDirect,         // straight invocation of one Android function
  kIndirect,       // small foreign-side wrapper redirecting/re-arranging
  kDataDependent,  // input-dependent logic, may skip the Android call
  kMulti,          // coalesces several Android functions
  kUnimplemented,  // registered but never called by real apps
};

constexpr std::string_view pattern_name(DiplomatPattern pattern) {
  switch (pattern) {
    case DiplomatPattern::kDirect: return "direct";
    case DiplomatPattern::kIndirect: return "indirect";
    case DiplomatPattern::kDataDependent: return "data-dependent";
    case DiplomatPattern::kMulti: return "multi";
    case DiplomatPattern::kUnimplemented: return "unimplemented";
  }
  return "?";
}

// Contract evidence accumulated per entry by the diplomat procedure itself.
// All counters are relaxed atomics bumped on paths that already pay two
// syscalls, so the cost is noise; `analyze::check_diplomat_contracts()`
// turns imbalances into findings (see DESIGN.md §6).
struct DiplomatContract {
  // How many times the library prelude / postlude hooks actually ran. A
  // call site whose hooks carry a prelude but no postlude (or vice versa)
  // diverges these.
  std::atomic<std::uint64_t> preludes{0};
  std::atomic<std::uint64_t> postludes{0};
  // Calls that crossed into the Android persona and invoked the domestic
  // function, vs. calls that deliberately answered on the iOS side
  // (diplomat_skip — legal only for data-dependent diplomats).
  std::atomic<std::uint64_t> domestic_calls{0};
  std::atomic<std::uint64_t> skipped_calls{0};
  // Times the domestic function returned in a persona other than the one
  // the diplomat set — an unbalanced set_persona inside domestic code.
  std::atomic<std::uint64_t> unbalanced_persona{0};
  // Times the entry was re-requested under a different pattern than it was
  // registered with (two call sites disagreeing on classification).
  std::atomic<std::uint64_t> pattern_conflicts{0};

  void reset() {
    preludes.store(0);
    postludes.store(0);
    domestic_calls.store(0);
    skipped_calls.store(0);
    unbalanced_persona.store(0);
    pattern_conflicts.store(0);
  }
};

// Dense index of a registered diplomat: ids count up from 0 in
// registration order. Resolved once per call site; indexing the immortal id
// segments with it is wait-free (docs/DISPATCH.md).
using DiplomatId = std::uint32_t;
inline constexpr DiplomatId kInvalidDiplomatId = 0xffffffffu;

// One registered diplomat. Entries live for the process lifetime;
// call-site statics hold pointers to them (step 1's cached symbol).
struct DiplomatEntry {
  std::string name;
  DiplomatId id = kInvalidDiplomatId;
  DiplomatPattern pattern = DiplomatPattern::kDirect;
  // Step-1 cache: the resolved domestic entry point (opaque).
  std::atomic<void*> cached_symbol{nullptr};
  // Incremented on every call, whether or not profiling is on, so counts
  // are identical across profiled and unprofiled runs.
  std::atomic<std::uint64_t> calls{0};
  // Per-call latency distribution, populated only while profiling — the
  // data behind Figures 7-10, now with percentiles rather than only means.
  trace::Histogram latency;
  DiplomatContract contract;

  void record_latency(std::int64_t ns) { latency.record(ns); }
  std::int64_t total_ns() const { return latency.sum(); }
};

struct DiplomatSnapshot {
  std::string name;
  DiplomatPattern pattern;
  std::uint64_t calls;
  std::int64_t total_ns;
  std::int64_t p50_ns;
  std::int64_t p95_ns;
  std::int64_t p99_ns;
  // Contract evidence (see DiplomatContract).
  std::uint64_t preludes;
  std::uint64_t postludes;
  std::uint64_t domestic_calls;
  std::uint64_t skipped_calls;
  std::uint64_t unbalanced_persona;
  std::uint64_t pattern_conflicts;
};

// The process-wide diplomat table (docs/DISPATCH.md). Nothing in it is ever
// freed or moved: entries, the by-id segments and the name index's slots
// live forever, so readers need no lock and nothing needs reclamation.
class DiplomatRegistry {
 public:
  // The most diplomats one process can register. Registering a new name
  // past it aborts in every build type.
  static constexpr std::size_t kCapacity = 16384;

  static DiplomatRegistry& instance();

  void reset();
  // Finds or creates the entry for `name`. The find path is lock-free: a
  // per-thread one-entry cache, then a probe of the name index; only
  // first-time registration takes the writer mutex.
  DiplomatEntry& entry(std::string_view name, DiplomatPattern pattern);

  // The entry registered under `name`, or nullptr. Lock-free; never
  // registers.
  DiplomatEntry* find(std::string_view name) const;

  // Resolve-once half of the fast-path protocol: returns the dense id for
  // `name` (registering it if needed); hot callers store the id and index
  // the immortal segment array per call via entry_by_id(), which stays
  // wait-free.
  DiplomatId resolve(std::string_view name, DiplomatPattern pattern);

  DiplomatEntry& entry_by_id(DiplomatId id) const {
    const IdSegment* segment =
        segments_[id >> kSegmentShift].load(std::memory_order_acquire);
    return *segment->slots[id & (kSegmentSize - 1)].load(
        std::memory_order_acquire);
  }

  // Registered entries; at most kCapacity.
  std::size_t size() const;

  // Per-function timing for Figures 7-10; off by default (adds two clock
  // reads per diplomat call when on).
  void set_profiling(bool enabled) { profiling_.store(enabled); }
  bool profiling() const { return profiling_.load(std::memory_order_relaxed); }
  void clear_stats();
  // Every entry's statistics, sorted by name.
  std::vector<DiplomatSnapshot> snapshot() const;

 private:
  DiplomatRegistry() = default;
  // Registration slow path, under the writer mutex (see docs/DISPATCH.md
  // for the publication order).
  DiplomatEntry& register_slow(std::string_view name, DiplomatPattern pattern);

  // By-id dispatch storage: a two-level array of immortal segments, grown
  // (never moved) under the writer mutex. Two dependent acquire loads per
  // dispatch keep entry_by_id wait-free.
  static constexpr std::size_t kSegmentShift = 8;
  static constexpr std::size_t kSegmentSize = std::size_t{1} << kSegmentShift;
  static constexpr std::size_t kMaxSegments = kCapacity / kSegmentSize;
  struct IdSegment {
    std::array<std::atomic<DiplomatEntry*>, kSegmentSize> slots{};
  };
  // Name index: open addressing with linear probing over twice the
  // capacity, so it is at most half full and every probe ends at a null
  // slot. A slot changes once, from null to its immortal entry.
  static constexpr std::size_t kIndexSize = 2 * kCapacity;

  // Writer-side only: serializes registration and stats resets. The read
  // path never touches it — the Table 3 microbench asserts zero
  // kDiplomatRegistry acquisitions during steady-state dispatch.
  mutable util::OrderedMutex writer_mutex_{util::LockLevel::kDiplomatRegistry,
                                           "core.diplomat_registry"};
  std::array<std::atomic<DiplomatEntry*>, kIndexSize> index_{};
  std::array<std::atomic<IdSegment*>, kMaxSegments> segments_{};
  // Entry storage in id order: append-only and immortal (call sites cache
  // raw pointers/ids), guarded by writer_mutex_.
  std::vector<std::unique_ptr<DiplomatEntry>> owned_;
  std::atomic<bool> profiling_{false};
};

// Hooks shared by a library's diplomats ("library-wide prelude and postlude
// operations", §3). Both run in the foreign persona.
struct DiplomatHooks {
  std::function<void()> prelude;
  std::function<void()> postlude;
};

namespace detail {
// Darwin errno for a Linux errno (diplomat step 9).
long errno_linux_to_darwin(long linux_errno);
}  // namespace detail

// Executes `domestic` under the full diplomat procedure and returns its
// result. The calling thread's persona is restored afterwards (normally it
// is the iOS persona; nesting is supported). Every pattern crosses here: a
// multi diplomat's `domestic` makes its several Android calls inside the
// one crossing, and its capture record is a kMulti instead of a kCall.
template <typename Fn>
auto diplomat_call(DiplomatEntry& entry, const DiplomatHooks& hooks,
                   Fn&& domestic) {
  DiplomatRegistry& registry = DiplomatRegistry::instance();
  const bool profiling = registry.profiling();
  const bool capturing = trace::capture_enabled();
  const std::int64_t start_ns = profiling ? now_ns() : 0;
  TRACE_SCOPE("diplomat", entry.name.c_str());

  // GPU tile workers own no persona state and must not cross; a diplomat
  // dispatched from one is counted and flagged by the analyzer's
  // pipeline.worker-crossing rule (docs/PIPELINE.md thread-ownership rules).
  if (util::current_thread_role() == util::ThreadRole::kTileWorker) {
    static trace::Counter& worker_crossings =
        trace::MetricsRegistry::instance().counter(
            "pipeline.worker.crossings");
    worker_crossings.add();
  }

  // Step 2: prelude in the foreign persona.
  if (hooks.prelude) {
    hooks.prelude();
    entry.contract.preludes.fetch_add(1, std::memory_order_relaxed);
  }

  // Steps 3-5: arguments live in `domestic`'s closure (the stack); switch
  // the kernel ABI personality and TLS pointer to the domestic persona.
  // Resilient variant: a transiently failing set_persona (the
  // kernel.set_persona fault point) is retried and finally forced, so the
  // domestic function always runs under the Android ABI and the contract
  // counters below stay balanced even under injection.
  kernel::Kernel& kernel = kernel::Kernel::instance();
  const kernel::Persona caller_persona = kernel.current_thread().persona();
  kernel::sys_set_persona_resilient(kernel::Persona::kAndroid,
                                    "degrade.diplomat_enter_forced");

  long domestic_errno = 0;
  const auto finish = [&] {
    // Contract: the domestic function must return in the persona the
    // diplomat put it in; anything else is an unbalanced set_persona.
    if (kernel.current_thread().persona() != kernel::Persona::kAndroid) {
      entry.contract.unbalanced_persona.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    // Capture domestic TLS state, then switch back (steps 7-9). The
    // restore must never fail outright — a leaked Android persona on an
    // iOS thread corrupts every later syscall — so it, too, is resilient.
    domestic_errno = kernel::libc::get_errno();
    kernel::sys_set_persona_resilient(caller_persona,
                                      "degrade.diplomat_restore_forced");
    if (caller_persona == kernel::Persona::kIos) {
      kernel::libc::set_errno(detail::errno_linux_to_darwin(domestic_errno));
    }
    // Step 10: postlude in the foreign persona.
    if (hooks.postlude) {
      hooks.postlude();
      entry.contract.postludes.fetch_add(1, std::memory_order_relaxed);
    }
    entry.contract.domestic_calls.fetch_add(1, std::memory_order_relaxed);
    entry.calls.fetch_add(1, std::memory_order_relaxed);
    const trace::CytEventKind kind = entry.pattern == DiplomatPattern::kMulti
                                         ? trace::CytEventKind::kMulti
                                         : trace::CytEventKind::kCall;
    if (profiling) {
      // Profiling already reads the clock; that read doubles as the
      // captured event's timestamp and its aux duration.
      const std::int64_t end_ns = now_ns();
      const std::int64_t elapsed_ns = end_ns - start_ns;
      entry.record_latency(elapsed_ns);
      if (capturing) {
        trace::capture_diplomat_event(
            kind, entry.id, entry.name,
            static_cast<std::uint8_t>(entry.pattern),
            static_cast<std::uint8_t>(caller_persona),
            static_cast<std::uint32_t>(elapsed_ns < 0 ? 0 : elapsed_ns));
      }
    } else if (capturing) {
      // Capture alone stays clock-free on the hot path: the recorder
      // stamps the event from its per-thread cached clock.
      trace::capture_diplomat_event(
          kind, entry.id, entry.name, static_cast<std::uint8_t>(entry.pattern),
          static_cast<std::uint8_t>(caller_persona), /*aux=*/0);
    }
  };

  if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
    domestic();  // step 6
    finish();
  } else {
    auto result = domestic();  // steps 6-7 (result saved on the stack)
    finish();
    return result;  // step 11
  }
}

// Records a call that a data-dependent diplomat answered entirely on the
// foreign side (paper §4.1: e.g. glGetString's Apple-proprietary query, the
// APPLE_row_bytes parameters of glPixelStorei). Keeps `calls` comparable
// across patterns while letting the contract checker verify that only
// kDataDependent entries ever skip their Android call.
inline void diplomat_skip(DiplomatEntry& entry) {
  entry.calls.fetch_add(1, std::memory_order_relaxed);
  entry.contract.skipped_calls.fetch_add(1, std::memory_order_relaxed);
  if (trace::capture_enabled()) {
    trace::capture_diplomat_event(
        trace::CytEventKind::kSkip, entry.id, entry.name,
        static_cast<std::uint8_t>(entry.pattern),
        static_cast<std::uint8_t>(
            kernel::Kernel::instance().current_thread().persona()),
        /*aux=*/0);
  }
}

}  // namespace cycada::core
