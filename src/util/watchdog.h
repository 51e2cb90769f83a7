// Process-wide hang supervision for the bridge's supervised domains.
//
// Every mechanism the reproduction already has for surviving *errors*
// (bounded retry + shared-fallback EGL, resilient persona switches,
// serial-raster degrade) is blind to a path that simply never returns: a
// stalled bridge init, a tile phase whose helper went to sleep. The
// watchdog closes that class for its two domains:
//
//   WATCHDOG_SCOPE(WatchdogDomain::kGpuPhase, kWatchdogGpuPhaseBudgetMs);
//
// registers a deadline on the calling thread (a fixed-depth per-thread
// slot stack — push/pop is a handful of relaxed stores, no lock). One
// low-frequency monitor thread scans the slots and flags any scope past
// its deadline: it bumps `watchdog.<domain>.overdue`, emits a "watchdog"
// trace instant, and raises the domain's **rung** on the recovery ladder.
// The scope destructor performs the same escalation deterministically if
// it outlives its budget before the monitor noticed, so single-threaded
// tests never race the monitor period.
//
// Each domain's rung switches one mode (the watchdog never unwinds
// anyone's stack):
//
//   rung(kGpuPhase)   > 0  -> pipeline rasterizes serial, helpers retract
//   rung(kEgl)        > 0  -> bridge init goes straight to shared fallback
//
// The present-fence wait has no domain: its own deadline
// (kWatchdogPresentBudgetMs) bounds it, and an overrun is counted
// (watchdog.present.timeouts) and force-retires the frame.
//
// Hysteresis climbs back: note_frame() is called once per presented
// frame; after kRecoveryFrames consecutive frames in which a domain
// saw no stall, its rung drops one step (watchdog.rung_down), so the
// system probes its way back to full-parallel operation instead of
// staying degraded forever.
//
// CYCADA_WATCHDOG=0 disables supervision (scopes become no-ops);
// CYCADA_WATCHDOG_BUDGET_MS=N overrides every site budget — tests and
// the chaos soak use a small override so stalls trip in milliseconds,
// while the default site budgets are deliberately enormous (hang
// detection, not jitter policing).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/lock_order.h"

namespace cycada::trace {
class Counter;
class Histogram;
}  // namespace cycada::trace

namespace cycada::core {
struct WatchdogLadder;
}  // namespace cycada::core

namespace cycada::util {

enum class WatchdogDomain : int {
  kGpuPhase = 0,  // tile pipeline bin/raster phase (docs/PIPELINE.md)
  kEgl,           // bridge init ladder (src/ios_gl/egl_bridge.cpp)
  kCount,
};

const char* watchdog_domain_name(WatchdogDomain domain);

// Default per-site budgets, the present-fence wait's deadline included.
// Sized as hang detectors (orders of magnitude above any healthy duration)
// so they never trip on a loaded CI host; CYCADA_WATCHDOG_BUDGET_MS
// overrides all of them at once for tests.
inline constexpr std::int64_t kWatchdogGpuPhaseBudgetMs = 1000;
inline constexpr std::int64_t kWatchdogPresentBudgetMs = 2000;
inline constexpr std::int64_t kWatchdogEglBudgetMs = 1000;

namespace watchdog_detail {

// Fixed-depth deadline stack for one thread. Immortal: a thread acquires
// a free block on first scope, releases it (in_use -> false) at thread
// exit, and the monitor scans every block ever minted — no use-after-free
// window, no lock on the scope hot path.
struct ThreadSlots {
  static constexpr int kMaxDepth = 8;
  struct Slot {
    std::atomic<std::int64_t> enter_ns{0};
    std::atomic<std::int64_t> deadline_ns{0};
    std::atomic<int> domain{0};
    // Bumped on every push; publishes the slot fields (release). The
    // monitor and the destructor dedup escalation through
    // flagged_serial.exchange(serial): whoever exchanges first escalates.
    std::atomic<std::uint64_t> serial{0};
    std::atomic<std::uint64_t> flagged_serial{0};
    // The recovery ladder of the session the scope-pushing thread was
    // bound to (never null once serial is published): the monitor thread
    // escalates against *this* ladder, not its own session's. Ladders are
    // immortal pooled blocks (core/session.h), so a stale pointer read
    // after the session died still dereferences safely.
    std::atomic<core::WatchdogLadder*> ladder{nullptr};
  };
  Slot slots[kMaxDepth];
  std::atomic<int> depth{0};
  std::atomic<bool> in_use{false};
};

}  // namespace watchdog_detail

class Watchdog {
 public:
  static constexpr int kMaxRung = 3;
  static constexpr int kRecoveryFrames = 3;

  static Watchdog& instance();

  // CYCADA_WATCHDOG=0 at startup, or set_enabled(false), makes every
  // scope a no-op (the monitor idles). Default: enabled.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled);

  // 0 = no override (each site's own budget applies).
  void set_budget_override_ms(std::int64_t ms);
  std::int64_t budget_override_ms() const {
    return budget_override_ms_.load(std::memory_order_relaxed);
  }
  std::int64_t effective_budget_ms(std::int64_t site_budget_ms) const {
    const std::int64_t override_ms = budget_override_ms();
    return override_ms > 0 ? override_ms : site_budget_ms;
  }

  // Recovery-ladder state, per session: rung 0 = healthy; each stall
  // raises the domain's rung (clamped to kMaxRung), each run of
  // kRecoveryFrames clean frames lowers it by one. These read/advance
  // the *calling thread's session* ladder (the default session's for
  // unbound threads), so one wedged app degrades only its own pipeline.
  int rung(WatchdogDomain domain) const;
  bool degraded(WatchdogDomain domain) const { return rung(domain) > 0; }

  // Records a stall against the domain on the calling session's ladder
  // (called by scope destructors that outlived their budget and by sites
  // whose bounded wait timed out; the monitor escalates via the slot's
  // recorded ladder instead).
  void note_stall(WatchdogDomain domain);

  // Frame boundary for hysteresis; called once per presented frame, on
  // the presenting thread, against its session's ladder.
  void note_frame();

  int recovery_frames() const { return kRecoveryFrames; }

  // Drops every rung to 0 and clears hysteresis state (tests) — on every
  // live session's ladder.
  void reset();

  // --- scope/monitor internals (used by WatchdogScope) ---
  watchdog_detail::ThreadSlots& thread_slots();
  void ensure_monitor_started();
  // True if this (slot, serial) had already been flagged overdue; the
  // caller that sees false performs the escalation.
  bool claim_overdue(watchdog_detail::ThreadSlots::Slot& slot,
                     std::uint64_t serial);
  void count_overdue(WatchdogDomain domain, core::WatchdogLadder* ladder,
                     std::int64_t stall_ns);
  void count_stall_latency(WatchdogDomain domain, std::int64_t stall_ns);

 private:
  Watchdog();
  void monitor_main();
  void stop_monitor();
  static void atexit_hook();
  void note_stall_on(core::WatchdogLadder& ladder, WatchdogDomain domain);

  // Ladder state (rung/streak/stalled-flag) lives on the sessions'
  // WatchdogLadder blocks; only the process-global metric handles stay
  // here (one overdue counter and stall histogram per domain, shared by
  // every session).
  struct DomainState {
    trace::Counter* overdue_metric = nullptr;
    trace::Histogram* stall_histogram = nullptr;
  };

  std::atomic<bool> enabled_{true};
  std::atomic<std::int64_t> budget_override_ms_{0};
  DomainState domains_[static_cast<int>(WatchdogDomain::kCount)];
  trace::Counter* rung_up_metric_ = nullptr;
  trace::Counter* rung_down_metric_ = nullptr;

  mutable OrderedMutex threads_mutex_{LockLevel::kWatchdog, "util.watchdog"};
  std::vector<watchdog_detail::ThreadSlots*> threads_;

  std::atomic<bool> monitor_started_{false};
  std::atomic<bool> monitor_stop_{false};
  std::thread monitor_;
  std::mutex monitor_lifecycle_mutex_;
};

// RAII deadline scope. Pushes a slot on construction (when the watchdog
// is enabled and the thread's stack has room), pops on destruction, and
// escalates deterministically if the scope outlived its budget without
// the monitor noticing. `overdue()` reports whether either side flagged
// this scope.
class WatchdogScope {
 public:
  WatchdogScope(WatchdogDomain domain, std::int64_t budget_ms);
  ~WatchdogScope();
  WatchdogScope(const WatchdogScope&) = delete;
  WatchdogScope& operator=(const WatchdogScope&) = delete;

  bool overdue() const;

 private:
  watchdog_detail::ThreadSlots* slots_ = nullptr;
  watchdog_detail::ThreadSlots::Slot* slot_ = nullptr;
  core::WatchdogLadder* ladder_ = nullptr;
  std::uint64_t serial_ = 0;
  std::int64_t enter_ns_ = 0;
  std::int64_t budget_ns_ = 0;
  WatchdogDomain domain_;
};

#define CYCADA_WATCHDOG_CONCAT2(a, b) a##b
#define CYCADA_WATCHDOG_CONCAT(a, b) CYCADA_WATCHDOG_CONCAT2(a, b)
#define WATCHDOG_SCOPE(domain, budget_ms)                        \
  ::cycada::util::WatchdogScope CYCADA_WATCHDOG_CONCAT(          \
      cycada_watchdog_scope_, __LINE__)(domain, budget_ms)

}  // namespace cycada::util
