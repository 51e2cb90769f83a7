#include "util/watchdog.h"

#include <cstdlib>

#include "core/session.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/clock.h"
#include "util/log.h"

namespace cycada::util {

namespace {

constexpr std::int64_t kMonitorPeriodMs = 2;

static_assert(static_cast<int>(WatchdogDomain::kCount) <=
                  core::WatchdogLadder::kMaxDomains,
              "WatchdogLadder is sized without including watchdog.h");

// The ladder the calling thread's stalls and frames land on. Never null:
// every session (the default included) acquires a pooled ladder at
// construction.
core::WatchdogLadder& current_ladder() {
  return *core::Session::current().watchdog_ladder();
}

std::string domain_metric(const char* domain, const char* suffix) {
  return std::string("watchdog.") + domain + suffix;
}

}  // namespace

const char* watchdog_domain_name(WatchdogDomain domain) {
  switch (domain) {
    case WatchdogDomain::kGpuPhase: return "gpu_phase";
    case WatchdogDomain::kEgl: return "egl";
    case WatchdogDomain::kCount: break;
  }
  return "?";
}

Watchdog& Watchdog::instance() {
  // Immortal, like every other process-wide registry: the monitor thread
  // and late-exiting worker threads may touch it during teardown.
  static Watchdog* watchdog = new Watchdog();
  return *watchdog;
}

Watchdog::Watchdog() {
  if (const char* env = std::getenv("CYCADA_WATCHDOG");
      env != nullptr && env[0] == '0' && env[1] == '\0') {
    enabled_.store(false, std::memory_order_relaxed);
  }
  if (const char* env = std::getenv("CYCADA_WATCHDOG_BUDGET_MS");
      env != nullptr && *env != '\0') {
    const long long ms = std::atoll(env);
    if (ms > 0) budget_override_ms_.store(ms, std::memory_order_relaxed);
  }
  // Metrics are cached up front so neither the monitor thread nor a scope
  // destructor ever takes the metrics lock (counter objects are immortal
  // and survive MetricsRegistry::reset()).
  auto& metrics = trace::MetricsRegistry::instance();
  for (int i = 0; i < static_cast<int>(WatchdogDomain::kCount); ++i) {
    const char* name = watchdog_domain_name(static_cast<WatchdogDomain>(i));
    domains_[i].overdue_metric =
        &metrics.counter(domain_metric(name, ".overdue"));
    domains_[i].stall_histogram =
        &metrics.histogram(domain_metric(name, ".stall_ns"));
  }
  rung_up_metric_ = &metrics.counter("watchdog.rung_up");
  rung_down_metric_ = &metrics.counter("watchdog.rung_down");
}

void Watchdog::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void Watchdog::set_budget_override_ms(std::int64_t ms) {
  budget_override_ms_.store(ms > 0 ? ms : 0, std::memory_order_relaxed);
}

int Watchdog::rung(WatchdogDomain domain) const {
  return current_ladder()
      .domains[static_cast<int>(domain)]
      .rung.load(std::memory_order_relaxed);
}

void Watchdog::note_stall(WatchdogDomain domain) {
  note_stall_on(current_ladder(), domain);
}

void Watchdog::note_stall_on(core::WatchdogLadder& ladder,
                             WatchdogDomain domain) {
  auto& state = ladder.domains[static_cast<int>(domain)];
  state.stalled_since_frame.store(true, std::memory_order_relaxed);
  state.clean_streak.store(0, std::memory_order_relaxed);
  const int rung = state.rung.fetch_add(1, std::memory_order_relaxed) + 1;
  if (rung > kMaxRung) {
    state.rung.store(kMaxRung, std::memory_order_relaxed);
  } else {
    rung_up_metric_->add();
    TRACE_INSTANT("watchdog", "rung-up");
  }
}

void Watchdog::note_frame() {
  core::WatchdogLadder& ladder = current_ladder();
  for (int i = 0; i < static_cast<int>(WatchdogDomain::kCount); ++i) {
    auto& state = ladder.domains[i];
    if (state.stalled_since_frame.exchange(false,
                                           std::memory_order_relaxed)) {
      state.clean_streak.store(0, std::memory_order_relaxed);
      continue;
    }
    if (state.rung.load(std::memory_order_relaxed) == 0) continue;
    const int streak =
        state.clean_streak.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak < kRecoveryFrames) continue;
    state.clean_streak.store(0, std::memory_order_relaxed);
    // Probe one rung back up; a fresh stall at the lower rung re-raises it.
    int rung = state.rung.load(std::memory_order_relaxed);
    while (rung > 0 &&
           !state.rung.compare_exchange_weak(rung, rung - 1,
                                             std::memory_order_relaxed)) {
    }
    if (rung > 0) {
      rung_down_metric_->add();
      TRACE_INSTANT("watchdog", "rung-down");
    }
  }
}

void Watchdog::reset() {
  // Every live session's ladder, not just the caller's: tests that wedge a
  // fleet session and then reset must not leave a stranger degraded.
  for (core::Session* session :
       core::SessionRegistry::instance().live_sessions()) {
    session->watchdog_ladder()->reset();
  }
}

watchdog_detail::ThreadSlots& Watchdog::thread_slots() {
  struct Holder {
    watchdog_detail::ThreadSlots* slots = nullptr;
    ~Holder() {
      if (slots != nullptr) {
        slots->depth.store(0, std::memory_order_relaxed);
        slots->in_use.store(false, std::memory_order_release);
      }
    }
  };
  thread_local Holder holder;
  if (holder.slots == nullptr) {
    std::lock_guard lock(threads_mutex_);
    for (auto* existing : threads_) {
      bool free = false;
      if (existing->in_use.compare_exchange_strong(
              free, true, std::memory_order_acquire)) {
        // CAS succeeds only on a parked block left by an exited thread.
        holder.slots = existing;
        break;
      }
    }
    if (holder.slots == nullptr) {
      holder.slots = new watchdog_detail::ThreadSlots();
      holder.slots->in_use.store(true, std::memory_order_relaxed);
      threads_.push_back(holder.slots);
    }
  }
  return *holder.slots;
}

bool Watchdog::claim_overdue(watchdog_detail::ThreadSlots::Slot& slot,
                             std::uint64_t serial) {
  return slot.flagged_serial.exchange(serial, std::memory_order_acq_rel) ==
         serial;
}

void Watchdog::count_overdue(WatchdogDomain domain,
                             core::WatchdogLadder* ladder,
                             std::int64_t stall_ns) {
  DomainState& state = domains_[static_cast<int>(domain)];
  state.overdue_metric->add();
  if (stall_ns > 0) state.stall_histogram->record(stall_ns);
  TRACE_INSTANT("watchdog", watchdog_domain_name(domain));
  note_stall_on(ladder != nullptr ? *ladder : current_ladder(), domain);
}

void Watchdog::count_stall_latency(WatchdogDomain domain,
                                   std::int64_t stall_ns) {
  if (stall_ns > 0) {
    domains_[static_cast<int>(domain)].stall_histogram->record(stall_ns);
  }
}

void Watchdog::ensure_monitor_started() {
  if (monitor_started_.load(std::memory_order_acquire)) return;
  std::lock_guard lock(monitor_lifecycle_mutex_);
  if (monitor_started_.load(std::memory_order_relaxed)) return;
  monitor_stop_.store(false, std::memory_order_relaxed);
  monitor_ = std::thread([this] { monitor_main(); });
  // Joined (not detached) at exit: a detached scanner could touch trace
  // buffers mid-static-destruction.
  std::atexit(&Watchdog::atexit_hook);
  monitor_started_.store(true, std::memory_order_release);
}

void Watchdog::atexit_hook() { instance().stop_monitor(); }

void Watchdog::stop_monitor() {
  std::lock_guard lock(monitor_lifecycle_mutex_);
  if (!monitor_started_.load(std::memory_order_relaxed)) return;
  monitor_stop_.store(true, std::memory_order_release);
  if (monitor_.joinable()) monitor_.join();
  monitor_started_.store(false, std::memory_order_release);
}

void Watchdog::monitor_main() {
  while (!monitor_stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kMonitorPeriodMs));
    if (!enabled()) continue;
    const std::int64_t now = now_ns();
    std::lock_guard lock(threads_mutex_);
    for (auto* thread_slots : threads_) {
      if (!thread_slots->in_use.load(std::memory_order_acquire)) continue;
      const int depth = thread_slots->depth.load(std::memory_order_acquire);
      for (int i = 0; i < depth && i < watchdog_detail::ThreadSlots::kMaxDepth;
           ++i) {
        auto& slot = thread_slots->slots[i];
        const std::uint64_t serial =
            slot.serial.load(std::memory_order_acquire);
        const std::int64_t deadline =
            slot.deadline_ns.load(std::memory_order_relaxed);
        if (deadline == 0 || now <= deadline) continue;
        if (claim_overdue(slot, serial)) continue;  // already escalated
        const auto domain = static_cast<WatchdogDomain>(
            slot.domain.load(std::memory_order_relaxed));
        count_overdue(domain, slot.ladder.load(std::memory_order_relaxed),
                      now - slot.enter_ns.load(std::memory_order_relaxed));
        CYCADA_LOG(kWarn) << "watchdog: " << watchdog_domain_name(domain)
                          << " scope overdue ("
                          << (now - slot.enter_ns.load(
                                        std::memory_order_relaxed)) /
                                 1000000
                          << "ms elapsed)";
      }
    }
  }
}

WatchdogScope::WatchdogScope(WatchdogDomain domain, std::int64_t budget_ms)
    : domain_(domain) {
  Watchdog& watchdog = Watchdog::instance();
  if (!watchdog.enabled()) return;
  watchdog.ensure_monitor_started();
  watchdog_detail::ThreadSlots& slots = watchdog.thread_slots();
  const int depth = slots.depth.load(std::memory_order_relaxed);
  if (depth >= watchdog_detail::ThreadSlots::kMaxDepth) return;
  enter_ns_ = now_ns();
  budget_ns_ = watchdog.effective_budget_ms(budget_ms) * 1000000;
  ladder_ = &current_ladder();
  auto& slot = slots.slots[depth];
  serial_ = slot.serial.load(std::memory_order_relaxed) + 1;
  slot.enter_ns.store(enter_ns_, std::memory_order_relaxed);
  slot.deadline_ns.store(enter_ns_ + budget_ns_, std::memory_order_relaxed);
  slot.domain.store(static_cast<int>(domain), std::memory_order_relaxed);
  slot.ladder.store(ladder_, std::memory_order_relaxed);
  slot.serial.store(serial_, std::memory_order_release);
  slots.depth.store(depth + 1, std::memory_order_release);
  slots_ = &slots;
  slot_ = &slot;
}

WatchdogScope::~WatchdogScope() {
  if (slot_ == nullptr) return;
  slots_->depth.store(slots_->depth.load(std::memory_order_relaxed) - 1,
                      std::memory_order_release);
  const std::int64_t elapsed = now_ns() - enter_ns_;
  if (elapsed <= budget_ns_) return;
  Watchdog& watchdog = Watchdog::instance();
  // The monitor may have beaten us to it; exactly one side escalates.
  // Escalate against the ladder recorded at push time: the scope may be
  // unwinding after a SessionScope inside it already rebound the thread.
  if (!watchdog.claim_overdue(*slot_, serial_)) {
    watchdog.count_overdue(domain_, ladder_, elapsed);
  } else {
    // Monitor already counted the overdue event; still record how long the
    // stall actually lasted end to end.
    watchdog.count_stall_latency(domain_, elapsed);
  }
}

bool WatchdogScope::overdue() const {
  if (slot_ == nullptr) return false;
  if (slot_->flagged_serial.load(std::memory_order_acquire) == serial_) {
    return true;
  }
  return now_ns() - enter_ns_ > budget_ns_;
}

}  // namespace cycada::util
