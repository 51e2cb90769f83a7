#include "core/impersonation.h"

#include "core/session.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/faultpoint.h"
#include "util/log.h"

namespace cycada::core {

namespace {
// Per-thread nesting depth of graphics-diplomat prelude/postlude windows.
thread_local int t_graphics_depth = 0;

// Per-thread cache of the tracked-key vector, revalidated against the
// tracker's generation counter. Impersonation enter/exit calls
// graphics_keys() on every acquire; with a stable key set this is a single
// acquire load plus a vector copy, with no shared lock.
struct KeyCache {
  std::uint64_t generation = ~0ull;
  const GraphicsTlsTracker* tracker = nullptr;  // per-session identity
  std::vector<kernel::TlsKey> keys;
};
thread_local KeyCache t_key_cache;

// Most recent completed migration. Leaf mutex: nothing is acquired under it.
std::mutex g_migration_mutex;
std::optional<MigrationRecord> g_last_migration;

// Process-wide generation source shared by every tracker instance. Session
// churn recycles heap addresses, so the (tracker pointer, generation) pair
// in KeyCache is only sound if no two tracker instances ever publish the
// same generation value.
std::atomic<std::uint64_t> g_generation_source{1};
}  // namespace

std::optional<MigrationRecord> last_migration() {
  std::lock_guard lock(g_migration_mutex);
  return g_last_migration;
}

void clear_migration_record() {
  std::lock_guard lock(g_migration_mutex);
  g_last_migration.reset();
}

GraphicsTlsTracker& GraphicsTlsTracker::instance() {
  // Per-session facet: key membership tracked against the session's own
  // kernel. Default-session facets are immortal.
  return Session::current().facet<GraphicsTlsTracker>(+[] {
    auto* tracker = new GraphicsTlsTracker();
    tracker->owner_ = Session::constructing_owner();
    return tracker;
  });
}

GraphicsTlsTracker::GraphicsTlsTracker() {
  generation_.store(g_generation_source.fetch_add(1, std::memory_order_relaxed),
                    std::memory_order_release);
}

GraphicsTlsTracker::~GraphicsTlsTracker() { reset(); }

void GraphicsTlsTracker::install() {
  std::lock_guard lock(mutex_);
  if (installed_) return;
  kernel::Kernel& kernel = kernel::Kernel::instance();
  create_hook_ = kernel.add_key_create_hook(
      [this](kernel::TlsKey key) { on_key_created(key); });
  delete_hook_ = kernel.add_key_delete_hook(
      [this](kernel::TlsKey key) { on_key_deleted(key); });
  hook_kernel_ = &kernel;
  installed_ = true;
}

void GraphicsTlsTracker::reset() {
  std::lock_guard lock(mutex_);
  if (installed_) {
    // Remove the hooks from the kernel they were installed on — not from
    // Kernel::instance(), which resolves against the *caller's* session.
    hook_kernel_->remove_key_create_hook(create_hook_);
    hook_kernel_->remove_key_delete_hook(delete_hook_);
    installed_ = false;
  }
  for (auto& slot : slots_) slot.store(0, std::memory_order_relaxed);
  generation_.store(g_generation_source.fetch_add(1, std::memory_order_relaxed),
                    std::memory_order_release);
  t_graphics_depth = 0;
  clear_migration_record();
}

void GraphicsTlsTracker::set_slot(kernel::TlsKey key, bool tracked) {
  if (key < 0 || key >= kernel::kMaxTlsSlots) return;
  const std::uint8_t value = tracked ? 1 : 0;
  // The generation bump's release pairs with the acquire in
  // graphics_keys()/generation(): a reader that sees the new generation
  // also sees the slot change when it rescans.
  if (slots_[key].exchange(value, std::memory_order_acq_rel) != value) {
    generation_.store(
        g_generation_source.fetch_add(1, std::memory_order_relaxed),
        std::memory_order_release);
  }
}

void GraphicsTlsTracker::enter_graphics_diplomat() { ++t_graphics_depth; }

void GraphicsTlsTracker::exit_graphics_diplomat() {
  if (t_graphics_depth > 0) --t_graphics_depth;
}

bool GraphicsTlsTracker::in_graphics_diplomat() const {
  return t_graphics_depth > 0;
}

void GraphicsTlsTracker::add_well_known_key(kernel::TlsKey key) {
  if (key == kernel::kInvalidTlsKey) return;
  set_slot(key, true);
}

void GraphicsTlsTracker::on_key_created(kernel::TlsKey key) {
  // The gate: only keys reserved inside a graphics diplomat window are
  // graphics-related (paper §7.1).
  if (t_graphics_depth <= 0) return;
  set_slot(key, true);
}

void GraphicsTlsTracker::on_key_deleted(kernel::TlsKey key) {
  set_slot(key, false);
}

std::vector<kernel::TlsKey> GraphicsTlsTracker::graphics_keys() const {
  Session::check_access(owner_, SessionLayer::kTls);
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  KeyCache& cache = t_key_cache;
  if (cache.generation != generation || cache.tracker != this) {
    cache.keys.clear();
    for (kernel::TlsKey key = 0; key < kernel::kMaxTlsSlots; ++key) {
      if (slots_[key].load(std::memory_order_relaxed) != 0) {
        cache.keys.push_back(key);
      }
    }
    cache.generation = generation;
    cache.tracker = this;
  }
  return cache.keys;
}

bool GraphicsTlsTracker::is_graphics_key(kernel::TlsKey key) const {
  if (key < 0 || key >= kernel::kMaxTlsSlots) return false;
  return slots_[key].load(std::memory_order_acquire) != 0;
}

ThreadImpersonation::ThreadImpersonation(kernel::Tid target) : target_(target) {
  TRACE_SCOPE("impersonation", "acquire");
  kernel::Kernel& kernel = kernel::Kernel::instance();
  self_ = kernel.current_thread().tid();
  if (target_ == kernel::kInvalidTid || target_ == self_) return;
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("dispatch.impersonate");
  if (fault.should_fail()) {
    CYCADA_LOG(kWarn) << "injected dispatch.impersonate fault for target "
                      << target_;
    return;
  }
  if (kernel.find_thread(target_) == nullptr) {
    CYCADA_LOG(kWarn) << "impersonation target " << target_ << " not found";
    return;
  }
  keys_ = GraphicsTlsTracker::instance().graphics_keys();
  const int count = static_cast<int>(keys_.size());
  {
    TRACE_SCOPE("impersonation", "migrate_tls_in");
    for (int p = 0; p < kernel::kNumPersonas; ++p) {
      const auto persona = static_cast<kernel::Persona>(p);
      saved_[p].resize(keys_.size());
      std::vector<void*> incoming(keys_.size());
      // Save the running thread's graphics TLS and install the target's, in
      // both personas (steps 3 of §7.1, via the locate/propagate syscalls).
      if (kernel::sys_locate_tls(self_, persona, keys_.data(),
                                 saved_[p].data(), count) != 0 ||
          kernel::sys_locate_tls(target_, persona, keys_.data(),
                                 incoming.data(), count) != 0 ||
          kernel::sys_propagate_tls(self_, persona, keys_.data(),
                                    incoming.data(), count) != 0) {
        return;
      }
    }
  }
  kernel::sys_impersonate(target_);
  active_ = true;
  {
    std::lock_guard lock(g_migration_mutex);
    g_last_migration = MigrationRecord{self_, target_, keys_};
  }
  static trace::Counter& acquires =
      trace::MetricsRegistry::instance().counter("impersonation.acquires");
  static trace::Counter& migrated = trace::MetricsRegistry::instance().counter(
      "impersonation.migrated_keys");
  acquires.add();
  migrated.add(static_cast<std::uint64_t>(count) * kernel::kNumPersonas);
}

ThreadImpersonation::~ThreadImpersonation() {
  if (!active_) return;
  TRACE_SCOPE("impersonation", "release");
  const int count = static_cast<int>(keys_.size());
  {
    TRACE_SCOPE("impersonation", "migrate_tls_out");
    for (int p = 0; p < kernel::kNumPersonas; ++p) {
      const auto persona = static_cast<kernel::Persona>(p);
      std::vector<void*> updated(keys_.size());
      // Reflect updates back into the TLS associated with the context (the
      // target thread), then restore the running thread's own state
      // (steps 4-5 of §7.1).
      if (kernel::sys_locate_tls(self_, persona, keys_.data(), updated.data(),
                                 count) == 0) {
        (void)kernel::sys_propagate_tls(target_, persona, keys_.data(),
                                        updated.data(), count);
      }
      (void)kernel::sys_propagate_tls(self_, persona, keys_.data(),
                                      saved_[p].data(), count);
    }
  }
  kernel::sys_impersonate(kernel::kInvalidTid);
}

}  // namespace cycada::core
