#include "core/impersonation.h"

#include "core/session.h"
#include "trace/cyt.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/faultpoint.h"
#include "util/log.h"

namespace cycada::core {

namespace {
// Per-thread nesting depth of graphics-diplomat prelude/postlude windows.
thread_local int t_graphics_depth = 0;

kernel::Persona persona_at(int index) {
  return static_cast<kernel::Persona>(index);
}
}  // namespace

GraphicsTlsTracker& GraphicsTlsTracker::instance() {
  // Per-session facet: key membership tracked against the session's own
  // kernel. Default-session facets are immortal.
  return Session::current().facet<GraphicsTlsTracker>(+[] {
    auto* tracker = new GraphicsTlsTracker();
    tracker->owner_ = Session::constructing_owner();
    return tracker;
  });
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
  for (auto& slot : slots_) slot.store(0, std::memory_order_release);
  t_graphics_depth = 0;
}

void GraphicsTlsTracker::set_slot(kernel::TlsKey key, bool tracked) {
  if (key < 0 || key >= kernel::kMaxTlsSlots) return;
  slots_[key].store(tracked ? 1 : 0, std::memory_order_release);
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
  std::vector<kernel::TlsKey> keys;
  for (kernel::TlsKey key = 0; key < kernel::kMaxTlsSlots; ++key) {
    if (slots_[key].load(std::memory_order_acquire) != 0) keys.push_back(key);
  }
  return keys;
}

bool GraphicsTlsTracker::is_graphics_key(kernel::TlsKey key) const {
  if (key < 0 || key >= kernel::kMaxTlsSlots) return false;
  return slots_[key].load(std::memory_order_acquire) != 0;
}

ContextTls ContextTls::capture() {
  ContextTls tls;
  tls.creator_ = kernel::sys_gettid();
  tls.keys_ = GraphicsTlsTracker::instance().graphics_keys();
  const kernel::Tid self = kernel::Kernel::instance().current_thread().tid();
  const int count = static_cast<int>(tls.keys_.size());
  for (int p = 0; p < kernel::kNumPersonas; ++p) {
    tls.values_[p].resize(tls.keys_.size());
    (void)kernel::sys_locate_tls(self, persona_at(p), tls.keys_.data(),
                                 tls.values_[p].data(), count);
  }
  return tls;
}

void* ContextTls::value(kernel::Persona persona, kernel::TlsKey key) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return values_[static_cast<int>(persona)][i];
  }
  return nullptr;
}

ThreadImpersonation::ThreadImpersonation(ContextTls& context) {
  TRACE_SCOPE("impersonation", "acquire");
  self_ = kernel::Kernel::instance().current_thread().tid();
  if (context.creator_ == kernel::kInvalidTid || context.creator_ == self_) {
    return;
  }
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("dispatch.impersonate");
  if (fault.should_fail()) {
    CYCADA_LOG(kWarn) << "injected dispatch.impersonate fault for creator "
                      << context.creator_;
    return;
  }
  const std::vector<kernel::TlsKey>& keys = context.keys_;
  const int count = static_cast<int>(keys.size());
  // Step 3 of §7.1, in both personas: locate every value the release
  // restores before anything is installed, assume the creator's identity,
  // then install the context's values.
  for (int p = 0; p < kernel::kNumPersonas; ++p) {
    saved_[p].resize(keys.size());
    if (kernel::sys_locate_tls(self_, persona_at(p), keys.data(),
                               saved_[p].data(), count) != 0) {
      return;
    }
  }
  if (kernel::sys_impersonate(context.creator_) != 0) return;
  context_ = &context;
  for (int p = 0; p < kernel::kNumPersonas; ++p) {
    if (kernel::sys_propagate_tls(self_, persona_at(p), keys.data(),
                                  context.values_[p].data(), count) != 0) {
      restore();
      context_ = nullptr;
      return;
    }
  }
  trace::capture_set_impersonating(true);
  static trace::Counter& acquires =
      trace::MetricsRegistry::instance().counter("impersonation.acquires");
  static trace::Counter& migrated = trace::MetricsRegistry::instance().counter(
      "impersonation.migrated_keys");
  acquires.add();
  migrated.add(static_cast<std::uint64_t>(count) * kernel::kNumPersonas);
}

ThreadImpersonation::~ThreadImpersonation() {
  if (context_ == nullptr) return;
  TRACE_SCOPE("impersonation", "release");
  // Steps 4-5 of §7.1: the running thread's values become the context's,
  // then its own values come back.
  const std::vector<kernel::TlsKey>& keys = context_->keys_;
  for (int p = 0; p < kernel::kNumPersonas; ++p) {
    (void)kernel::sys_locate_tls(self_, persona_at(p), keys.data(),
                                 context_->values_[p].data(),
                                 static_cast<int>(keys.size()));
  }
  restore();
  trace::capture_set_impersonating(false);
}

void ThreadImpersonation::restore() {
  const std::vector<kernel::TlsKey>& keys = context_->keys_;
  for (int p = 0; p < kernel::kNumPersonas; ++p) {
    (void)kernel::sys_propagate_tls(self_, persona_at(p), keys.data(),
                                    saved_[p].data(),
                                    static_cast<int>(keys.size()));
  }
  (void)kernel::sys_impersonate(kernel::kInvalidTid);
}

const std::vector<kernel::TlsKey>& ThreadImpersonation::migrated_keys() const {
  static const std::vector<kernel::TlsKey> kNone;
  return context_ != nullptr ? context_->keys_ : kNone;
}

}  // namespace cycada::core
