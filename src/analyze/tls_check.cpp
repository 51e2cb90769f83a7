// TLS-migration completeness checker (paper §7.1): proves that thread
// impersonation migrates *every* graphics-related TLS key — including keys
// the GraphicsTlsTracker might have missed, which a second, independent
// observer (TlsAudit) records straight off the kernel hooks.
#include <cstdint>
#include <set>
#include <thread>

#include "analyze/analyze.h"
#include "core/impersonation.h"
#include "kernel/kernel.h"

namespace cycada::analyze {

namespace {

// Distinct per-(persona, key-index) sentinel planted in the probe creator.
void* sentinel(int persona, int index) {
  return reinterpret_cast<void*>(
      static_cast<std::uintptr_t>(0xC0DE0000u + persona * 0x1000 + index));
}

std::string key_label(kernel::TlsKey key) {
  return "tls key " + std::to_string(key);
}

}  // namespace

TlsAudit& TlsAudit::instance() {
  static TlsAudit* audit = new TlsAudit();
  return *audit;
}

void TlsAudit::install() {
  std::lock_guard lock(mutex_);
  kernel::Kernel& kernel = kernel::Kernel::instance();
  if (installed_) {
    // The kernel may have been reset since (which drops all hooks); removing
    // a stale id is a no-op, so re-installing is always safe.
    kernel.remove_key_create_hook(create_hook_);
    kernel.remove_key_delete_hook(delete_hook_);
  }
  create_hook_ = kernel.add_key_create_hook([this](kernel::TlsKey key) {
    // The audit applies the same gate as the tracker but keeps its own
    // books, so a tracker that loses a key cannot hide it.
    if (!core::GraphicsTlsTracker::instance().in_graphics_diplomat()) return;
    std::lock_guard hook_lock(mutex_);
    keys_.insert(key);
  });
  delete_hook_ = kernel.add_key_delete_hook([this](kernel::TlsKey key) {
    std::lock_guard hook_lock(mutex_);
    keys_.erase(key);
  });
  installed_ = true;
}

void TlsAudit::reset() {
  std::lock_guard lock(mutex_);
  if (installed_) {
    kernel::Kernel& kernel = kernel::Kernel::instance();
    kernel.remove_key_create_hook(create_hook_);
    kernel.remove_key_delete_hook(delete_hook_);
    installed_ = false;
  }
  keys_.clear();
}

bool TlsAudit::installed() const {
  std::lock_guard lock(mutex_);
  return installed_;
}

std::vector<kernel::TlsKey> TlsAudit::graphics_window_keys() const {
  std::lock_guard lock(mutex_);
  return {keys_.begin(), keys_.end()};
}

void check_tls_migration(Report& report) {
  kernel::Kernel& kernel = kernel::Kernel::instance();
  core::GraphicsTlsTracker& tracker = core::GraphicsTlsTracker::instance();

  // The expected migration set: everything the tracker knows plus
  // everything the independent audit saw created in a graphics window.
  std::set<kernel::TlsKey> expected;
  for (kernel::TlsKey key : tracker.graphics_keys()) expected.insert(key);
  for (kernel::TlsKey key : TlsAudit::instance().graphics_window_keys()) {
    if (!tracker.is_graphics_key(key)) {
      report.add("tls", "tls.tracker-missed-key", key_label(key),
                 "created inside a graphics-diplomat window but the "
                 "tracker does not consider it graphics-related; "
                 "impersonation will not migrate it");
    }
    expected.insert(key);
  }
  if (expected.empty()) return;  // nothing graphics-related to migrate

  const std::vector<kernel::TlsKey> keys(expected.begin(), expected.end());
  const int count = static_cast<int>(keys.size());
  const kernel::Tid self = kernel.current_thread().tid();

  // A probe context made the way EAGLContext makes one: a fresh kernel
  // thread plants per-persona sentinels in its own TLS and captures the
  // store (its ThreadState outlives the OS thread, as a creator's does).
  core::ContextTls context;
  bool planted = true;
  std::thread([&] {
    const kernel::Tid creator = kernel::Kernel::instance()
                                    .register_current_thread(
                                        kernel::Persona::kAndroid)
                                    .tid();
    for (int p = 0; p < kernel::kNumPersonas; ++p) {
      std::vector<void*> values(keys.size());
      for (int i = 0; i < count; ++i) values[i] = sentinel(p, i);
      planted &= kernel::sys_propagate_tls(
                     creator, static_cast<kernel::Persona>(p), keys.data(),
                     values.data(), count) == 0;
    }
    context = core::ContextTls::capture();
  }).join();
  if (!planted) {
    report.add("tls", "tls.no-record", "probe",
               "could not plant sentinels in the probe context's creator");
    return;
  }

  // Snapshot our own values.
  std::vector<void*> before[kernel::kNumPersonas];
  for (int p = 0; p < kernel::kNumPersonas; ++p) {
    before[p].resize(keys.size());
    (void)kernel::sys_locate_tls(self, static_cast<kernel::Persona>(p),
                                 keys.data(), before[p].data(), count);
  }

  {
    core::ThreadImpersonation impersonation(context);
    if (!impersonation.active()) {
      report.add("tls", "tls.no-record", "probe",
                 "impersonating the probe context's creator migrated "
                 "nothing");
      return;
    }
    const std::set<kernel::TlsKey> migrated(
        impersonation.migrated_keys().begin(),
        impersonation.migrated_keys().end());
    for (int i = 0; i < count; ++i) {
      if (!migrated.contains(keys[i])) {
        report.add("tls", "tls.unmigrated-key", key_label(keys[i]),
                   "expected graphics key was absent from the "
                   "impersonation's migration set");
        continue;
      }
      // A migrated key must now carry the context's value in both personas.
      for (int p = 0; p < kernel::kNumPersonas; ++p) {
        const auto persona = static_cast<kernel::Persona>(p);
        void* value = nullptr;
        (void)kernel::sys_locate_tls(self, persona, &keys[i], &value, 1);
        if (value != sentinel(p, i)) {
          report.add("tls", "tls.sentinel-missing", key_label(keys[i]),
                     "migrated key does not carry the context's value in "
                     "persona " +
                         std::to_string(p));
        }
      }
    }
  }

  // After the impersonation ends, our own values must be back.
  for (int p = 0; p < kernel::kNumPersonas; ++p) {
    const auto persona = static_cast<kernel::Persona>(p);
    std::vector<void*> after(keys.size());
    (void)kernel::sys_locate_tls(self, persona, keys.data(), after.data(),
                                 count);
    for (int i = 0; i < count; ++i) {
      if (after[i] != before[p][i]) {
        report.add("tls", "tls.not-restored", key_label(keys[i]),
                   "the probing thread's own value was not restored in "
                   "persona " +
                       std::to_string(p));
      }
    }
  }
}

}  // namespace cycada::analyze
