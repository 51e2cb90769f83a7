// Thread impersonation (paper §7.1): one thread temporarily assumes the
// identity of another across ALL personas, with selective migration of
// graphics-related TLS slots.
//
// Which slots are "graphics-related" is discovered at run time: the kernel's
// pthread_key_create/delete hooks (the 12-line libc patch) are gated so that
// keys reserved while a thread is inside a graphics diplomat's prelude/
// postlude window are recorded as graphics keys. Well-known iOS library
// slots can be added explicitly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "kernel/kernel.h"
#include "util/lock_order.h"

namespace cycada::core {

class Session;

class GraphicsTlsTracker {
 public:
  static GraphicsTlsTracker& instance();

  // Unregisters any installed kernel hooks. Runs only for per-session
  // facets (the default session's tracker is immortal); the facet teardown
  // order guarantees the kernel the hooks were installed on still exists.
  ~GraphicsTlsTracker();

  // Registers the kernel hooks (idempotent). reset() unregisters and
  // forgets all tracked keys.
  void install();
  void reset();

  // Gating: while a thread is between enter/exit (a graphics diplomat's
  // prelude/postlude window), keys it creates are recorded as
  // graphics-related. Reentrant per thread.
  void enter_graphics_diplomat();
  void exit_graphics_diplomat();
  bool in_graphics_diplomat() const;

  // Explicit registration of well-known (e.g. Apple library) slots.
  void add_well_known_key(kernel::TlsKey key);

  // Snapshot of the tracked keys, sorted: one scan of the slot table. Read
  // once per context (ContextTls::capture), never per GL call.
  std::vector<kernel::TlsKey> graphics_keys() const;
  // Wait-free: one acquire load of the key's slot.
  bool is_graphics_key(kernel::TlsKey key) const;

 private:
  friend class Session;
  GraphicsTlsTracker() = default;
  void on_key_created(kernel::TlsKey key);
  void on_key_deleted(kernel::TlsKey key);
  void set_slot(kernel::TlsKey key, bool tracked);

  // Guards only install/reset (hook bookkeeping). The membership set lives
  // in the lock-free slot table below; is_graphics_key, graphics_keys and
  // the key hooks never take this mutex.
  mutable util::OrderedMutex mutex_{util::LockLevel::kTlsTracker,
                                    "core.tls_tracker"};
  // One flag per kernel TLS slot, stored with release and loaded with
  // acquire.
  std::array<std::atomic<std::uint8_t>, kernel::kMaxTlsSlots> slots_{};
  int create_hook_ = 0;
  int delete_hook_ = 0;
  bool installed_ = false;
  // The kernel the hooks were installed on: resolved when install() runs,
  // not at reset/destruction time, because teardown may run on a thread
  // bound to a different session (whose Kernel::instance() differs).
  kernel::Kernel* hook_kernel_ = nullptr;
  Session* owner_ = nullptr;  // set in instance()'s facet thunk
};

// The graphics TLS associated with one GLES context (paper §7.1 step 2):
// the tracker's keys when the context was made, with the creator's values
// of them in both personas. EAGLContext captures it on the creating thread
// right after its bridge init, where the context's replica reserved its
// slot; every impersonation that runs with the context installs these
// values and writes the running thread's values back on release. EAGL lets
// a context be current on one foreign thread at a time, so the store needs
// no lock.
class ContextTls {
 public:
  // The calling thread's identity and its values of every key the tracker
  // holds now.
  static ContextTls capture();

  kernel::Tid creator() const { return creator_; }
  const std::vector<kernel::TlsKey>& keys() const { return keys_; }
  // The stored value of `key` in `persona`; nullptr when the store does not
  // hold the key.
  void* value(kernel::Persona persona, kernel::TlsKey key) const;

 private:
  friend class ThreadImpersonation;
  kernel::Tid creator_ = kernel::kInvalidTid;
  std::vector<kernel::TlsKey> keys_;
  std::vector<void*> values_[kernel::kNumPersonas];
};

// RAII thread impersonation for graphics (paper §7.1's five-step procedure):
// saves the running thread's values of the context's keys in BOTH personas,
// installs the context's values and assumes the creator's identity. On
// destruction, the running thread's values, updates made while
// impersonating included, are written back into the context's store and
// the running thread's own values are restored. Only the running thread's
// TLS is read or written, never another live thread's.
//
// A no-op on the creator itself. Declined whole, with nothing installed,
// when the dispatch.impersonate probe fires or any step fails (a creator
// unknown to this session's kernel: sys_impersonate's kErrSrch).
class ThreadImpersonation {
 public:
  explicit ThreadImpersonation(ContextTls& context);
  ~ThreadImpersonation();
  ThreadImpersonation(const ThreadImpersonation&) = delete;
  ThreadImpersonation& operator=(const ThreadImpersonation&) = delete;

  bool active() const { return context_ != nullptr; }
  // The keys migrated in and out; empty unless active.
  const std::vector<kernel::TlsKey>& migrated_keys() const;

 private:
  // Puts the saved values back and drops the assumed identity.
  void restore();

  ContextTls* context_ = nullptr;  // set while active
  kernel::Tid self_ = kernel::kInvalidTid;
  // The running thread's own values, per persona.
  std::vector<void*> saved_[kernel::kNumPersonas];
};

}  // namespace cycada::core
