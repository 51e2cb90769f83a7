// The simulated Cycada kernel.
//
// This models the pieces of the paper's modified Android kernel that the
// graphics bridge depends on:
//   * per-thread dual personas (Android/iOS) with separate TLS areas,
//   * the set_persona / locate_tls / propagate_tls syscalls (paper §3, §7.1),
//   * an effective-tid facility used by thread impersonation (paper §7),
//   * a configurable trap entry path reproducing the Table 3 cost ordering:
//     stock Android < Cycada (Android persona) < Cycada (iOS persona, which
//     pays syscall-number translation and return conversion) < iPad iOS
//     (which pays return-to-user protection logic).
//
// All user-level components (libc shim, diplomats, GL libraries) enter the
// kernel exclusively through Kernel::trap(), so trap costs appear in every
// higher-level measurement exactly as in the real system.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "kernel/persona.h"
#include "kernel/syscall.h"
#include "util/lock_order.h"
#include "util/status.h"

namespace cycada::core {
class Session;
}  // namespace cycada::core

namespace cycada::kernel {

// Slot-array TLS, one area per persona. Matches the paper's description of
// TLS as "an array of void pointers unique to each persona of thread" (§7.1).
inline constexpr int kMaxTlsSlots = 128;

using TlsKey = std::int32_t;
inline constexpr TlsKey kInvalidTlsKey = -1;
// Slots below this index are reserved for system use (errno and friends).
inline constexpr TlsKey kFirstUserTlsKey = 8;

struct TlsArea {
  std::array<void*, kMaxTlsSlots> slots{};
};

// Which trap entry path the kernel models (Table 3 rows).
enum class TrapModel {
  kStockAndroid,  // unmodified Linux entry
  kCycada,        // persona-aware entry (Cycada Android / Cycada iOS rows)
  kIpadIos,       // XNU entry with return-to-user protection logic
};

class Kernel;

// Kernel-side state of one registered thread.
class ThreadState {
 public:
  ThreadState(Tid tid, Tid tgid, Persona initial)
      : tid_(tid), tgid_(tgid), persona_(initial), effective_tid_(tid) {}

  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;

  Tid tid() const { return tid_; }
  Tid tgid() const { return tgid_; }
  Persona persona() const { return persona_; }
  // The persona the thread registered with. A quiescent thread whose
  // current persona differs has leaked a crossing somewhere (the
  // fault-safety analyzer checks exactly this).
  Persona initial_persona() const { return initial_persona_; }
  // The identity the thread presents to libraries; differs from tid() while
  // the thread impersonates another thread.
  Tid effective_tid() const { return effective_tid_; }
  // Per-persona errno, converted across the ABI boundary by diplomats.
  long persona_errno(Persona persona) const {
    return errno_[static_cast<int>(persona)];
  }
  void set_persona_errno(Persona persona, long value) {
    errno_[static_cast<int>(persona)] = value;
  }

 private:
  friend class Kernel;

  const Tid tid_;
  const Tid tgid_;
  Persona persona_;
  const Persona initial_persona_ = persona_;
  Tid effective_tid_;
  std::array<long, kNumPersonas> errno_{};
  std::array<TlsArea, kNumPersonas> tls_;
  // Guards TLS areas for cross-thread access via locate/propagate_tls.
  mutable util::OrderedMutex tls_mutex_{util::LockLevel::kThreadTls,
                                        "kernel.thread_tls"};
};

// Notification hooks invoked on TLS key creation/deletion — the mechanism
// the paper adds to Android's libc with a "trivial 12 line patch" (§7.1).
using TlsKeyHook = std::function<void(TlsKey)>;

class Kernel {
 public:
  static Kernel& instance();

  // Drops all threads, keys and hooks and installs the given trap model.
  // Only safe while no other registered thread is running (tests/benches).
  void reset(TrapModel model = TrapModel::kCycada);

  TrapModel trap_model() const { return trap_model_; }
  void set_trap_model(TrapModel model) { trap_model_ = model; }

  // Lazily registers the calling OS thread (Android persona by default).
  ThreadState& current_thread();
  ThreadState& register_current_thread(Persona initial);
  // Looks up a thread by kernel tid; nullptr when unknown.
  ThreadState* find_thread(Tid tid);
  // Tids of every registered thread (for quiescent-point audits).
  std::vector<Tid> registered_tids() const;
  // The process "main" thread (thread-group leader) tid.
  Tid main_tid() const { return main_tid_.load(); }

  // --- Trap entry -------------------------------------------------------
  // Full syscall path: entry-model costs, (foreign) number translation,
  // dispatch, return conversion. `sysno` is in the numbering of the calling
  // thread's current persona.
  long trap(std::int32_t sysno, const SyscallArgs& args);

  // Convenience wrapper: issues `sys` in the numbering of the current
  // persona (so callers pay the authentic foreign-translation cost when in
  // the iOS persona).
  long syscall(Sys sys, const SyscallArgs& args = {});

  // Last-resort persona restore that bypasses the trap path (and therefore
  // the kernel.set_persona fault point). Recovery code uses this after
  // bounded retries so an injected fault can never leave a thread stuck in
  // the wrong persona; normal crossings must go through sys_set_persona.
  void set_persona_direct(Persona persona);

  // --- TLS keys (shared by both personas' libc, as in Cycada) -----------
  StatusOr<TlsKey> tls_key_create();
  Status tls_key_delete(TlsKey key);
  bool tls_key_valid(TlsKey key) const;
  // Get/set in the *current* persona's area of the current thread.
  void* tls_get(TlsKey key);
  void tls_set(TlsKey key, void* value);

  int add_key_create_hook(TlsKeyHook hook);
  int add_key_delete_hook(TlsKeyHook hook);
  void remove_key_create_hook(int id);
  void remove_key_delete_hook(int id);

  // Generation counter; bumped by reset() to invalidate thread-local caches.
  std::uint64_t generation() const { return generation_.load(); }

  // The session this kernel instance belongs to (nullptr only for kernels
  // constructed outside the session facet machinery, e.g. in unit tests
  // that instantiate subsystems directly).
  core::Session* owner() const { return owner_; }

 private:
  friend class core::Session;
  Kernel() { reset(); }

  long dispatch(ThreadState& thread, std::int32_t native_sysno,
                const SyscallArgs& args);
  std::int32_t translate_foreign_sysno(std::int32_t foreign) const;
  // Models XNU's return-to-user protection: integrity word over the thread
  // state (paper §9: "protection logic guarding against return-to-user
  // attacks" explains the iPad's higher trap cost).
  std::uint64_t return_to_user_guard(const ThreadState& thread) const;

  long sys_locate_tls(ThreadState& caller, const SyscallArgs& args);
  long sys_propagate_tls(ThreadState& caller, const SyscallArgs& args);

  TrapModel trap_model_ = TrapModel::kCycada;
  std::atomic<std::uint64_t> generation_{1};
  core::Session* owner_ = nullptr;  // set in instance()'s facet thunk

  mutable util::OrderedMutex registry_mutex_{util::LockLevel::kKernelThreads,
                                             "kernel.threads"};
  std::unordered_map<Tid, std::unique_ptr<ThreadState>> threads_;
  std::atomic<Tid> next_tid_{100};
  std::atomic<Tid> main_tid_{kInvalidTid};

  // Sorted (foreign, native) pairs; binary-searched on every foreign trap.
  std::vector<std::pair<std::int32_t, std::int32_t>> foreign_sysno_table_;

  mutable util::OrderedMutex keys_mutex_{util::LockLevel::kKernelKeys,
                                         "kernel.keys"};
  std::array<bool, kMaxTlsSlots> key_in_use_{};
  TlsKey next_key_probe_ = kFirstUserTlsKey;
  std::vector<std::pair<int, TlsKeyHook>> key_create_hooks_;
  std::vector<std::pair<int, TlsKeyHook>> key_delete_hooks_;
  int next_hook_id_ = 1;
};

// Syscall wrappers used throughout user-level code. All go through
// Kernel::trap() on the current persona's numbering.
long sys_null();
Tid sys_gettid();
long sys_set_persona(Persona persona);
// Bounded-retry persona switch for recovery paths: retries the syscall a
// few times (yield between attempts), then forces the crossing through
// Kernel::set_persona_direct and bumps `degrade_counter`. Returns true when
// the plain syscall path succeeded without forcing.
bool sys_set_persona_resilient(Persona persona, const char* degrade_counter);
// Sets (or clears, with kInvalidTid) the caller's effective tid.
long sys_impersonate(Tid target);
// Reads `count` TLS values of (`tid`, `persona`) into `values`.
long sys_locate_tls(Tid tid, Persona persona, const TlsKey* keys, void** values,
                    int count);
// Writes `count` TLS values into (`tid`, `persona`).
long sys_propagate_tls(Tid tid, Persona persona, const TlsKey* keys,
                       void* const* values, int count);

// RAII persona switch: issues set_persona on construction and restores the
// previous persona on destruction. The building block of diplomats.
class ScopedPersona {
 public:
  explicit ScopedPersona(Persona target);
  ~ScopedPersona();
  ScopedPersona(const ScopedPersona&) = delete;
  ScopedPersona& operator=(const ScopedPersona&) = delete;

 private:
  Persona previous_;
  bool switched_;
};

}  // namespace cycada::kernel
