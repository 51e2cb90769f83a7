#include "kernel/kernel.h"

#include <algorithm>
#include <thread>

#include "core/session.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/faultpoint.h"
#include "util/log.h"
#include "util/thread_role.h"

namespace cycada::kernel {

namespace {
// Thread-local cache of the calling thread's kernel state, invalidated when
// the kernel generation changes (i.e. after reset()) or when the thread
// rebinds to a different session (each session owns its own Kernel facet,
// so the cache is additionally keyed on the kernel's identity).
thread_local ThreadState* t_cached_state = nullptr;
thread_local std::uint64_t t_cached_generation = 0;
thread_local const Kernel* t_cached_kernel = nullptr;

// Generations are drawn from one process-wide source so every Kernel
// instance — and every reset of one — gets a value no other kernel ever
// had. Session churn recycles heap addresses: a new session's kernel can
// land exactly where a destroyed one lived, and a per-instance counter
// restarting at the same value would revalidate another thread's stale
// (t_cached_kernel, t_cached_generation) pair against freed ThreadState.
std::atomic<std::uint64_t> g_generation_source{1};

// Sink that keeps the trap-model busywork observable so the optimizer cannot
// delete it.
std::atomic<std::uint64_t> g_guard_sink{0};

// Linux -> Darwin errno translation for the values our syscalls produce.
// Many low errno values coincide; the ones that differ illustrate why the
// conversion step exists (diplomat step 9, paper §3).
long linux_errno_to_darwin(long linux_errno) {
  switch (linux_errno) {
    case 11: return 35;   // EAGAIN
    case 38: return 78;   // ENOSYS
    case 35: return 11;   // EDEADLK
    default: return linux_errno;
  }
}
}  // namespace

Kernel& Kernel::instance() {
  // The current session's kernel facet. Default-session facets are never
  // destroyed, preserving the old intentionally-immortal singleton lifetime
  // for unbound (single-session) callers.
  return core::Session::current().facet<Kernel>(+[] {
    Kernel* kernel = new Kernel();
    kernel->owner_ = core::Session::constructing_owner();
    return kernel;
  });
}

void Kernel::reset(TrapModel model) {
  // Acquired in lock-order: kernel-threads (40) before kernel-keys (50).
  std::lock_guard registry_lock(registry_mutex_);
  std::lock_guard keys_lock(keys_mutex_);
  threads_.clear();
  next_tid_.store(100);
  main_tid_.store(kInvalidTid);
  trap_model_ = model;
  key_in_use_.fill(false);
  next_key_probe_ = kFirstUserTlsKey;
  key_create_hooks_.clear();
  key_delete_hooks_.clear();
  next_hook_id_ = 1;

  foreign_sysno_table_.clear();
  for (std::int32_t i = 0; i < kNumSyscalls; ++i) {
    foreign_sysno_table_.emplace_back(
        foreign_syscall_number(static_cast<Sys>(i)), i);
  }
  std::sort(foreign_sysno_table_.begin(), foreign_sysno_table_.end());

  generation_.store(g_generation_source.fetch_add(1, std::memory_order_relaxed),
                    std::memory_order_release);
}

ThreadState& Kernel::current_thread() {
  if (t_cached_state != nullptr && t_cached_kernel == this &&
      t_cached_generation == generation_.load(std::memory_order_relaxed)) {
    return *t_cached_state;
  }
  return register_current_thread(Persona::kAndroid);
}

ThreadState& Kernel::register_current_thread(Persona initial) {
  const std::uint64_t generation = generation_.load(std::memory_order_relaxed);
  if (t_cached_state != nullptr && t_cached_kernel == this &&
      t_cached_generation == generation) {
    return *t_cached_state;  // already registered; initial persona ignored
  }
  // Registration is the kernel's cold entry point for a thread, which makes
  // it the natural place for the cross-session leak guard.
  core::Session::check_access(owner_, core::SessionLayer::kKernel);
  const Tid tid = next_tid_.fetch_add(1);
  Tid leader = main_tid_.load();
  if (leader == kInvalidTid) {
    // First registered thread becomes the thread-group leader ("main").
    Tid expected = kInvalidTid;
    if (main_tid_.compare_exchange_strong(expected, tid)) {
      leader = tid;
    } else {
      leader = expected;
    }
  }
  auto state = std::make_unique<ThreadState>(tid, leader, initial);
  ThreadState* raw = state.get();
  {
    std::lock_guard lock(registry_mutex_);
    threads_.emplace(tid, std::move(state));
  }
  t_cached_state = raw;
  t_cached_generation = generation;
  t_cached_kernel = this;
  return *raw;
}

ThreadState* Kernel::find_thread(Tid tid) {
  std::lock_guard lock(registry_mutex_);
  auto it = threads_.find(tid);
  return it == threads_.end() ? nullptr : it->second.get();
}

std::vector<Tid> Kernel::registered_tids() const {
  std::lock_guard lock(registry_mutex_);
  std::vector<Tid> tids;
  tids.reserve(threads_.size());
  for (const auto& [tid, state] : threads_) tids.push_back(tid);
  return tids;
}

void Kernel::set_persona_direct(Persona persona) {
  current_thread().persona_ = persona;
}

std::int32_t Kernel::translate_foreign_sysno(std::int32_t foreign) const {
  auto it = std::lower_bound(
      foreign_sysno_table_.begin(), foreign_sysno_table_.end(),
      std::make_pair(foreign, std::int32_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == foreign_sysno_table_.end() || it->first != foreign) return -1;
  return it->second;
}

std::uint64_t Kernel::return_to_user_guard(const ThreadState& thread) const {
  // Walk the thread's kernel-visible state and fold it into an integrity
  // word, modeling XNU's exit-path validation. The volume of state touched
  // is what makes the iPad trap measurably more expensive (Table 3).
  std::uint64_t acc = 0x9e3779b97f4a7c15ULL ^
                      static_cast<std::uint64_t>(thread.tid());
  // Validate the reserved (system) slots of each persona's TLS; walking all
  // 128 user slots would dwarf the real exit-path check this models.
  for (const TlsArea& area : thread.tls_) {
    for (int i = 0; i < kFirstUserTlsKey; ++i) {
      acc = (acc ^ reinterpret_cast<std::uintptr_t>(area.slots[i])) *
            0x100000001b3ULL;
    }
  }
  return acc;
}

long Kernel::trap(std::int32_t sysno, const SyscallArgs& args) {
  ThreadState& thread = current_thread();
  switch (trap_model_) {
    case TrapModel::kStockAndroid: {
      // Unmodified entry: bounds check + direct table dispatch.
      if (sysno < 0 || sysno >= kNumSyscalls) return kErrNoSys;
      return dispatch(thread, sysno, args);
    }
    case TrapModel::kCycada: {
      // Persona-aware entry: the kernel consults the calling thread's ABI
      // personality before dispatching (the +8% of Table 3); a foreign
      // caller additionally pays number translation and return conversion
      // (the +35%).
      if (thread.persona_ == Persona::kAndroid) {
        if (sysno < 0 || sysno >= kNumSyscalls) return kErrNoSys;
        return dispatch(thread, sysno, args);
      }
      const std::int32_t native = translate_foreign_sysno(sysno);
      if (native < 0) {
        thread.set_persona_errno(Persona::kIos, linux_errno_to_darwin(38));
        return -linux_errno_to_darwin(-kErrNoSys);
      }
      const long ret = dispatch(thread, native, args);
      if (ret < 0) {
        // Convert the Linux errno to the Darwin value the foreign caller
        // expects, preserving the negative-return convention.
        return -linux_errno_to_darwin(-ret);
      }
      return ret;
    }
    case TrapModel::kIpadIos: {
      // XNU numbering is native here; the sparse trap table still requires
      // a lookup, and the exit path runs return-to-user protection.
      const std::int32_t native = translate_foreign_sysno(sysno);
      if (native < 0) return kErrNoSys;
      const std::uint64_t entry_guard = return_to_user_guard(thread);
      const long ret = dispatch(thread, native, args);
      const std::uint64_t exit_guard = return_to_user_guard(thread);
      g_guard_sink.store(entry_guard ^ exit_guard, std::memory_order_relaxed);
      return ret;
    }
  }
  return kErrNoSys;
}

long Kernel::syscall(Sys sys, const SyscallArgs& args) {
  const ThreadState& thread = current_thread();
  std::int32_t sysno = static_cast<std::int32_t>(sys);
  if (trap_model_ == TrapModel::kIpadIos ||
      (trap_model_ == TrapModel::kCycada &&
       thread.persona() == Persona::kIos)) {
    sysno = foreign_syscall_number(sys);
  }
  return trap(sysno, args);
}

long Kernel::dispatch(ThreadState& thread, std::int32_t native_sysno,
                      const SyscallArgs& args) {
  switch (static_cast<Sys>(native_sysno)) {
    case Sys::kNull:
      return 0;
    case Sys::kGetTid:
      return thread.effective_tid_;
    case Sys::kSetPersona: {
      const auto persona = args.reg[0];
      if (persona >= kNumPersonas) return kErrInval;
      // Probed after validation so an injected fault models a transient
      // kernel-side failure of a well-formed crossing, not a bad argument.
      static util::FaultPoint& fault =
          util::FaultRegistry::instance().point("kernel.set_persona");
      if (fault.should_fail()) return kErrAgain;
      thread.persona_ = static_cast<Persona>(persona);
      return 0;
    }
    case Sys::kLocateTls:
      return sys_locate_tls(thread, args);
    case Sys::kPropagateTls:
      return sys_propagate_tls(thread, args);
    case Sys::kImpersonate: {
      const Tid target = static_cast<Tid>(args.reg[0]);
      if (target == kInvalidTid) {
        thread.effective_tid_ = thread.tid_;
        return 0;
      }
      if (find_thread(target) == nullptr) return kErrSrch;
      thread.effective_tid_ = target;
      return 0;
    }
    case Sys::kGetPid:
      return thread.tgid_;
    case Sys::kYield:
      std::this_thread::yield();
      return 0;
    case Sys::kCount:
      break;
  }
  return kErrNoSys;
}

long Kernel::sys_locate_tls(ThreadState& caller, const SyscallArgs& args) {
  const Tid tid = static_cast<Tid>(args.reg[0]);
  const auto persona_index = args.reg[1];
  const auto* keys = reinterpret_cast<const TlsKey*>(args.reg[2]);
  auto** values = reinterpret_cast<void**>(args.reg[3]);
  const int count = static_cast<int>(args.reg[4]);
  // An empty batch is legal (a thread with no graphics keys still
  // impersonates); the arrays are only dereferenced when count > 0.
  if (persona_index >= kNumPersonas || count < 0 ||
      (count > 0 && (keys == nullptr || values == nullptr))) {
    return kErrInval;
  }
  // The caller's own areas need no registry lookup: impersonation migrates
  // through them on every foreign-thread GL call.
  ThreadState* target = tid == caller.tid_ ? &caller : find_thread(tid);
  if (target == nullptr) return kErrSrch;
  std::lock_guard lock(target->tls_mutex_);
  const TlsArea& area = target->tls_[persona_index];
  for (int i = 0; i < count; ++i) {
    if (keys[i] < 0 || keys[i] >= kMaxTlsSlots) return kErrInval;
    values[i] = area.slots[keys[i]];
  }
  return 0;
}

long Kernel::sys_propagate_tls(ThreadState& caller, const SyscallArgs& args) {
  const Tid tid = static_cast<Tid>(args.reg[0]);
  const auto persona_index = args.reg[1];
  const auto* keys = reinterpret_cast<const TlsKey*>(args.reg[2]);
  auto* const* values = reinterpret_cast<void* const*>(args.reg[3]);
  const int count = static_cast<int>(args.reg[4]);
  // An empty batch is legal, mirroring sys_locate_tls.
  if (persona_index >= kNumPersonas || count < 0 ||
      (count > 0 && (keys == nullptr || values == nullptr))) {
    return kErrInval;
  }
  ThreadState* target = tid == caller.tid_ ? &caller : find_thread(tid);
  if (target == nullptr) return kErrSrch;
  std::lock_guard lock(target->tls_mutex_);
  TlsArea& area = target->tls_[persona_index];
  for (int i = 0; i < count; ++i) {
    if (keys[i] < 0 || keys[i] >= kMaxTlsSlots) return kErrInval;
    area.slots[keys[i]] = values[i];
  }
  return 0;
}

StatusOr<TlsKey> Kernel::tls_key_create() {
  core::Session::check_access(owner_, core::SessionLayer::kKernel);
  TlsKey key = kInvalidTlsKey;
  std::vector<std::pair<int, TlsKeyHook>> hooks;
  {
    std::lock_guard lock(keys_mutex_);
    for (int i = 0; i < kMaxTlsSlots - kFirstUserTlsKey; ++i) {
      TlsKey candidate = next_key_probe_;
      next_key_probe_ =
          (next_key_probe_ + 1 - kFirstUserTlsKey) %
              (kMaxTlsSlots - kFirstUserTlsKey) +
          kFirstUserTlsKey;
      if (!key_in_use_[candidate]) {
        key_in_use_[candidate] = true;
        key = candidate;
        break;
      }
    }
    if (key == kInvalidTlsKey) {
      return Status::resource_exhausted("out of TLS keys");
    }
    hooks = key_create_hooks_;
  }
  for (const auto& entry : hooks) entry.second(key);
  return key;
}

Status Kernel::tls_key_delete(TlsKey key) {
  std::vector<std::pair<int, TlsKeyHook>> hooks;
  {
    std::lock_guard lock(keys_mutex_);
    if (key < kFirstUserTlsKey || key >= kMaxTlsSlots || !key_in_use_[key]) {
      return Status::invalid_argument("bad TLS key");
    }
    key_in_use_[key] = false;
    hooks = key_delete_hooks_;
  }
  for (const auto& entry : hooks) entry.second(key);
  return Status::ok();
}

bool Kernel::tls_key_valid(TlsKey key) const {
  std::lock_guard lock(keys_mutex_);
  return key >= 0 && key < kMaxTlsSlots &&
         (key < kFirstUserTlsKey || key_in_use_[key]);
}

void* Kernel::tls_get(TlsKey key) {
  if (key < 0 || key >= kMaxTlsSlots) return nullptr;
  ThreadState& thread = current_thread();
  std::lock_guard lock(thread.tls_mutex_);
  return thread.tls_[static_cast<int>(thread.persona_)].slots[key];
}

void Kernel::tls_set(TlsKey key, void* value) {
  if (key < 0 || key >= kMaxTlsSlots) return;
  ThreadState& thread = current_thread();
  std::lock_guard lock(thread.tls_mutex_);
  thread.tls_[static_cast<int>(thread.persona_)].slots[key] = value;
}

int Kernel::add_key_create_hook(TlsKeyHook hook) {
  std::lock_guard lock(keys_mutex_);
  const int id = next_hook_id_++;
  key_create_hooks_.emplace_back(id, std::move(hook));
  return id;
}

int Kernel::add_key_delete_hook(TlsKeyHook hook) {
  std::lock_guard lock(keys_mutex_);
  const int id = next_hook_id_++;
  key_delete_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Kernel::remove_key_create_hook(int id) {
  std::lock_guard lock(keys_mutex_);
  std::erase_if(key_create_hooks_,
                [id](const auto& entry) { return entry.first == id; });
}

void Kernel::remove_key_delete_hook(int id) {
  std::lock_guard lock(keys_mutex_);
  std::erase_if(key_delete_hooks_,
                [id](const auto& entry) { return entry.first == id; });
}

// --- Free-function syscall wrappers ---------------------------------------

long sys_null() { return Kernel::instance().syscall(Sys::kNull); }

Tid sys_gettid() {
  return static_cast<Tid>(Kernel::instance().syscall(Sys::kGetTid));
}

long sys_set_persona(Persona persona) {
  TRACE_SCOPE("persona", persona == Persona::kIos ? "set_persona(ios)"
                                                  : "set_persona(android)");
  static trace::Counter& switches =
      trace::MetricsRegistry::instance().counter("persona.switches");
  switches.add();
  // GPU tile workers execute pre-resolved raster work only; a persona
  // crossing from one is a thread-ownership violation (docs/PIPELINE.md).
  // Counted here, turned into a blocking finding by the analyzer's
  // pipeline.worker-crossing rule.
  if (util::current_thread_role() == util::ThreadRole::kTileWorker) {
    static trace::Counter& worker_crossings =
        trace::MetricsRegistry::instance().counter(
            "pipeline.worker.crossings");
    worker_crossings.add();
  }
  SyscallArgs args;
  args.reg[0] = static_cast<std::uint64_t>(persona);
  return Kernel::instance().syscall(Sys::kSetPersona, args);
}

long sys_impersonate(Tid target) {
  SyscallArgs args;
  args.reg[0] = static_cast<std::uint64_t>(target);
  return Kernel::instance().syscall(Sys::kImpersonate, args);
}

long sys_locate_tls(Tid tid, Persona persona, const TlsKey* keys, void** values,
                    int count) {
  SyscallArgs args;
  args.reg[0] = static_cast<std::uint64_t>(tid);
  args.reg[1] = static_cast<std::uint64_t>(persona);
  args.reg[2] = reinterpret_cast<std::uint64_t>(keys);
  args.reg[3] = reinterpret_cast<std::uint64_t>(values);
  args.reg[4] = static_cast<std::uint64_t>(count);
  return Kernel::instance().syscall(Sys::kLocateTls, args);
}

long sys_propagate_tls(Tid tid, Persona persona, const TlsKey* keys,
                       void* const* values, int count) {
  SyscallArgs args;
  args.reg[0] = static_cast<std::uint64_t>(tid);
  args.reg[1] = static_cast<std::uint64_t>(persona);
  args.reg[2] = reinterpret_cast<std::uint64_t>(keys);
  args.reg[3] = reinterpret_cast<std::uint64_t>(values);
  args.reg[4] = static_cast<std::uint64_t>(count);
  return Kernel::instance().syscall(Sys::kPropagateTls, args);
}

// Bounded retry for persona crossings; on exhaustion the switch is forced
// through the non-injectable direct path so a fault can never strand a
// thread in the wrong persona (or leak a crossing on the restore side).
bool sys_set_persona_resilient(Persona target, const char* degrade_counter) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (attempt > 0) std::this_thread::yield();
    if (sys_set_persona(target) == 0) return true;
  }
  Kernel::instance().set_persona_direct(target);
  trace::MetricsRegistry::instance().counter(degrade_counter).add();
  return false;
}

ScopedPersona::ScopedPersona(Persona target)
    : previous_(Kernel::instance().current_thread().persona()),
      switched_(previous_ != target) {
  if (switched_) {
    sys_set_persona_resilient(target, "degrade.persona_forced_enter");
  }
}

ScopedPersona::~ScopedPersona() {
  if (switched_) {
    sys_set_persona_resilient(previous_, "degrade.persona_forced_restore");
  }
}

}  // namespace cycada::kernel
