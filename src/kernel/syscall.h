// Syscall numbering for both ABI personalities.
//
// The domestic (Android/Linux) numbers are the kernel's native dispatch
// indices. The foreign (iOS/XNU) personality uses different numbers that the
// Cycada trap path translates through a table, mirroring how the real system
// multiplexes two kernel ABIs on one trap entry (paper §3, Table 3).
#pragma once

#include <array>
#include <cstdint>

namespace cycada::kernel {

// Native (domestic) syscall indices.
enum class Sys : std::int32_t {
  kNull = 0,          // no-op, used by the lmbench-style null-syscall bench
  kGetTid = 1,        // returns the caller's (effective) tid
  kSetPersona = 2,    // switch calling thread's persona (arg0: Persona)
  kLocateTls = 3,     // read TLS values from any persona of any thread
  kPropagateTls = 4,  // write TLS values into any persona of any thread
  kImpersonate = 5,   // set/clear the caller's effective tid
  kGetPid = 6,
  kYield = 7,
  kCount,
};

inline constexpr std::int32_t kNumSyscalls =
    static_cast<std::int32_t>(Sys::kCount);

// The foreign personality's numbering is intentionally different (XNU's BSD
// syscall numbers do not match Linux). Foreign user code traps with these
// values; the Cycada entry path translates them to the native Sys index.
inline constexpr std::int32_t kForeignSyscallBase = 0x2000000;  // Mach-style

constexpr std::int32_t foreign_syscall_number(Sys sys) {
  // Foreign numbers are sparse: spread them so a lookup table (rather than a
  // subtraction) is genuinely required, as on real XNU.
  return kForeignSyscallBase + 7 + static_cast<std::int32_t>(sys) * 13;
}

// Arguments / result of a trap. A fixed small register file, like a real
// syscall ABI.
struct SyscallArgs {
  std::array<std::uint64_t, 6> reg{};
};

// Error returns follow the Linux convention: negative errno values.
inline constexpr long kErrInval = -22;   // EINVAL
inline constexpr long kErrSrch = -3;     // ESRCH
inline constexpr long kErrNoSys = -38;   // ENOSYS
inline constexpr long kErrPerm = -1;     // EPERM
inline constexpr long kErrAgain = -11;   // EAGAIN (injected transient failure)

}  // namespace cycada::kernel
