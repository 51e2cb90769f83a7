// Timing helpers shared by the instrumentation layer and the benches.
#pragma once

#include <chrono>
#include <cstdint>

namespace cycada {

// Monotonic nanoseconds since an arbitrary epoch.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace cycada
