#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "util/clock.h"
#include "util/lock_order.h"

namespace cycada {
namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
util::OrderedMutex g_emit_mutex{util::LockLevel::kLogEmit, "log.emit"};

constexpr const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarn: return "W";
    case LogLevel::kError: return "E";
  }
  return "?";
}

// Monotonic epoch captured on first emission; log timestamps are seconds
// since then, on the trace recorder's clock.
std::int64_t log_epoch_ns() {
  static const std::int64_t epoch = now_ns();
  return epoch;
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

int thread_ordinal() {
  static std::atomic<int> next{1};
  thread_local const int ordinal = next.fetch_add(1);
  return ordinal;
}

namespace detail {
void log_emit(LogLevel level, std::string_view message) {
  // Capture the epoch before sampling the clock: with the subtraction's
  // unspecified evaluation order the first line could print a tiny
  // negative timestamp.
  const std::int64_t epoch_ns = log_epoch_ns();
  const double seconds = static_cast<double>(now_ns() - epoch_ns) * 1e-9;
  const int ordinal = thread_ordinal();
  std::lock_guard lock(g_emit_mutex);
  std::fprintf(stderr, "[cycada %s %11.6f t%02d] %.*s\n", level_tag(level),
               seconds, ordinal, static_cast<int>(message.size()),
               message.data());
}
}  // namespace detail

}  // namespace cycada
