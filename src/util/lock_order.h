// Lock-order annotation for the persona/diplomat/linker/trace lock nests.
//
// Every long-lived mutex in src/core, src/kernel, src/linker and src/trace
// is wrapped in an OrderedMutex carrying a LockLevel: a total order in which
// locks may be nested (a thread may only acquire a level strictly greater
// than every level it already holds; recursive mutexes may re-acquire
// themselves). When recording is enabled (debug runs, cycada_check, tests)
// each acquisition appends held-level -> new-level edges to a global
// acquisition graph; `tools/cycada_check` and `analyze::check_lock_order()`
// then fail on order inversions and on cycles in the observed graph.
//
// The hot-path cost with recording off is one relaxed atomic load and a
// branch per lock/unlock, so the wrappers stay on permanently.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace cycada::util {

// The total lock order, lowest acquired first. Gaps leave room for new
// subsystems. Levels, not mutex instances, are the unit of ordering: two
// distinct mutexes on the same level must never be held together.
enum class LockLevel : int {
  kDegradedEgl = 5,        // ios_gl degraded-mode serialization (outermost)
  kLinker = 10,            // linker::Linker::mutex_ (recursive: dep closure)
  kDiplomatRegistry = 20,  // core::DiplomatRegistry::mutex_
  kTlsTracker = 30,        // core::GraphicsTlsTracker::mutex_
  kKernelThreads = 40,     // kernel::Kernel::registry_mutex_
  kKernelKeys = 50,        // kernel::Kernel::keys_mutex_
  kThreadTls = 60,         // kernel::ThreadState::tls_mutex_
  kFaultRegistry = 64,     // util::FaultRegistry::mutex_
  kWatchdog = 66,          // util::Watchdog::threads_mutex_ (slot registry)
  kSessionRegistry = 68,   // core::SessionRegistry::mutex_ (live sessions)
  kMetrics = 70,           // trace::MetricsRegistry::mutex_
  kLogEmit = 90,           // util/log.cpp emission mutex
};

const char* lock_level_name(int level);

// Global acquisition graph: one edge per observed (held level -> acquired
// level) pair, with names and a hit count. Recording is off by default.
class LockOrderGraph {
 public:
  struct Edge {
    int from_level;
    int to_level;
    std::string from_name;
    std::string to_name;
    std::uint64_t count;
  };

  // Per-level acquisition tally (recorded alongside edges). Unlike edges —
  // which need a lock already held — every acquisition counts, so a zero
  // here proves a level was never locked during the recorded window. The
  // dispatch benches use this to verify the diplomat read path is
  // mutex-free (docs/DISPATCH.md).
  struct LevelCount {
    int level;
    std::string name;
    std::uint64_t count;
  };

  static LockOrderGraph& instance();

  void set_recording(bool enabled);
  bool recording() const;

  std::vector<Edge> edges() const;
  std::vector<LevelCount> acquisition_counts() const;
  // Acquisitions recorded for one level (0 when never acquired).
  std::uint64_t acquisitions(LockLevel level) const;
  // Annotated locks currently held across all threads (recorded
  // acquisitions minus releases). Nonzero at a quiescent point means some
  // path — e.g. an injected-fault early return — leaked a lock;
  // analyze::check_fault_safety() asserts this is zero.
  std::int64_t held_count() const;
  // Edges acquired against the static order (from_level >= to_level).
  std::vector<Edge> inversions() const;
  // Cycles among levels in the observed graph, each reported as the level
  // names along the cycle. A cycle means two threads can deadlock even if
  // no single acquisition inverted the order relative to its direct holder.
  std::vector<std::vector<std::string>> find_cycles() const;

  void reset();

 private:
  LockOrderGraph() = default;
};

namespace lock_detail {
void note_acquired(const void* mutex, int level, const char* name,
                   bool recursive);
void note_released(const void* mutex);
}  // namespace lock_detail

// A mutex annotated with its position in the total lock order. Meets
// Lockable, so std::lock_guard / std::unique_lock work unchanged.
template <typename MutexT, bool kRecursive>
class AnnotatedMutex {
 public:
  AnnotatedMutex(LockLevel level, const char* name)
      : level_(static_cast<int>(level)), name_(name) {}
  AnnotatedMutex(const AnnotatedMutex&) = delete;
  AnnotatedMutex& operator=(const AnnotatedMutex&) = delete;

  void lock() {
    if (LockOrderGraph::instance().recording()) {
      // Record intent before blocking so an actual deadlock still leaves
      // the offending edge in the graph.
      lock_detail::note_acquired(this, level_, name_, kRecursive);
      mutex_.lock();
      return;
    }
    mutex_.lock();
  }

  bool try_lock() {
    if (!mutex_.try_lock()) return false;
    if (LockOrderGraph::instance().recording()) {
      lock_detail::note_acquired(this, level_, name_, kRecursive);
    }
    return true;
  }

  void unlock() {
    mutex_.unlock();
    lock_detail::note_released(this);
  }

  int level() const { return level_; }
  const char* name() const { return name_; }

 private:
  MutexT mutex_;
  const int level_;
  const char* const name_;
};

using OrderedMutex = AnnotatedMutex<std::mutex, false>;
using OrderedRecursiveMutex = AnnotatedMutex<std::recursive_mutex, true>;

}  // namespace cycada::util
