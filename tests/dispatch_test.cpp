// Lock-free dispatch tests (docs/DISPATCH.md): the insert-only diplomat
// name index under concurrent readers and writers, the steady-state
// zero-lock guarantee the Table 3 microbench also asserts, and the
// lock-free read paths of the TLS tracker. Sized to stay fast under TSan
// (scripts/check.sh builds this suite with -DCYCADA_TSAN=ON).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/diplomat.h"
#include "core/impersonation.h"
#include "kernel/kernel.h"
#include "util/lock_order.h"

namespace cycada {
namespace {

using core::DiplomatEntry;
using core::DiplomatId;
using core::DiplomatPattern;
using core::DiplomatRegistry;

constexpr const char* kNames[] = {"dispatch.a", "dispatch.b", "dispatch.c",
                                  "dispatch.d", "dispatch.e", "dispatch.f",
                                  "dispatch.g", "dispatch.h"};
constexpr int kNameCount = 8;

// --- Entry stability --------------------------------------------------------

TEST(DispatchTest, EntriesAndIdsSurviveRepublication) {
  DiplomatRegistry& registry = DiplomatRegistry::instance();
  DiplomatEntry* before[kNameCount];
  DiplomatId ids[kNameCount];
  for (int i = 0; i < kNameCount; ++i) {
    before[i] = &registry.entry(kNames[i], DiplomatPattern::kDirect);
    ids[i] = before[i]->id;
    ASSERT_NE(ids[i], core::kInvalidDiplomatId);
  }
  // Register many more names, then verify every cached pointer and id still
  // resolves to the same entry (the paper's step-1 cache must never be
  // invalidated by later registrations).
  for (int i = 0; i < 64; ++i) {
    (void)registry.entry("dispatch.churn." + std::to_string(i),
                         DiplomatPattern::kDirect);
  }
  for (int i = 0; i < kNameCount; ++i) {
    EXPECT_EQ(&registry.entry(kNames[i], DiplomatPattern::kDirect), before[i]);
    EXPECT_EQ(&registry.entry_by_id(ids[i]), before[i]);
    EXPECT_EQ(registry.resolve(kNames[i], DiplomatPattern::kDirect), ids[i]);
  }
  // Every id resolves to the entry that carries it, the index finds that
  // same entry by name, and a name never registered stays unknown.
  for (int i = 0; i < 64; ++i) {
    const std::string name = "dispatch.churn." + std::to_string(i);
    const DiplomatId id = registry.resolve(name, DiplomatPattern::kDirect);
    EXPECT_EQ(registry.entry_by_id(id).id, id);
    EXPECT_EQ(registry.find(name), &registry.entry_by_id(id));
  }
  EXPECT_EQ(registry.find("dispatch.never-registered"), nullptr);
}

// --- Readers vs. a registering writer ---------------------------------------

TEST(DispatchTest, ConcurrentLookupsSurviveConcurrentRegistration) {
  kernel::Kernel::instance().reset();
  DiplomatRegistry& registry = DiplomatRegistry::instance();
  DiplomatEntry* expected[kNameCount];
  for (int i = 0; i < kNameCount; ++i) {
    expected[i] = &registry.entry(kNames[i], DiplomatPattern::kDirect);
  }
  const DiplomatId id0 = registry.resolve(kNames[0], DiplomatPattern::kDirect);

  constexpr int kReaders = 4;
  constexpr int kIterations = 20000;
  constexpr int kWriterNames = 400;
  std::atomic<bool> start{false};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      kernel::Kernel::instance().register_current_thread(
          kernel::Persona::kIos);
      while (!start.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kIterations; ++i) {
        const int n = (i + t) % kNameCount;
        if (&registry.entry(kNames[n], DiplomatPattern::kDirect) !=
            expected[n]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (&registry.entry_by_id(id0) != expected[0]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // One exact-count diplomat call per reader to prove the entry the
      // lock-free path returned is the live, counting one.
      core::diplomat_call(*expected[t % kNameCount], {}, [] {});
    });
  }
  std::thread writer([&] {
    while (!start.load(std::memory_order_acquire)) {}
    for (int i = 0; i < kWriterNames; ++i) {
      (void)registry.entry("dispatch.writer." + std::to_string(i),
                           DiplomatPattern::kIndirect);
    }
  });
  start.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  writer.join();

  EXPECT_EQ(mismatches.load(), 0);
  for (int i = 0; i < kWriterNames; ++i) {
    const std::string name = "dispatch.writer." + std::to_string(i);
    EXPECT_EQ(registry.entry(name, DiplomatPattern::kIndirect).name, name);
  }
}

// --- Writers racing on one name ----------------------------------------------

TEST(DispatchTest, ConcurrentRegistrationOfOneNameYieldsOneEntry) {
  DiplomatRegistry& registry = DiplomatRegistry::instance();
  constexpr int kThreads = 4;
  constexpr int kRacedNames = 128;
  std::atomic<bool> start{false};
  std::vector<std::vector<DiplomatEntry*>> seen(
      kThreads, std::vector<DiplomatEntry*>(kRacedNames, nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int k = 0; k < kRacedNames; ++k) {
        seen[t][k] = &registry.entry("dispatch.race." + std::to_string(k),
                                     DiplomatPattern::kDirect);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();

  std::vector<DiplomatId> ids;
  for (int k = 0; k < kRacedNames; ++k) {
    const std::string name = "dispatch.race." + std::to_string(k);
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][k], seen[0][k]);
    EXPECT_EQ(seen[0][k]->name, name);
    EXPECT_EQ(registry.entry_by_id(seen[0][k]->id).name, name);
    ids.push_back(seen[0][k]->id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

// --- Capacity ---------------------------------------------------------------

TEST(DispatchDeathTest, RegistrationPastCapacityAborts) {
  // Ids index a fixed segment array; filling the registry must end in a
  // loud abort in every build type, never an out-of-bounds write.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        DiplomatRegistry& registry = DiplomatRegistry::instance();
        for (std::size_t i = 0; i <= DiplomatRegistry::kCapacity; ++i) {
          (void)registry.entry("dispatch.fill." + std::to_string(i),
                               DiplomatPattern::kDirect);
        }
      },
      "diplomat registry full");
}

// --- Steady-state lock-freedom ----------------------------------------------

TEST(DispatchTest, SteadyStateLookupsNeverTakeTheRegistryMutex) {
  DiplomatRegistry& registry = DiplomatRegistry::instance();
  for (const char* name : kNames) {
    (void)registry.entry(name, DiplomatPattern::kDirect);
  }
  const DiplomatId id = registry.resolve(kNames[0], DiplomatPattern::kDirect);

  util::LockOrderGraph& graph = util::LockOrderGraph::instance();
  graph.set_recording(false);
  graph.reset();
  graph.set_recording(true);
  for (int i = 0; i < 10000; ++i) {
    (void)registry.entry(kNames[i % kNameCount], DiplomatPattern::kDirect);
    (void)registry.entry_by_id(id);
  }
  EXPECT_EQ(graph.acquisitions(util::LockLevel::kDiplomatRegistry), 0u);

  // A genuinely novel name is the slow path and must take the writer mutex
  // (proving the tally actually observes this level).
  (void)registry.entry("dispatch.novel-after-steady",
                       DiplomatPattern::kDirect);
  EXPECT_GT(graph.acquisitions(util::LockLevel::kDiplomatRegistry), 0u);
  graph.set_recording(false);
  graph.reset();
}

TEST(DispatchTest, MismatchedPatternLookupsKeepCounting) {
  DiplomatRegistry& registry = DiplomatRegistry::instance();
  DiplomatEntry& entry =
      registry.entry("dispatch.conflicted", DiplomatPattern::kDirect);
  const std::uint64_t base = entry.contract.pattern_conflicts.load();
  // The per-thread cache must not swallow mismatched lookups: each one goes
  // through the table path and is counted, like the locked design did.
  (void)registry.entry("dispatch.conflicted", DiplomatPattern::kMulti);
  (void)registry.entry("dispatch.conflicted", DiplomatPattern::kMulti);
  (void)registry.entry("dispatch.conflicted", DiplomatPattern::kMulti);
  EXPECT_EQ(entry.contract.pattern_conflicts.load(), base + 3);
}

// --- GraphicsTlsTracker slot table under concurrency -------------------------

TEST(DispatchTest, TlsTrackerMembershipIsCoherentUnderConcurrency) {
  core::GraphicsTlsTracker& tracker = core::GraphicsTlsTracker::instance();
  tracker.reset();

  constexpr int kWriterKeys = 16;  // keys 1..16 toggled by the writer
  constexpr kernel::TlsKey kStableKey = 40;
  tracker.add_well_known_key(kStableKey);

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // The stable key must be visible on both read paths at all times,
        // whatever the writer does to the other slots.
        if (!tracker.is_graphics_key(kStableKey)) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        const std::vector<kernel::TlsKey> keys = tracker.graphics_keys();
        bool found = false;
        for (const kernel::TlsKey key : keys) found |= (key == kStableKey);
        if (!found) errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 300; ++round) {
      for (kernel::TlsKey key = 1; key <= kWriterKeys; ++key) {
        tracker.add_well_known_key(key);
      }
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(errors.load(), 0);
  const std::vector<kernel::TlsKey> final_keys = tracker.graphics_keys();
  EXPECT_EQ(final_keys.size(), static_cast<std::size_t>(kWriterKeys + 1));
  for (kernel::TlsKey key = 1; key <= kWriterKeys; ++key) {
    EXPECT_TRUE(tracker.is_graphics_key(key));
  }
  EXPECT_FALSE(tracker.is_graphics_key(kStableKey + 1));
  tracker.reset();
  EXPECT_FALSE(tracker.is_graphics_key(kStableKey));
}

}  // namespace
}  // namespace cycada
