#include "core/diplomat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/classification.h"
#include "core/impersonation.h"

namespace cycada::core {
namespace {

class DiplomatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel::Kernel::instance().reset(kernel::TrapModel::kCycada);
    DiplomatRegistry::instance().reset();
    GraphicsTlsTracker::instance().reset();
    kernel::Kernel::instance().register_current_thread(
        kernel::Persona::kIos);
  }
};

TEST_F(DiplomatTest, CallRunsDomesticInAndroidPersona) {
  DiplomatEntry& entry =
      DiplomatRegistry::instance().entry("glClear", DiplomatPattern::kDirect);
  kernel::Persona seen = kernel::Persona::kIos;
  diplomat_call(entry, {}, [&] {
    seen = kernel::Kernel::instance().current_thread().persona();
  });
  EXPECT_EQ(seen, kernel::Persona::kAndroid);
  // Back in the foreign persona after the call.
  EXPECT_EQ(kernel::Kernel::instance().current_thread().persona(),
            kernel::Persona::kIos);
  EXPECT_EQ(entry.calls.load(), 1u);
}

TEST_F(DiplomatTest, CallReturnsDomesticValue) {
  DiplomatEntry& entry = DiplomatRegistry::instance().entry(
      "glGetError", DiplomatPattern::kDirect);
  const int value = diplomat_call(entry, {}, [] { return 42; });
  EXPECT_EQ(value, 42);
}

TEST_F(DiplomatTest, PreludeAndPostludeRunInForeignPersona) {
  DiplomatEntry& entry = DiplomatRegistry::instance().entry(
      "glFlush", DiplomatPattern::kDirect);
  std::vector<std::pair<std::string, kernel::Persona>> trace;
  DiplomatHooks hooks;
  hooks.prelude = [&] {
    trace.emplace_back("prelude",
                       kernel::Kernel::instance().current_thread().persona());
  };
  hooks.postlude = [&] {
    trace.emplace_back("postlude",
                       kernel::Kernel::instance().current_thread().persona());
  };
  diplomat_call(entry, hooks, [&] {
    trace.emplace_back("domestic",
                       kernel::Kernel::instance().current_thread().persona());
  });
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], (std::pair<std::string, kernel::Persona>{
                          "prelude", kernel::Persona::kIos}));
  EXPECT_EQ(trace[1], (std::pair<std::string, kernel::Persona>{
                          "domestic", kernel::Persona::kAndroid}));
  EXPECT_EQ(trace[2], (std::pair<std::string, kernel::Persona>{
                          "postlude", kernel::Persona::kIos}));
}

TEST_F(DiplomatTest, ErrnoIsConvertedToDarwin) {
  DiplomatEntry& entry =
      DiplomatRegistry::instance().entry("open", DiplomatPattern::kDirect);
  diplomat_call(entry, {}, [] {
    kernel::libc::set_errno(11);  // Linux EAGAIN
  });
  // The foreign persona sees Darwin EAGAIN (35).
  EXPECT_EQ(kernel::libc::get_errno(), 35);
}

TEST_F(DiplomatTest, NestedDiplomatsRestorePersona) {
  DiplomatEntry& outer =
      DiplomatRegistry::instance().entry("outer", DiplomatPattern::kMulti);
  DiplomatEntry& inner =
      DiplomatRegistry::instance().entry("inner", DiplomatPattern::kDirect);
  diplomat_call(outer, {}, [&] {
    // Domestic code invoking another diplomat: caller persona is Android
    // and must be restored to Android, not blindly to iOS.
    diplomat_call(inner, {}, [] {});
    EXPECT_EQ(kernel::Kernel::instance().current_thread().persona(),
              kernel::Persona::kAndroid);
  });
  EXPECT_EQ(kernel::Kernel::instance().current_thread().persona(),
            kernel::Persona::kIos);
}

TEST_F(DiplomatTest, ProfilingRecordsTime) {
  DiplomatRegistry::instance().set_profiling(true);
  DiplomatEntry& entry = DiplomatRegistry::instance().entry(
      "glDrawArrays", DiplomatPattern::kDirect);
  diplomat_call(entry, {}, [] {
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  });
  EXPECT_EQ(entry.calls.load(), 1u);
  EXPECT_GT(entry.total_ns(), 0);
  // Entries are process-lifetime, so other tests' entries may also be in
  // the snapshot; find ours rather than assuming it is alone.
  auto snapshot = DiplomatRegistry::instance().snapshot();
  auto it = std::find_if(snapshot.begin(), snapshot.end(), [](const auto& s) {
    return s.name == "glDrawArrays";
  });
  ASSERT_NE(it, snapshot.end());
  EXPECT_GT(it->p50_ns, 0);
  EXPECT_GE(it->p99_ns, it->p50_ns);
  DiplomatRegistry::instance().clear_stats();
  for (const auto& s : DiplomatRegistry::instance().snapshot()) {
    EXPECT_EQ(s.calls, 0u);
  }
}

TEST_F(DiplomatTest, CallCountsIdenticalWithProfilingOnAndOff) {
  DiplomatEntry& entry = DiplomatRegistry::instance().entry(
      "glFinish", DiplomatPattern::kDirect);
  DiplomatRegistry::instance().set_profiling(false);
  for (int i = 0; i < 3; ++i) diplomat_call(entry, {}, [] {});
  EXPECT_EQ(entry.calls.load(), 3u);
  EXPECT_EQ(entry.latency.count(), 0u);  // no latency samples when off
  DiplomatRegistry::instance().set_profiling(true);
  for (int i = 0; i < 3; ++i) diplomat_call(entry, {}, [] {});
  EXPECT_EQ(entry.calls.load(), 6u);
  EXPECT_EQ(entry.latency.count(), 3u);
}

TEST_F(DiplomatTest, RegistryDeduplicatesEntries) {
  DiplomatEntry& a =
      DiplomatRegistry::instance().entry("glClear", DiplomatPattern::kDirect);
  DiplomatEntry& b =
      DiplomatRegistry::instance().entry("glClear", DiplomatPattern::kDirect);
  EXPECT_EQ(&a, &b);
}

class TrackerTest : public DiplomatTest {};

TEST_F(TrackerTest, OnlyGatedKeysAreGraphicsKeys) {
  GraphicsTlsTracker& tracker = GraphicsTlsTracker::instance();
  tracker.install();
  const kernel::TlsKey plain = kernel::libc::pthread_key_create();
  tracker.enter_graphics_diplomat();
  const kernel::TlsKey graphics = kernel::libc::pthread_key_create();
  tracker.exit_graphics_diplomat();
  EXPECT_FALSE(tracker.is_graphics_key(plain));
  EXPECT_TRUE(tracker.is_graphics_key(graphics));
  // Deleting a key untracks it.
  kernel::libc::pthread_key_delete(graphics);
  EXPECT_FALSE(tracker.is_graphics_key(graphics));
}

TEST_F(TrackerTest, WellKnownKeysAreTracked) {
  GraphicsTlsTracker& tracker = GraphicsTlsTracker::instance();
  tracker.install();
  const kernel::TlsKey apple_slot = kernel::libc::pthread_key_create();
  tracker.add_well_known_key(apple_slot);
  EXPECT_TRUE(tracker.is_graphics_key(apple_slot));
}

TEST_F(TrackerTest, GatingIsReentrant) {
  GraphicsTlsTracker& tracker = GraphicsTlsTracker::instance();
  tracker.install();
  tracker.enter_graphics_diplomat();
  tracker.enter_graphics_diplomat();
  tracker.exit_graphics_diplomat();
  EXPECT_TRUE(tracker.in_graphics_diplomat());
  tracker.exit_graphics_diplomat();
  EXPECT_FALSE(tracker.in_graphics_diplomat());
}

class ImpersonationTest : public DiplomatTest {};

// A graphics key reserved inside a diplomat window, as a replica reserves
// its slot.
kernel::TlsKey tracked_key() {
  GraphicsTlsTracker& tracker = GraphicsTlsTracker::instance();
  tracker.install();
  tracker.enter_graphics_diplomat();
  const kernel::TlsKey key = kernel::libc::pthread_key_create();
  tracker.exit_graphics_diplomat();
  return key;
}

TEST_F(ImpersonationTest, MigratesGraphicsTlsBothWays) {
  const kernel::TlsKey key = tracked_key();
  kernel::Kernel& kernel = kernel::Kernel::instance();
  // The creator sets its graphics TLS (Android persona) and captures the
  // context's store.
  kernel::Tid creator_tid = kernel::kInvalidTid;
  int creator_value = 1;
  ContextTls context;
  std::thread([&] {
    kernel.register_current_thread(kernel::Persona::kAndroid);
    creator_tid = kernel.current_thread().tid();
    kernel.tls_set(key, &creator_value);
    context = ContextTls::capture();
  }).join();
  EXPECT_EQ(context.creator(), creator_tid);
  EXPECT_EQ(context.value(kernel::Persona::kAndroid, key), &creator_value);

  // Running thread (iOS persona): its own value in the Android slot.
  int running_value = 2;
  {
    kernel::ScopedPersona android(kernel::Persona::kAndroid);
    kernel.tls_set(key, &running_value);
  }

  int updated_value = 3;
  {
    ThreadImpersonation impersonation(context);
    ASSERT_TRUE(impersonation.active());
    EXPECT_EQ(impersonation.migrated_keys(), context.keys());
    EXPECT_EQ(kernel::sys_gettid(), creator_tid);
    kernel::ScopedPersona android(kernel::Persona::kAndroid);
    // The running thread now sees the context's value...
    EXPECT_EQ(kernel.tls_get(key), &creator_value);
    // ...and updates it while impersonating.
    kernel.tls_set(key, &updated_value);
  }
  // Identity restored.
  EXPECT_EQ(kernel::sys_gettid(), kernel.current_thread().tid());
  {
    kernel::ScopedPersona android(kernel::Persona::kAndroid);
    // The running thread's own TLS was restored.
    EXPECT_EQ(kernel.tls_get(key), &running_value);
  }
  // The update was reflected into the context's store.
  EXPECT_EQ(context.value(kernel::Persona::kAndroid, key), &updated_value);
}

TEST_F(ImpersonationTest, NeverWritesAnotherThreadsTls) {
  // The creator stays alive and rebinds its own slot while another thread
  // impersonates it. The rebind survives the release, and the update made
  // while impersonating lands in the context's store only.
  const kernel::TlsKey key = tracked_key();
  kernel::Kernel& kernel = kernel::Kernel::instance();
  int first = 1;
  int rebound = 2;
  int updated = 3;
  ContextTls context;
  std::atomic<int> step{0};
  void* creator_after = nullptr;
  std::thread creator([&] {
    kernel.register_current_thread(kernel::Persona::kAndroid);
    kernel.tls_set(key, &first);
    context = ContextTls::capture();
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
    kernel.tls_set(key, &rebound);
    step.store(3);
    while (step.load() != 4) std::this_thread::yield();
    creator_after = kernel.tls_get(key);
  });
  while (step.load() != 1) std::this_thread::yield();
  {
    ThreadImpersonation impersonation(context);
    EXPECT_TRUE(impersonation.active());
    {
      kernel::ScopedPersona android(kernel::Persona::kAndroid);
      EXPECT_EQ(kernel.tls_get(key), &first);
      kernel.tls_set(key, &updated);
    }
    step.store(2);
    while (step.load() != 3) std::this_thread::yield();
  }
  step.store(4);
  creator.join();
  EXPECT_EQ(creator_after, &rebound);
  EXPECT_EQ(context.value(kernel::Persona::kAndroid, key), &updated);
}

TEST_F(ImpersonationTest, SelfAndInvalidTargetsAreNoOps) {
  const kernel::TlsKey key = tracked_key();
  kernel::Kernel& kernel = kernel::Kernel::instance();
  // The creator's own calls do not impersonate, nor does an empty store.
  ContextTls own = ContextTls::capture();
  ThreadImpersonation self_imp(own);
  EXPECT_FALSE(self_imp.active());
  EXPECT_TRUE(self_imp.migrated_keys().empty());
  ContextTls none;
  ThreadImpersonation no_creator(none);
  EXPECT_FALSE(no_creator.active());

  // A creator this kernel does not know (sys_impersonate's kErrSrch)
  // declines the whole impersonation: nothing is installed.
  int creator_value = 1;
  ContextTls stale;
  std::thread([&] {
    kernel.register_current_thread(kernel::Persona::kAndroid);
    kernel.tls_set(key, &creator_value);
    stale = ContextTls::capture();
  }).join();
  kernel.reset(kernel::TrapModel::kCycada);
  const kernel::Tid self =
      kernel.register_current_thread(kernel::Persona::kAndroid).tid();
  ASSERT_NE(self, stale.creator());
  int own_value = 2;
  kernel.tls_set(key, &own_value);
  {
    ThreadImpersonation unknown(stale);
    EXPECT_FALSE(unknown.active());
    EXPECT_EQ(kernel.tls_get(key), &own_value);
  }
  EXPECT_EQ(kernel::sys_gettid(), self);
}

TEST(ClassificationTest, Table2CountsMatchPaper) {
  const Table2Counts counts = count_table2();
  EXPECT_EQ(counts.direct, 312);
  EXPECT_EQ(counts.indirect, 15);
  EXPECT_EQ(counts.data_dependent, 5);
  EXPECT_EQ(counts.multi, 2);
  EXPECT_EQ(counts.unimplemented, 10);
  EXPECT_EQ(counts.total(), 344);
}

TEST(ClassificationTest, AppleFenceIsIndirect) {
  EXPECT_EQ(classify_ios_gl_function("glSetFenceAPPLE"),
            DiplomatPattern::kIndirect);
  EXPECT_EQ(classify_ios_gl_function("glGetString"),
            DiplomatPattern::kDataDependent);
  EXPECT_EQ(classify_ios_gl_function("glDeleteTextures"),
            DiplomatPattern::kMulti);
  EXPECT_EQ(classify_ios_gl_function("glClear"), DiplomatPattern::kDirect);
}

}  // namespace
}  // namespace cycada::core
