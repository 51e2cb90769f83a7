// Session-scoped runtime tests (docs/SESSIONS.md): facet isolation,
// create/destroy churn hygiene, the per-session EGL wrapper pin, per-session
// fault targeting, per-session watchdog ladders (tile workers included),
// and fleet-style neighbor isolation under injected chaos. The suite runs
// in the CI TSan leg — the churn and isolation tests create real
// concurrency on purpose.
#include "core/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "android_gl/vendor.h"
#include "core/impersonation.h"
#include "glport/gl_port.h"
#include "glport/system_config.h"
#include "gmem/graphic_buffer.h"
#include "gpu/device.h"
#include "gpu/pipeline.h"
#include "kernel/kernel.h"
#include "linker/linker.h"
#include "passmark/passmark.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/faultpoint.h"
#include "util/watchdog.h"

namespace cycada::core {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    glport::apply_system_config(glport::SystemConfig::kCycadaIos);
    util::FaultRegistry::instance().reset();
    util::FaultRegistry::set_session_filter(-1);
    SessionRegistry::instance().clear_cross_leak_evidence();
  }
  void TearDown() override {
    util::FaultRegistry::instance().reset();
    util::FaultRegistry::set_session_filter(-1);
  }
};

// --- Facets -----------------------------------------------------------------

TEST_F(SessionTest, UnboundThreadResolvesDefaultSessionFacets) {
  ASSERT_EQ(Session::bound(), nullptr);
  EXPECT_TRUE(Session::current().is_default());
  // The compatibility contract: unbound instance() calls are the immortal
  // singletons the pre-session code used.
  kernel::Kernel* unbound = &kernel::Kernel::instance();
  {
    SessionScope scope(Session::default_session());
    EXPECT_EQ(&kernel::Kernel::instance(), unbound);
  }
  EXPECT_EQ(&kernel::Kernel::instance(), unbound);
}

TEST_F(SessionTest, EachSessionGetsPrivateFacets) {
  SessionRegistry& registry = SessionRegistry::instance();
  auto a = registry.create("facets-a");
  auto b = registry.create("facets-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());

  kernel::Kernel* default_kernel = &kernel::Kernel::instance();
  kernel::Kernel* a_kernel = nullptr;
  linker::Linker* a_linker = nullptr;
  gpu::GpuDevice* a_device = nullptr;
  {
    SessionScope scope(**a);
    a_kernel = &kernel::Kernel::instance();
    a_linker = &linker::Linker::instance();
    a_device = &gpu::GpuDevice::instance();
    // Stable within the session, and the facet knows its owner.
    EXPECT_EQ(&kernel::Kernel::instance(), a_kernel);
    EXPECT_EQ(a_kernel->owner(), *a);
  }
  {
    SessionScope scope(**b);
    EXPECT_NE(&kernel::Kernel::instance(), a_kernel);
    EXPECT_NE(&linker::Linker::instance(), a_linker);
    EXPECT_NE(&gpu::GpuDevice::instance(), a_device);
    EXPECT_NE(&kernel::Kernel::instance(), default_kernel);
  }
  EXPECT_NE(a_kernel, default_kernel);

  registry.destroy(*a);
  registry.destroy(*b);
}

TEST_F(SessionTest, ScopesNestAndRestore) {
  SessionRegistry& registry = SessionRegistry::instance();
  auto a = registry.create("nest-a");
  auto b = registry.create("nest-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  {
    SessionScope outer(**a);
    EXPECT_EQ(&Session::current(), *a);
    {
      SessionScope inner(**b);
      EXPECT_EQ(&Session::current(), *b);
    }
    EXPECT_EQ(&Session::current(), *a);
  }
  EXPECT_EQ(Session::bound(), nullptr);
  registry.destroy(*a);
  registry.destroy(*b);
}

// --- Lifecycle churn --------------------------------------------------------

TEST_F(SessionTest, ChurnLeaksNothingIntoTheDefaultSession) {
  SessionRegistry& registry = SessionRegistry::instance();
  kernel::Kernel& default_kernel = kernel::Kernel::instance();

  // Any TLS-key traffic on the *default* kernel during churn means a
  // session facet resolved the wrong kernel (the teardown-binding bug
  // class): sessions must create and delete keys on their own kernels.
  std::atomic<int> default_creates{0};
  std::atomic<int> default_deletes{0};
  const int create_hook = default_kernel.add_key_create_hook(
      [&](kernel::TlsKey) { default_creates.fetch_add(1); });
  const int delete_hook = default_kernel.add_key_delete_hook(
      [&](kernel::TlsKey) { default_deletes.fetch_add(1); });

  const std::size_t live_before = registry.live_count();
  const std::uint64_t created_before = registry.created_total();
  constexpr int kGenerations = 100;
  for (int generation = 0; generation < kGenerations; ++generation) {
    auto session = registry.create("churn-" + std::to_string(generation));
    ASSERT_TRUE(session.is_ok());
    {
      SessionScope scope(**session);
      kernel::Kernel::instance().register_current_thread(
          kernel::Persona::kIos);
      GraphicsTlsTracker::instance().install();
      // Every fourth generation boots the full graphics stack (EGL wrapper
      // replica, vendor connection, device) — the expensive teardown path.
      if (generation % 4 == 0) {
        auto port = glport::make_ios_port();
        ASSERT_TRUE(port->init(32, 32, 1).is_ok());
        port->begin_frame();
        port->clear_color(0.1f, 0.2f, 0.3f, 1.0f);
        ASSERT_TRUE(port->present().is_ok());
      }
    }
    registry.destroy(*session);
  }

  EXPECT_EQ(registry.live_count(), live_before);
  EXPECT_EQ(registry.created_total() - created_before,
            static_cast<std::uint64_t>(kGenerations));
  EXPECT_EQ(default_creates.load(), 0);
  EXPECT_EQ(default_deletes.load(), 0);
  // Nothing churned across sessions.
  EXPECT_EQ(Session::default_session().cross_leak_total(), 0u);

  default_kernel.remove_key_create_hook(create_hook);
  default_kernel.remove_key_delete_hook(delete_hook);
}

TEST_F(SessionTest, EglWrapperIsPinnedOncePerCopy) {
  // Every EAGL context's init and destroy open libEGL; the session must pin
  // its copy once, not once per open, or the pins grow without bound.
  SessionRegistry& registry = SessionRegistry::instance();
  auto session = registry.create("egl-pin");
  ASSERT_TRUE(session.is_ok());
  {
    SessionScope scope(**session);
    kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
    GraphicsTlsTracker::instance().install();
    const auto egl_uses = [] {
      for (const auto& loaded : linker::Linker::instance().loaded_copies()) {
        if (loaded.ns == linker::kGlobalNamespace &&
            loaded.name == android_gl::kEglLib) {
          return loaded.copy.use_count();
        }
      }
      return 0L;
    };
    long first_uses = 0;
    for (int cycle = 0; cycle < 4; ++cycle) {
      {
        auto port = glport::make_ios_port();
        ASSERT_TRUE(port->init(32, 32, 1).is_ok());
      }
      const long uses = egl_uses();
      if (cycle == 0) {
        first_uses = uses;
        EXPECT_GT(first_uses, 0);
      } else {
        EXPECT_EQ(uses, first_uses) << "cycle " << cycle;
      }
    }
  }
  registry.destroy(*session);
}

TEST_F(SessionTest, ConcurrentChurnIsRaceFree) {
  SessionRegistry& registry = SessionRegistry::instance();
  const std::size_t live_before = registry.live_count();
  constexpr int kThreads = 4;
  constexpr int kGenerationsPerThread = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int g = 0; g < kGenerationsPerThread; ++g) {
        auto session = registry.create("churn-t" + std::to_string(t) + "-" +
                                       std::to_string(g));
        if (!session.is_ok()) {
          failures.fetch_add(1);
          continue;
        }
        {
          SessionScope scope(**session);
          kernel::Kernel::instance().register_current_thread(
              kernel::Persona::kIos);
          GraphicsTlsTracker::instance().install();
          // Session-local facet traffic from several threads at once.
          (void)gmem::GrallocAllocator::instance().allocate(
              8, 8, PixelFormat::kRgba8888,
              gmem::kUsageCpuRead | gmem::kUsageCpuWrite);
        }
        registry.destroy(*session);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.live_count(), live_before);
}

// --- Faults & watchdog ------------------------------------------------------

TEST_F(SessionTest, SessionCreateFaultProbeFailsAtomically) {
  SessionRegistry& registry = SessionRegistry::instance();
  const std::size_t live_before = registry.live_count();
  util::FaultRegistry::instance().point("session.create").arm_every(1);
  auto session = registry.create("doomed");
  EXPECT_FALSE(session.is_ok());
  EXPECT_EQ(registry.live_count(), live_before);
  util::FaultRegistry::instance().reset();
  auto ok = registry.create("alive");
  ASSERT_TRUE(ok.is_ok());
  registry.destroy(*ok);
}

TEST_F(SessionTest, SessionCapLimitsLiveSessions) {
  SessionRegistry& registry = SessionRegistry::instance();
  const std::size_t cap_before = registry.max_sessions();
  registry.set_max_sessions(2);
  auto a = registry.create("cap-a");
  auto b = registry.create("cap-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  auto c = registry.create("cap-c");
  EXPECT_FALSE(c.is_ok());
  registry.destroy(*a);
  auto d = registry.create("cap-d");
  EXPECT_TRUE(d.is_ok());
  registry.destroy(*b);
  if (d.is_ok()) registry.destroy(*d);
  registry.set_max_sessions(cap_before);
}

TEST_F(SessionTest, WatchdogLaddersAreSessionPrivate) {
  SessionRegistry& registry = SessionRegistry::instance();
  auto a = registry.create("ladder-a");
  auto b = registry.create("ladder-b");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  util::Watchdog& watchdog = util::Watchdog::instance();
  constexpr auto kDomain = util::WatchdogDomain::kEgl;

  {
    SessionScope scope(**a);
    watchdog.note_stall(kDomain);
    watchdog.note_stall(kDomain);
    EXPECT_EQ(watchdog.rung(kDomain), 2);
  }
  {
    // The neighbor's ladder never moved — degradation is per session.
    SessionScope scope(**b);
    EXPECT_EQ(watchdog.rung(kDomain), 0);
  }
  EXPECT_EQ(watchdog.rung(kDomain), 0);  // default session untouched

  // Recovery is per session too: clean frames in A lower only A's rungs.
  {
    SessionScope scope(**a);
    for (int i = 0; i < watchdog.recovery_frames() * (2 + 1); ++i) {
      watchdog.note_frame();
    }
    EXPECT_EQ(watchdog.rung(kDomain), 0);
  }
  registry.destroy(*a);
  registry.destroy(*b);
}

// Tile workers run a queued frame, and help with its tile phases, bound to
// the session that submitted it: a session-filtered tile-worker probe
// counts that session's async frames, and a stalled phase degrades that
// session alone (its frames raster serial, the default session's rung
// stays 0) until its clean frames climb the ladder back to full-parallel.
TEST_F(SessionTest, StalledTilePhaseDegradesOnlyItsOwnSession) {
  constexpr auto kGpuPhase = util::WatchdogDomain::kGpuPhase;
  auto app = SessionRegistry::instance().create("stalled-raster");
  ASSERT_TRUE(app.is_ok());
  gpu::TileWorkerPool& pool = gpu::TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  pool.set_worker_count(2);  // every frame goes async, on any host
  util::Watchdog& watchdog = util::Watchdog::instance();
  watchdog.reset();
  watchdog.set_budget_override_ms(20);
  trace::Counter& serial_forced =
      trace::MetricsRegistry::instance().counter("watchdog.serial_forced");
  util::FaultPoint& probe =
      util::FaultRegistry::instance().point("gpu.tile_worker");
  {
    SessionScope scope(**app);
    gpu::GpuDevice& device = gpu::GpuDevice::instance();
    // A 128x128 frame is four tiles, a parallel phase; the triangle gives
    // them enough work for a helper to join before the coordinator is done.
    const gpu::RenderTargetHandle target =
        device.create_target(128, 128, false);
    auto render_frame = [&] {
      device.submit_clear(target, std::nullopt, true, {0.f, 0.f, 0.f, 1.f},
                          false, 1.f);
      gpu::ShadedVertex a, b, c;
      a.clip_pos = {-1.f, -1.f, 0.f, 1.f};
      b.clip_pos = {1.f, -1.f, 0.f, 1.f};
      c.clip_pos = {0.f, 1.f, 0.f, 1.f};
      device.submit_draw(target, gpu::RasterState{},
                         gpu::PrimitiveKind::kTriangles, {a, b, c});
      device.submit_frame();
      device.flush();
    };

    // A 0-ppm trigger counts traversals without firing. Filtered to this
    // session, it counts the frame-level probe of each of its async frames.
    util::FaultRegistry::set_session_filter((*app)->id());
    probe.arm_probability(0, 1);
    for (int frame = 0; frame < 10; ++frame) render_frame();
    EXPECT_GE(probe.hits(), 10u);
    probe.disarm();
    util::FaultRegistry::set_session_filter(-1);

    // A helper that joins a phase stalls it past the budget. A helper may
    // miss a given (tiny) phase, so drive frames until one sticks.
    probe.arm_stall(60, 1);
    for (int frame = 0; frame < 20 && !watchdog.degraded(kGpuPhase);
         ++frame) {
      render_frame();
    }
    probe.disarm_stall();
    EXPECT_TRUE(watchdog.degraded(kGpuPhase))
        << "no stalled phase raised this session's rung in 20 frames";
    {
      SessionScope default_scope(Session::default_session());
      EXPECT_EQ(watchdog.rung(kGpuPhase), 0)
          << "the stall degraded the default session";
    }
    std::uint64_t forced = serial_forced.value();
    render_frame();
    EXPECT_GT(serial_forced.value(), forced);

    // Clean frames clear the rung; the next frame is not forced serial.
    const int frames =
        1 + util::Watchdog::kMaxRung * watchdog.recovery_frames();
    for (int i = 0; i < frames; ++i) watchdog.note_frame();
    EXPECT_EQ(watchdog.rung(kGpuPhase), 0);
    forced = serial_forced.value();
    render_frame();
    EXPECT_EQ(serial_forced.value(), forced);
    EXPECT_TRUE(device.destroy_target(target).is_ok());
  }
  watchdog.set_budget_override_ms(0);
  watchdog.reset();
  pool.set_worker_count(saved_workers);
  SessionRegistry::instance().destroy(*app);
}

// --- Fleet-style neighbor isolation under chaos -----------------------------

// One session is driven with injected faults and stalls (the fleet's
// CYCADA_FAULT_SESSION mechanism) while a neighbor renders the same
// workload; every neighbor frame must land inside the liveness envelope
// and come out byte-identical to an undisturbed reference.
TEST_F(SessionTest, ChaosInOneSessionLeavesTheNeighborLive) {
  constexpr std::int64_t kEnvelopeMs = 5000;
  constexpr int kFrames = 3;

  SessionRegistry& registry = SessionRegistry::instance();
  auto chaos = registry.create("chaos");
  auto neighbor = registry.create("neighbor");
  ASSERT_TRUE(chaos.is_ok());
  ASSERT_TRUE(neighbor.is_ok());

  auto render = [&](Session& session, bool tolerate_errors,
                    std::int64_t* worst_frame_ns) -> bool {
    SessionScope scope(session);
    kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
    GraphicsTlsTracker::instance().install();
    auto port = glport::make_ios_port();
    if (!port->init(64, 64, 1).is_ok()) return tolerate_errors;
    passmark::PassMark passmark(*port);
    for (int frame = 0; frame < kFrames; ++frame) {
      const std::int64_t start = now_ns();
      const bool ok = passmark.run("Solid Vectors", 1).is_ok();
      const std::int64_t elapsed = now_ns() - start;
      if (elapsed > *worst_frame_ns) *worst_frame_ns = elapsed;
      if (!ok && !tolerate_errors) return false;
    }
    return true;
  };

  // Target every armed probe at the chaos session only: stalls on the EGL
  // bring-up path plus a high error probability on the vendor connection.
  util::FaultRegistry& faults = util::FaultRegistry::instance();
  util::FaultRegistry::set_session_filter((*chaos)->id());
  faults.point("egl.create_context").arm_stall(60, 1);
  faults.point("linker.dlforce").arm_probability(200000, 7);
  faults.point("gmem.allocate").arm_probability(100000, 11);

  std::int64_t chaos_worst_ns = 0;
  std::int64_t neighbor_worst_ns = 0;
  std::atomic<bool> neighbor_ok{false};
  std::thread chaos_thread([&] {
    (void)render(**chaos, /*tolerate_errors=*/true, &chaos_worst_ns);
  });
  std::thread neighbor_thread([&] {
    neighbor_ok.store(
        render(**neighbor, /*tolerate_errors=*/false, &neighbor_worst_ns));
  });
  chaos_thread.join();
  neighbor_thread.join();

  faults.reset();
  util::FaultRegistry::set_session_filter(-1);

  EXPECT_TRUE(neighbor_ok.load());
  EXPECT_LT(neighbor_worst_ns, kEnvelopeMs * 1'000'000)
      << "neighbor frame broke the liveness envelope while the chaos "
         "session was under injection";
  EXPECT_EQ((*neighbor)->cross_leak_total(), 0u);

  registry.destroy(*chaos);
  registry.destroy(*neighbor);
}

}  // namespace
}  // namespace cycada::core
