// Tile-parallel frame pipeline tests (docs/PIPELINE.md). The load-bearing
// property is determinism: the framebuffer produced at N workers must be
// byte-identical to N=1 on the same scene, whatever order tiles complete or
// get stolen in, and however many devices' phases share the pool at once.
// The rest exercises the async lifecycle (drain on teardown mid-flight, one
// device's stalled frame never holding another's) and the fault-degrade path
// (a failing worker pool falls back to single-threaded raster instead of
// deadlocking).
#include "gpu/pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "gpu/device.h"
#include "trace/metrics.h"
#include "util/faultpoint.h"

namespace cycada::gpu {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GpuDevice::instance().reset();
    saved_workers_ = TileWorkerPool::instance().worker_count();
    util::FaultRegistry::instance().point("gpu.tile_worker").disarm();
  }

  void TearDown() override {
    GpuDevice::instance().reset();
    util::FaultRegistry::instance().point("gpu.tile_worker").disarm();
    // Other suites in this binary expect the worker count they launched
    // with (CYCADA_GPU_WORKERS or the default), not ours.
    TileWorkerPool::instance().set_worker_count(saved_workers_);
  }

  GpuDevice& dev() { return GpuDevice::instance(); }

  int saved_workers_ = 1;
};

ShadedVertex vtx(float x, float y, float z, Color c) {
  ShadedVertex v;
  v.clip_pos = {x, y, z, 1.f};
  v.color = c;
  return v;
}

// A seeded scene big enough to span many 64x64 tiles and both kick-batch
// boundaries: interleaved clears, depth-tested triangles, blended
// triangles, lines and points, plus a scissored clear. Every run with the
// same seed submits the identical command stream.
std::vector<std::uint32_t> render_scene(GpuDevice& dev, std::uint32_t seed,
                                        int width = 200, int height = 150) {
  const RenderTargetHandle target = dev.create_target(width, height, true);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> pos(-1.2f, 1.2f);
  std::uniform_real_distribution<float> depth(-0.9f, 0.9f);
  std::uniform_real_distribution<float> channel(0.f, 1.f);

  dev.submit_clear(target, std::nullopt, true,
                   {channel(rng), channel(rng), channel(rng), 1.f}, true, 1.f);
  for (int i = 0; i < 48; ++i) {
    RasterState state;
    state.depth_test = (i % 3) != 0;
    if (i % 5 == 0) {
      state.blend = true;
      state.blend_src = BlendFactor::kSrcAlpha;
      state.blend_dst = BlendFactor::kOneMinusSrcAlpha;
    }
    const Color color{channel(rng), channel(rng), channel(rng),
                      0.25f + 0.75f * channel(rng)};
    const float z = depth(rng);
    std::vector<ShadedVertex> tri = {vtx(pos(rng), pos(rng), z, color),
                                     vtx(pos(rng), pos(rng), z, color),
                                     vtx(pos(rng), pos(rng), z, color)};
    dev.submit_draw(target, state, PrimitiveKind::kTriangles, std::move(tri));
    if (i == 20) {
      dev.submit_clear(target, ScissorRect{30, 30, 60, 40}, true,
                       {0.f, 0.f, 0.f, 1.f}, false, 1.f);
    }
    if (i % 7 == 0) {
      RasterState line_state;
      std::vector<ShadedVertex> line = {
          vtx(pos(rng), pos(rng), 0.f, color),
          vtx(pos(rng), pos(rng), 0.f, color)};
      dev.submit_draw(target, line_state, PrimitiveKind::kLines,
                      std::move(line));
    }
  }
  dev.submit_frame();
  std::vector<std::uint32_t> pixels(static_cast<std::size_t>(width) * height);
  EXPECT_TRUE(
      dev.read_pixels(target, 0, 0, width, height, pixels.data(), width)
          .is_ok());
  EXPECT_TRUE(dev.destroy_target(target).is_ok());
  return pixels;
}

TEST_F(PipelineTest, FramebufferIsByteIdenticalAcrossWorkerCounts) {
  constexpr int kDevices = 4;
  for (const std::uint32_t seed : {1u, 7u, 42u}) {
    TileWorkerPool::instance().set_worker_count(1);
    const std::vector<std::uint32_t> serial = render_scene(dev(), seed);
    for (const int workers : {2, 4}) {
      TileWorkerPool::instance().set_worker_count(workers);
      const std::vector<std::uint32_t> tiled = render_scene(dev(), seed);
      ASSERT_EQ(serial, tiled)
          << "seed " << seed << " diverged at " << workers << " workers";

      // The same scene from several devices at once: their frames and
      // phases share the pool concurrently, and each must still match.
      std::vector<std::vector<std::uint32_t>> concurrent(kDevices);
      std::vector<std::thread> threads;
      for (int d = 0; d < kDevices; ++d) {
        threads.emplace_back([&concurrent, d, seed] {
          GpuDevice device;
          concurrent[d] = render_scene(device, seed);
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (int d = 0; d < kDevices; ++d) {
        ASSERT_EQ(serial, concurrent[d])
            << "seed " << seed << " diverged on device " << d << " of "
            << kDevices << " at " << workers << " workers";
      }
    }
  }
}

TEST_F(PipelineTest, TilesAreClaimedInParallelPhases) {
  TileWorkerPool::instance().set_worker_count(4);
  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  const std::uint64_t tiles_before = metrics.counter("pipeline.tiles").value();
  (void)render_scene(dev(), 3);
  // 200x150 target = 4x3 tile grid: at least one frame's worth of tiles.
  EXPECT_GE(metrics.counter("pipeline.tiles").value(), tiles_before + 12);
}

TEST_F(PipelineTest, AsyncFrameRetiresFenceAndSurvivesTeardownMidFlight) {
  TileWorkerPool::instance().set_worker_count(4);
  const RenderTargetHandle target = dev().create_target(256, 192, true);
  const Color white{1.f, 1.f, 1.f, 1.f};
  dev().submit_clear(target, std::nullopt, true, {0.f, 0.f, 1.f, 1.f}, true,
                     1.f);
  for (int i = 0; i < 6; ++i) {
    std::vector<ShadedVertex> tri = {vtx(-1.f, -1.f, 0.f, white),
                                     vtx(1.f, -1.f, 0.f, white),
                                     vtx(0.f, 1.f, 0.f, white)};
    dev().submit_draw(target, RasterState{}, PrimitiveKind::kTriangles,
                      std::move(tri));
  }
  const FenceHandle fence = dev().submit_fence();
  dev().submit_frame();
  // Tear the pool down while the frame may still be in flight: shutdown
  // must drain cleanly (frame executed, fence signaled), never abandon or
  // double-run work.
  TileWorkerPool::instance().shutdown();
  EXPECT_TRUE(dev().fence_signaled(fence));
  EXPECT_EQ(dev().pending_commands(), 0u);
  std::vector<std::uint32_t> pixels(256 * 192);
  ASSERT_TRUE(
      dev().read_pixels(target, 0, 0, 256, 192, pixels.data(), 256).is_ok());
  EXPECT_EQ(pixels[0], 0xffff0000u);            // blue background (ABGR)
  EXPECT_EQ(pixels[100 * 256 + 128], 0xffffffffu);  // white triangle interior
  // The pool restarts transparently after a shutdown.
  (void)render_scene(dev(), 9);
}

TEST_F(PipelineTest, StalledFrameOnOneDeviceDoesNotHoldAnothersFrame) {
  TileWorkerPool::instance().set_worker_count(2);
  GpuDevice a;
  GpuDevice b;
  const RenderTargetHandle ta = a.create_target(64, 64, false);
  const RenderTargetHandle tb = b.create_target(64, 64, false);
  const Color red{1.f, 0.f, 0.f, 1.f};
  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("gpu.tile_worker");

  // A's frame stalls on the worker that takes it.
  a.submit_clear(ta, std::nullopt, true, red, false, 1.f);
  const FenceHandle fa = a.submit_fence();
  const std::uint64_t stalls_before = fault.stalls();
  fault.arm_stall(400, 1);
  a.submit_frame();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fault.stalls() == stalls_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fault.disarm_stall();
  ASSERT_GT(fault.stalls(), stalls_before) << "a's frame never stalled";

  // B's frame runs on the other worker meanwhile.
  b.submit_clear(tb, std::nullopt, true, red, false, 1.f);
  const FenceHandle fb = b.submit_fence();
  b.submit_frame();
  EXPECT_TRUE(b.wait_fence(fb, 200));
  EXPECT_FALSE(a.fence_signaled(fa)) << "b's frame waited for a's to retire";

  a.flush();
  EXPECT_TRUE(a.fence_signaled(fa));
}

TEST_F(PipelineTest, FaultedWorkersDegradeToSerialWithoutDeadlock) {
  TileWorkerPool::instance().set_worker_count(1);
  const std::vector<std::uint32_t> reference = render_scene(dev(), 11);

  TileWorkerPool::instance().set_worker_count(4);
  util::FaultPoint& fault =
      util::FaultRegistry::instance().point("gpu.tile_worker");
  fault.arm_every(1);  // every probe traversal fails
  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  const std::uint64_t degraded_before =
      metrics.counter("pipeline.frames.serial_degraded").value();
  const std::vector<std::uint32_t> degraded = render_scene(dev(), 11);
  fault.disarm();

  // The frame completed (no deadlock — the coordinator is fault-suppressed
  // and finishes every tile), produced the right pixels, and was counted.
  EXPECT_EQ(reference, degraded);
  EXPECT_GT(metrics.counter("pipeline.frames.serial_degraded").value(),
            degraded_before);
}

TEST_F(PipelineTest, FramebufferFeedbackForcesSerialPhase) {
  TileWorkerPool::instance().set_worker_count(4);
  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  const std::uint64_t feedback_before =
      metrics.counter("pipeline.feedback_serialized").value();
  // A texture aliasing the render target's own memory: the binner must
  // detect the overlap and serialize rather than let tiles race the
  // feedback loop.
  const RenderTargetHandle target = dev().create_target(128, 128, false);
  const auto view = dev().target_view(target);
  ASSERT_TRUE(view.status().is_ok());
  const TextureHandle texture = dev().create_texture();
  ASSERT_TRUE(dev()
                  .bind_texture_external(texture, view.value().color, 128, 128,
                                         view.value().stride_px)
                  .is_ok());
  RasterState state;
  state.texture = texture;
  const Color white{1.f, 1.f, 1.f, 1.f};
  std::vector<ShadedVertex> quad = {
      vtx(-1, -1, 0, white), vtx(1, -1, 0, white), vtx(1, 1, 0, white),
      vtx(-1, -1, 0, white), vtx(1, 1, 0, white),  vtx(-1, 1, 0, white)};
  dev().submit_draw(target, state, PrimitiveKind::kTriangles, std::move(quad));
  dev().submit_frame();
  dev().flush();
  EXPECT_GT(metrics.counter("pipeline.feedback_serialized").value(),
            feedback_before);
}


// A seeded scene for the tiled-vs-façade comparison. It runs every
// fragment loop the rasterizer chooses from — depth test off and on, five
// texture modes (none; nearest or linear, each replace or modulate) and
// three outputs (plain, SrcAlpha/OneMinusSrcAlpha, other factors or a
// color mask) — as a perspective (w != 1) and an affine triangle, a line
// and a point, with repeat and clamp wraps, texcoords past [0, 1], scissor,
// and some exactly white vertex colors (modulate runs as replace).
struct FacadeScene {
  struct Op {
    bool clear = false;
    RasterState state;  // state.texture != kNoHandle: sample the texture
    PrimitiveKind kind = PrimitiveKind::kTriangles;
    std::vector<ShadedVertex> vertices;
  };
  static constexpr int kWidth = 200;
  static constexpr int kHeight = 150;
  static constexpr int kTexSize = 16;
  std::vector<std::uint32_t> texels;
  std::vector<Op> ops;
};

FacadeScene make_facade_scene(std::uint32_t seed) {
  FacadeScene scene;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> unit(0.f, 1.f);
  std::uniform_real_distribution<float> ndc(-1.3f, 1.3f);
  std::uniform_real_distribution<float> w_range(0.4f, 3.f);
  std::uniform_real_distribution<float> tex(-1.5f, 2.5f);
  scene.texels.resize(FacadeScene::kTexSize * FacadeScene::kTexSize);
  for (std::uint32_t& texel : scene.texels) texel = rng() | 0x40000000u;

  FacadeScene::Op clear;
  clear.clear = true;
  scene.ops.push_back(clear);
  for (int combo = 0; combo < 30; ++combo) {
    RasterState state;
    state.depth_test = combo % 2 == 1;
    state.depth_func =
        combo % 4 == 3 ? DepthFunc::kGreaterEqual : DepthFunc::kLess;
    const int tex_mode = (combo / 2) % 5;
    if (tex_mode != 0) {
      state.texture = 1;
      state.filter =
          tex_mode <= 2 ? TextureFilter::kNearest : TextureFilter::kLinear;
      state.tex_env = tex_mode % 2 == 1 ? TexEnv::kReplace : TexEnv::kModulate;
      state.wrap = combo % 3 == 0 ? TextureWrap::kClampToEdge
                                  : TextureWrap::kRepeat;
    }
    if (combo / 10 == 1) {
      state.blend = true;
      state.blend_src = BlendFactor::kSrcAlpha;
      state.blend_dst = BlendFactor::kOneMinusSrcAlpha;
    } else if (combo / 10 == 2 && combo % 2 == 0) {
      state.blend = true;
      state.blend_src = BlendFactor::kDstAlpha;
      state.blend_dst = BlendFactor::kOneMinusSrcColor;
    } else if (combo / 10 == 2) {
      state.color_mask[1] = false;
    }
    if (combo % 7 == 3) state.scissor = ScissorRect{20, 10, 130, 90};
    const bool white = combo % 6 == 5;
    const auto vertex = [&](float w) {
      ShadedVertex v;
      v.clip_pos = {ndc(rng) * w, ndc(rng) * w,
                    (unit(rng) * 1.8f - 0.9f) * w, w};
      v.color = white ? Color{1.f, 1.f, 1.f, 1.f}
                      : Color{unit(rng), unit(rng), unit(rng),
                              0.2f + 0.8f * unit(rng)};
      v.texcoord = {tex(rng), tex(rng)};
      return v;
    };
    const float w = w_range(rng);
    FacadeScene::Op triangles{false, state, PrimitiveKind::kTriangles,
                              {vertex(w_range(rng)), vertex(w_range(rng)),
                               vertex(w_range(rng)), vertex(w), vertex(w),
                               vertex(w)}};
    FacadeScene::Op line{false, state, PrimitiveKind::kLines,
                         {vertex(w_range(rng)), vertex(w_range(rng))}};
    FacadeScene::Op point{false, state, PrimitiveKind::kPoints,
                          {vertex(w), vertex(w)}};
    point.state.point_size = 3.f;
    scene.ops.push_back(std::move(triangles));
    scene.ops.push_back(std::move(line));
    scene.ops.push_back(std::move(point));
  }
  return scene;
}

// The scene through the device (binned into 64x64 tiles, rastered by the
// pool) at the current worker count.
std::vector<std::uint32_t> render_tiled(GpuDevice& dev,
                                        const FacadeScene& scene) {
  const RenderTargetHandle target =
      dev.create_target(FacadeScene::kWidth, FacadeScene::kHeight, true);
  const TextureHandle texture = dev.create_texture();
  EXPECT_TRUE(dev.define_texture(texture, FacadeScene::kTexSize,
                                 FacadeScene::kTexSize)
                  .is_ok());
  EXPECT_TRUE(dev.upload_texture(texture, 0, 0, FacadeScene::kTexSize,
                                 FacadeScene::kTexSize, scene.texels.data(),
                                 FacadeScene::kTexSize)
                  .is_ok());
  for (const FacadeScene::Op& op : scene.ops) {
    if (op.clear) {
      dev.submit_clear(target, std::nullopt, true, {0.1f, 0.2f, 0.3f, 0.6f},
                       true, 1.f);
      continue;
    }
    RasterState state = op.state;
    if (state.texture != kNoHandle) state.texture = texture;
    dev.submit_draw(target, state, op.kind, op.vertices);
  }
  dev.submit_frame();
  std::vector<std::uint32_t> pixels(FacadeScene::kWidth *
                                    FacadeScene::kHeight);
  EXPECT_TRUE(dev.read_pixels(target, 0, 0, FacadeScene::kWidth,
                              FacadeScene::kHeight, pixels.data(),
                              FacadeScene::kWidth)
                  .is_ok());
  EXPECT_TRUE(dev.destroy_target(target).is_ok());
  EXPECT_TRUE(dev.destroy_texture(texture).is_ok());
  return pixels;
}

// The same scene through the serial façade: the whole target as one limit.
std::vector<std::uint32_t> render_facade(const FacadeScene& scene) {
  std::vector<std::uint32_t> color(FacadeScene::kWidth * FacadeScene::kHeight);
  std::vector<float> depth(color.size());
  const TargetView target{color.data(), depth.data(), FacadeScene::kWidth,
                          FacadeScene::kHeight, FacadeScene::kWidth};
  const TextureView texture{scene.texels.data(), FacadeScene::kTexSize,
                            FacadeScene::kTexSize, FacadeScene::kTexSize};
  Rasterizer rasterizer;
  for (const FacadeScene::Op& op : scene.ops) {
    if (op.clear) {
      rasterizer.clear(target, std::nullopt, true, {0.1f, 0.2f, 0.3f, 0.6f},
                       true, 1.f);
      continue;
    }
    rasterizer.draw(target, op.state, op.kind, op.vertices,
                    op.state.texture != kNoHandle ? texture : TextureView{});
  }
  return color;
}

// Tiles evaluate every attribute as a function of the pixel alone, so the
// tiled device output equals the façade scanning the whole target at once:
// a value accumulated from a tile's origin would differ here even though
// the tile rects (and so the N-vs-1 comparison above) do not change with N.
TEST_F(PipelineTest, TiledOutputEqualsWholeTargetFacade) {
  for (const std::uint32_t seed : {5u, 23u, 99u, 512u, 4096u, 77777u}) {
    const FacadeScene scene = make_facade_scene(seed);
    const std::vector<std::uint32_t> reference = render_facade(scene);
    for (const int workers : {1, 4}) {
      TileWorkerPool::instance().set_worker_count(workers);
      EXPECT_EQ(reference, render_tiled(dev(), scene))
          << "seed " << seed << " at " << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace cycada::gpu
