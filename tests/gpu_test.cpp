#include "gpu/device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "trace/metrics.h"
#include "util/image.h"

namespace cycada::gpu {
namespace {

class GpuTest : public ::testing::Test {
 protected:
  void SetUp() override { GpuDevice::instance().reset(); }
  GpuDevice& dev() { return GpuDevice::instance(); }
};

ShadedVertex vtx(float x, float y, float z, Color c, Vec2 uv = {}) {
  ShadedVertex v;
  v.clip_pos = {x, y, z, 1.f};
  v.color = c;
  v.texcoord = uv;
  return v;
}

TEST_F(GpuTest, CommandsAreQueuedUntilFlush) {
  const auto target = dev().create_target(16, 16, false);
  dev().submit_clear(target, std::nullopt, true, {1.f, 0.f, 0.f, 1.f}, false,
                     1.f);
  EXPECT_EQ(dev().pending_commands(), 1u);
  dev().flush();
  EXPECT_EQ(dev().pending_commands(), 0u);
  EXPECT_EQ(dev().stats().clear_commands, 1u);
}

TEST_F(GpuTest, ClearFillsTarget) {
  const auto target = dev().create_target(8, 8, false);
  dev().submit_clear(target, std::nullopt, true, {0.f, 1.f, 0.f, 1.f}, false,
                     1.f);
  std::vector<std::uint32_t> pixels(64);
  ASSERT_TRUE(dev().read_pixels(target, 0, 0, 8, 8, pixels.data(), 8).is_ok());
  for (std::uint32_t pixel : pixels) EXPECT_EQ(pixel, 0xff00ff00u);
}

TEST_F(GpuTest, ScissoredClearOnlyTouchesRect) {
  const auto target = dev().create_target(8, 8, false);
  dev().submit_clear(target, std::nullopt, true, {0.f, 0.f, 0.f, 1.f}, false, 1.f);
  dev().submit_clear(target, ScissorRect{2, 2, 3, 3}, true,
                     {1.f, 1.f, 1.f, 1.f}, false, 1.f);
  std::vector<std::uint32_t> pixels(64);
  ASSERT_TRUE(dev().read_pixels(target, 0, 0, 8, 8, pixels.data(), 8).is_ok());
  EXPECT_EQ(pixels[0], 0xff000000u);
  EXPECT_EQ(pixels[2 * 8 + 2], 0xffffffffu);
  EXPECT_EQ(pixels[4 * 8 + 4], 0xffffffffu);
  EXPECT_EQ(pixels[5 * 8 + 5], 0xff000000u);
}

TEST_F(GpuTest, FullScreenQuadCoversEveryPixel) {
  const auto target = dev().create_target(16, 16, false);
  const Color red{1.f, 0.f, 0.f, 1.f};
  std::vector<ShadedVertex> quad = {
      vtx(-1, -1, 0, red), vtx(1, -1, 0, red), vtx(1, 1, 0, red),
      vtx(-1, -1, 0, red), vtx(1, 1, 0, red),  vtx(-1, 1, 0, red),
  };
  RasterState state;
  dev().submit_draw(target, state, PrimitiveKind::kTriangles, quad);
  std::vector<std::uint32_t> pixels(256);
  ASSERT_TRUE(
      dev().read_pixels(target, 0, 0, 16, 16, pixels.data(), 16).is_ok());
  int red_pixels = 0;
  for (std::uint32_t pixel : pixels) red_pixels += pixel == 0xff0000ffu;
  EXPECT_EQ(red_pixels, 256);
  EXPECT_EQ(dev().stats().fragments_shaded, 256u);
}

TEST_F(GpuTest, DepthTestRejectsFarFragments) {
  const auto target = dev().create_target(8, 8, true);
  RasterState state;
  state.depth_test = true;
  const Color near_color{0.f, 1.f, 0.f, 1.f};
  const Color far_color{1.f, 0.f, 0.f, 1.f};
  std::vector<ShadedVertex> near_quad = {
      vtx(-1, -1, -0.5f, near_color), vtx(1, -1, -0.5f, near_color),
      vtx(1, 1, -0.5f, near_color),   vtx(-1, -1, -0.5f, near_color),
      vtx(1, 1, -0.5f, near_color),   vtx(-1, 1, -0.5f, near_color)};
  std::vector<ShadedVertex> far_quad = {
      vtx(-1, -1, 0.5f, far_color), vtx(1, -1, 0.5f, far_color),
      vtx(1, 1, 0.5f, far_color),   vtx(-1, -1, 0.5f, far_color),
      vtx(1, 1, 0.5f, far_color),   vtx(-1, 1, 0.5f, far_color)};
  dev().submit_draw(target, state, PrimitiveKind::kTriangles, near_quad);
  dev().submit_draw(target, state, PrimitiveKind::kTriangles, far_quad);
  std::vector<std::uint32_t> pixels(64);
  ASSERT_TRUE(dev().read_pixels(target, 0, 0, 8, 8, pixels.data(), 8).is_ok());
  for (std::uint32_t pixel : pixels) EXPECT_EQ(pixel, 0xff00ff00u);
}

TEST_F(GpuTest, AlphaBlendingMixesColors) {
  const auto target = dev().create_target(4, 4, false);
  dev().submit_clear(target, std::nullopt, true, {0.f, 0.f, 0.f, 1.f}, false, 1.f);
  RasterState state;
  state.blend = true;
  state.blend_src = BlendFactor::kSrcAlpha;
  state.blend_dst = BlendFactor::kOneMinusSrcAlpha;
  const Color half_white{1.f, 1.f, 1.f, 0.5f};
  std::vector<ShadedVertex> quad = {
      vtx(-1, -1, 0, half_white), vtx(1, -1, 0, half_white),
      vtx(1, 1, 0, half_white),   vtx(-1, -1, 0, half_white),
      vtx(1, 1, 0, half_white),   vtx(-1, 1, 0, half_white)};
  dev().submit_draw(target, state, PrimitiveKind::kTriangles, quad);
  std::vector<std::uint32_t> pixels(16);
  ASSERT_TRUE(dev().read_pixels(target, 0, 0, 4, 4, pixels.data(), 4).is_ok());
  const int r = pixels[0] & 0xff;
  EXPECT_NEAR(r, 128, 2);
}

TEST_F(GpuTest, TexturedQuadSamplesTexture) {
  const auto target = dev().create_target(8, 8, false);
  const auto texture = dev().create_texture();
  ASSERT_TRUE(dev().define_texture(texture, 2, 1).is_ok());
  // Left texel blue, right texel green.
  const std::uint32_t texels[2] = {0xffff0000u, 0xff00ff00u};
  ASSERT_TRUE(dev().upload_texture(texture, 0, 0, 2, 1, texels, 2).is_ok());

  RasterState state;
  state.texture = texture;
  state.tex_env = TexEnv::kReplace;
  const Color white{1.f, 1.f, 1.f, 1.f};
  std::vector<ShadedVertex> quad = {
      vtx(-1, -1, 0, white, {0.f, 0.f}), vtx(1, -1, 0, white, {1.f, 0.f}),
      vtx(1, 1, 0, white, {1.f, 1.f}),   vtx(-1, -1, 0, white, {0.f, 0.f}),
      vtx(1, 1, 0, white, {1.f, 1.f}),   vtx(-1, 1, 0, white, {0.f, 1.f})};
  dev().submit_draw(target, state, PrimitiveKind::kTriangles, quad);
  std::vector<std::uint32_t> pixels(64);
  ASSERT_TRUE(dev().read_pixels(target, 0, 0, 8, 8, pixels.data(), 8).is_ok());
  EXPECT_EQ(pixels[0], 0xffff0000u);       // left half samples texel 0
  EXPECT_EQ(pixels[7], 0xff00ff00u);       // right half samples texel 1
}

TEST_F(GpuTest, ExternalTargetRendersIntoCallerMemory) {
  std::vector<std::uint32_t> memory(16 * 16, 0u);
  const auto target =
      dev().create_target_external(memory.data(), 16, 16, 16, false);
  dev().submit_clear(target, std::nullopt, true, {1.f, 1.f, 0.f, 1.f}, false,
                     1.f);
  dev().flush();
  EXPECT_EQ(memory[0], 0xff00ffffu);  // yellow in RGBA little-endian packing
  EXPECT_EQ(memory[255], 0xff00ffffu);
}

TEST_F(GpuTest, FenceSignalsAfterExecution) {
  const auto target = dev().create_target(4, 4, false);
  dev().submit_clear(target, std::nullopt, true, {0, 0, 0, 1}, false, 1.f);
  const FenceHandle fence = dev().submit_fence();
  EXPECT_FALSE(dev().fence_signaled(fence));
  dev().flush();
  EXPECT_TRUE(dev().fence_signaled(fence));
  EXPECT_EQ(dev().stats().fences_signaled, 1u);
}

TEST_F(GpuTest, WaitFenceExecutesPendingWork) {
  const auto target = dev().create_target(4, 4, false);
  dev().submit_clear(target, std::nullopt, true, {1, 1, 1, 1}, false, 1.f);
  const FenceHandle fence = dev().submit_fence();
  dev().wait_fence(fence);
  EXPECT_TRUE(dev().fence_signaled(fence));
  EXPECT_EQ(dev().pending_commands(), 0u);
}

TEST_F(GpuTest, ReadPixelsValidatesBounds) {
  const auto target = dev().create_target(4, 4, false);
  std::vector<std::uint32_t> out(16);
  EXPECT_FALSE(dev().read_pixels(target, 2, 2, 4, 4, out.data(), 4).is_ok());
  EXPECT_FALSE(dev().read_pixels(9999, 0, 0, 1, 1, out.data(), 1).is_ok());
}

TEST_F(GpuTest, UploadTextureValidatesRegion) {
  const auto texture = dev().create_texture();
  ASSERT_TRUE(dev().define_texture(texture, 4, 4).is_ok());
  std::uint32_t texel = 0;
  EXPECT_FALSE(dev().upload_texture(texture, 3, 3, 2, 2, &texel, 2).is_ok());
  EXPECT_FALSE(dev().upload_texture(9999, 0, 0, 1, 1, &texel, 1).is_ok());
}

TEST_F(GpuTest, DestroyedResourcesAreInvalid) {
  const auto texture = dev().create_texture();
  const auto target = dev().create_target(2, 2, false);
  EXPECT_TRUE(dev().texture_valid(texture));
  EXPECT_TRUE(dev().target_view(target).is_ok());
  ASSERT_TRUE(dev().destroy_texture(texture).is_ok());
  ASSERT_TRUE(dev().destroy_target(target).is_ok());
  EXPECT_FALSE(dev().texture_valid(texture));
  EXPECT_FALSE(dev().target_view(target).is_ok());
  EXPECT_FALSE(dev().destroy_texture(texture).is_ok());
}

// GL order across texture writes: a draw recorded before a write to its
// texture samples the texture as it was, and one recorded after samples the
// write, whether the write uploads, redefines, rebinds to external memory
// or destroys. Each draw is checked against the serial façade.
TEST_F(GpuTest, RecordedDrawsSampleTexturesInGlOrder) {
  constexpr int kSize = 16;
  const Color white{1.f, 1.f, 1.f, 1.f};
  const std::vector<ShadedVertex> quad = {
      vtx(-1, 1, 0, white, {0.f, 0.f}), vtx(1, 1, 0, white, {1.f, 0.f}),
      vtx(1, -1, 0, white, {1.f, 1.f}), vtx(-1, 1, 0, white, {0.f, 0.f}),
      vtx(1, -1, 0, white, {1.f, 1.f}), vtx(-1, -1, 0, white, {0.f, 1.f})};
  RasterState state;
  state.tex_env = TexEnv::kReplace;
  const std::vector<std::uint32_t> before = {0xff0000ffu, 0xff00ff00u,
                                             0xffff0000u, 0xff00ffffu};
  // 3x2 texels at a row pitch of 4.
  std::vector<std::uint32_t> after = {0xffffff00u, 0xffff00ffu, 0xff808080u,
                                      0u,          0xff404040u, 0xffc0c0c0u,
                                      0xff102030u, 0u};
  const auto facade = [&](TextureView texture) {
    std::vector<std::uint32_t> color(kSize * kSize, 0xff000000u);
    Rasterizer().draw(TargetView{color.data(), nullptr, kSize, kSize, kSize},
                      state, PrimitiveKind::kTriangles, quad, texture);
    return color;
  };
  struct Case {
    const char* write;
    std::function<Status(TextureHandle)> apply;
    TextureView result;  // what a draw recorded after the write samples
  };
  const Case cases[] = {
      {"upload_texture",
       [&](TextureHandle t) {
         return dev().upload_texture(t, 0, 0, 2, 2, after.data(), 4);
       },
       TextureView{after.data(), 2, 2, 4}},
      {"define_texture + upload_texture",
       [&](TextureHandle t) {
         if (Status s = dev().define_texture(t, 3, 2); !s.is_ok()) return s;
         return dev().upload_texture(t, 0, 0, 3, 2, after.data(), 4);
       },
       TextureView{after.data(), 3, 2, 4}},
      {"bind_texture_external",
       [&](TextureHandle t) {
         return dev().bind_texture_external(t, after.data(), 3, 2, 4);
       },
       TextureView{after.data(), 3, 2, 4}},
      {"destroy_texture",
       [&](TextureHandle t) { return dev().destroy_texture(t); },
       TextureView{}},
  };
  // Draw A, the write, draw B, then read both back.
  const auto run = [&](const Case& c, int workers) {
    dev().reset();
    const auto texture = dev().create_texture();
    ASSERT_TRUE(dev().define_texture(texture, 2, 2).is_ok());
    ASSERT_TRUE(
        dev().upload_texture(texture, 0, 0, 2, 2, before.data(), 2).is_ok());
    state.texture = texture;
    const auto target_a = dev().create_target(kSize, kSize, false);
    const auto target_b = dev().create_target(kSize, kSize, false);
    dev().submit_draw(target_a, state, PrimitiveKind::kTriangles, quad);
    ASSERT_TRUE(c.apply(texture).is_ok()) << c.write;
    dev().submit_draw(target_b, state, PrimitiveKind::kTriangles, quad);
    std::vector<std::uint32_t> a(kSize * kSize), b(kSize * kSize);
    ASSERT_TRUE(
        dev().read_pixels(target_a, 0, 0, kSize, kSize, a.data(), kSize)
            .is_ok());
    ASSERT_TRUE(
        dev().read_pixels(target_b, 0, 0, kSize, kSize, b.data(), kSize)
            .is_ok());
    EXPECT_EQ(a, facade(TextureView{before.data(), 2, 2, 2}))
        << "draw recorded before " << c.write << " at " << workers
        << " worker(s)";
    EXPECT_EQ(b, facade(c.result)) << "draw recorded after " << c.write
                                   << " at " << workers << " worker(s)";
  };
  TileWorkerPool& pool = TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  for (const int workers : {1, 4}) {
    pool.set_worker_count(workers);
    for (const Case& c : cases) run(c, workers);
  }
  pool.set_worker_count(saved_workers);
}

TEST_F(GpuTest, PerspectiveDivideHalvesFarGeometry) {
  // A triangle at w=2 lands at half the NDC extent of one at w=1.
  const auto target = dev().create_target(64, 64, false);
  dev().submit_clear(target, std::nullopt, true, {0, 0, 0, 1}, false, 1.f);
  const Color c{1.f, 0.f, 0.f, 1.f};
  ShadedVertex a = vtx(-2, -2, 0, c);
  ShadedVertex b = vtx(2, -2, 0, c);
  ShadedVertex d = vtx(0, 2, 0, c);
  for (ShadedVertex* v : {&a, &b, &d}) v->clip_pos.w = 2.f;
  dev().submit_draw(target, {}, PrimitiveKind::kTriangles, {a, b, d});
  dev().flush();
  const auto stats = dev().stats();
  // NDC extent [-1,1] fully covered would be ~2048 fragments for a triangle
  // spanning the target; w=2 halves each axis: roughly the full triangle.
  EXPECT_GT(stats.fragments_shaded, 1000u);
  EXPECT_LT(stats.fragments_shaded, 3000u);
}

// Two-triangle tile quads composed the way Browser::composite_and_present
// builds them: corners stepped in float NDC, one draw per quad, each quad
// sampling its tile-sized texture from uv (0, 0) to (1, 1).
std::vector<std::vector<ShadedVertex>> tile_quads(int width, int height,
                                                  int tile) {
  const Color white{1.f, 1.f, 1.f, 1.f};
  const float sx = 2.f / static_cast<float>(width);
  const float sy = 2.f / static_cast<float>(height);
  const int cols = (width + tile - 1) / tile;
  const int rows = (height + tile - 1) / tile;
  std::vector<std::vector<ShadedVertex>> quads;
  for (int row = 0; row < rows; ++row) {
    for (int col = 0; col < cols; ++col) {
      const float x0 = -1.f + col * tile * sx;
      const float x1 = x0 + tile * sx;
      const float y0 = 1.f - row * tile * sy;
      const float y1 = y0 - tile * sy;
      quads.push_back({vtx(x0, y0, 0, white, {0, 0}),
                       vtx(x1, y0, 0, white, {1, 0}),
                       vtx(x1, y1, 0, white, {1, 1}),
                       vtx(x0, y0, 0, white, {0, 0}),
                       vtx(x1, y1, 0, white, {1, 1}),
                       vtx(x0, y1, 0, white, {0, 1})});
    }
  }
  return quads;
}

// Tile quads cover every pixel exactly once: no seam left at the clear
// color, and no pixel on a shared edge shaded by both triangles.
TEST_F(GpuTest, TileQuadsCoverEveryPixelExactlyOnce) {
  struct Case {
    int width, height, tile;
  };
  for (const Case c : {Case{320, 480, 64}, Case{192, 160, 64},
                       Case{320, 480, 48}, Case{101, 77, 17},
                       Case{333, 217, 64}, Case{512, 512, 64}}) {
    dev().reset();
    const auto target = dev().create_target(c.width, c.height, false);
    dev().submit_clear(target, std::nullopt, true, {0, 0, 0, 1}, false, 1.f);
    for (const auto& quad : tile_quads(c.width, c.height, c.tile)) {
      dev().submit_draw(target, {}, PrimitiveKind::kTriangles, quad);
    }
    const std::size_t count = static_cast<std::size_t>(c.width) * c.height;
    std::vector<std::uint32_t> pixels(count);
    ASSERT_TRUE(dev()
                    .read_pixels(target, 0, 0, c.width, c.height,
                                 pixels.data(), c.width)
                    .is_ok());
    const auto holes = std::count(pixels.begin(), pixels.end(), 0xff000000u);
    EXPECT_EQ(holes, 0) << c.width << "x" << c.height << " with " << c.tile
                        << "-px quads";
    EXPECT_EQ(dev().stats().fragments_shaded, count)
        << c.width << "x" << c.height << " with " << c.tile << "-px quads";
  }
}

// The fragment loops' two exact shortcuts: nearest + replace writes the
// texel word, and modulating by an exactly white vertex color is replace.
// Both rest on pack(unpack(t)) == t and t * 1 == t for every channel value.
TEST_F(GpuTest, TexelShortcutsAreExactForEveryChannelValue) {
  const Color white{1.f, 1.f, 1.f, 1.f};
  std::vector<std::uint32_t> texels(256);
  for (std::uint32_t v = 0; v < 256; ++v) {
    texels[v] = v | ((255 - v) << 8) | (((v * 7) & 0xff) << 16) |
                (((v * 13 + 5) & 0xff) << 24);
    const Color unpacked = unpack_rgba8888(texels[v]);
    EXPECT_EQ(pack_rgba8888(unpacked), texels[v]) << v;
    EXPECT_EQ(pack_rgba8888(unpacked * white), texels[v]) << v;
  }
  const auto texture = dev().create_texture();
  ASSERT_TRUE(dev().define_texture(texture, 16, 16).is_ok());
  ASSERT_TRUE(
      dev().upload_texture(texture, 0, 0, 16, 16, texels.data(), 16).is_ok());
  const auto render = [&](TexEnv env, bool blend) {
    const auto target = dev().create_target(16, 16, false);
    RasterState state;
    state.texture = texture;
    state.tex_env = env;
    // One/Zero blending takes the general output path, which unpacks,
    // combines and packs instead of writing the texel word.
    state.blend = blend;
    state.blend_src = BlendFactor::kOne;
    state.blend_dst = BlendFactor::kZero;
    dev().submit_draw(target, state, PrimitiveKind::kTriangles,
                      {vtx(-1, 1, 0, white, {0.f, 0.f}),
                       vtx(1, 1, 0, white, {1.f, 0.f}),
                       vtx(1, -1, 0, white, {1.f, 1.f}),
                       vtx(-1, 1, 0, white, {0.f, 0.f}),
                       vtx(1, -1, 0, white, {1.f, 1.f}),
                       vtx(-1, -1, 0, white, {0.f, 1.f})});
    std::vector<std::uint32_t> pixels(256);
    EXPECT_TRUE(
        dev().read_pixels(target, 0, 0, 16, 16, pixels.data(), 16).is_ok());
    return pixels;
  };
  EXPECT_EQ(render(TexEnv::kReplace, false), texels);
  EXPECT_EQ(render(TexEnv::kModulate, false), texels);
  EXPECT_EQ(render(TexEnv::kModulate, true), texels);
}

// A quad over pixels [px0, px1) x [py0, py1) of a width x height target,
// sampling uv0 at its top-left corner and uv1 at its bottom-right one. Its
// bottom corners sit at clip w = `bottom_w` (1 keeps the varyings affine).
std::vector<ShadedVertex> pixel_quad(int width, int height, float px0,
                                     float py0, float px1, float py1,
                                     Vec2 uv0, Vec2 uv1,
                                     float bottom_w = 1.f) {
  const Color white{1.f, 1.f, 1.f, 1.f};
  const float x0 = -1.f + 2.f * px0 / static_cast<float>(width);
  const float x1 = -1.f + 2.f * px1 / static_cast<float>(width);
  const float y0 = 1.f - 2.f * py0 / static_cast<float>(height);
  const float y1 = 1.f - 2.f * py1 / static_cast<float>(height);
  ShadedVertex bl = vtx(x0, y1, 0, white, {uv0.x, uv1.y});
  ShadedVertex br = vtx(x1, y1, 0, white, uv1);
  for (ShadedVertex* v : {&bl, &br}) {
    v->clip_pos = v->clip_pos * bottom_w;
  }
  const ShadedVertex tl = vtx(x0, y0, 0, white, uv0);
  const ShadedVertex tr = vtx(x1, y0, 0, white, {uv1.x, uv0.y});
  return {tl, tr, br, tl, br, bl};
}

// A span whose samples are provably texel-exact is written as one row copy
// of its texels. Each case is drawn as is and with One/Zero blending, whose
// generic output unpacks, combines and packs and is never copied, on the
// serial façade and on the device at 1 and 4 tile workers: every screen
// and fragment count must equal the façade's unblended one, and spans are
// copied in exactly the copy cases.
TEST_F(GpuTest, CopySpansMatchThePerPixelPath) {
  struct Case {
    const char* name;
    int width, height;  // the target
    int tex_width, tex_height;
    TextureFilter filter;
    TextureWrap wrap;
    std::vector<std::vector<ShadedVertex>> draws;
    bool copies;
    bool feedback = false;  // the texture is the target's own memory
  };
  const Color white{1.f, 1.f, 1.f, 1.f};
  // One quad over the whole target (uv0 to uv1 is a present's 1:1 blit).
  const auto full = [](int width, int height, Vec2 uv0 = {0, 0},
                       Vec2 uv1 = {1, 1}, float bottom_w = 1.f) {
    return std::vector<std::vector<ShadedVertex>>{
        pixel_quad(width, height, 0, 0, static_cast<float>(width),
                   static_cast<float>(height), uv0, uv1, bottom_w)};
  };
  // 48x48 pixels at (10, 20) of a 128x128 target sampling 48x48 texels of a
  // 64x64 texture from texel (8 + dx, 4 + dy).
  const auto offset_quad = [](float dx, float dy) {
    return std::vector<std::vector<ShadedVertex>>{
        pixel_quad(128, 128, 10, 20, 58, 68, {(8 + dx) / 64, (4 + dy) / 64},
                   {(56 + dx) / 64, (52 + dy) / 64})};
  };
  // One triangle whose every span is [1, 64) of a 64x64 target, in which
  // pixel x samples the target's own pixel x - 1: the per-pixel loop
  // smears pixel 0 along the row, where a row copy would shift the row.
  // The target is one tile, so the façade and the device read the
  // feedback in the same order.
  const auto feedback_triangle = [&] {
    std::vector<ShadedVertex> triangle;
    for (const auto& [px, py] : {std::pair{1.f, -100.f},
                                 std::pair{1.f, 200.f},
                                 std::pair{300.f, 50.f}}) {
      triangle.push_back(vtx(-1.f + px / 32, 1.f - py / 32, 0, white,
                             {(px - 1) / 64, py / 64}));
    }
    return std::vector<std::vector<ShadedVertex>>{triangle};
  };
  constexpr auto kNearest = TextureFilter::kNearest;
  constexpr auto kLinear = TextureFilter::kLinear;
  constexpr auto kRepeat = TextureWrap::kRepeat;
  constexpr auto kClamp = TextureWrap::kClampToEdge;
  const float half = 0.5f / 64;
  const Case cases[] = {
      {"present 128x128", 128, 128, 128, 128, kNearest, kRepeat,
       full(128, 128), true},
      {"present 512x512", 512, 512, 512, 512, kNearest, kRepeat,
       full(512, 512), true},
      {"present 320x480", 320, 480, 320, 480, kNearest, kRepeat,
       full(320, 480), true},
      {"present 333x217", 333, 217, 333, 217, kNearest, kRepeat,
       full(333, 217), true},
      {"browser tiles", 320, 480, 64, 64, kLinear, kRepeat,
       tile_quads(320, 480, 64), true},
      {"nearest at integer texel offsets", 128, 128, 64, 64, kNearest,
       kRepeat, offset_quad(0, 0), true},
      {"nearest at +0.2 texel", 128, 128, 64, 64, kNearest, kRepeat,
       offset_quad(0.2f, 0.2f), true},
      {"nearest at -0.2 texel", 128, 128, 64, 64, kNearest, kRepeat,
       offset_quad(-0.2f, -0.2f), true},
      {"nearest 4x magnified", 128, 128, 32, 32, kNearest, kRepeat,
       full(128, 128), false},
      {"linear 4x magnified", 128, 128, 32, 32, kLinear, kRepeat,
       full(128, 128), false},
      {"nearest 1.5x magnified", 96, 96, 64, 64, kNearest, kRepeat,
       full(96, 96), false},
      {"mirrored u", 64, 64, 64, 64, kNearest, kRepeat,
       full(64, 64, {1, 0}, {0, 1}), false},
      {"linear at a half-texel offset", 64, 64, 64, 64, kLinear, kRepeat,
       full(64, 64, {half, 0}, {1 + half, 1}), false},
      {"linear at a half-texel v offset", 64, 64, 64, 64, kLinear, kRepeat,
       full(64, 64, {0, half}, {1, 1 + half}), false},
      {"linear non-power-of-two", 96, 96, 96, 96, kLinear, kRepeat,
       full(96, 96), false},
      // Pixel x samples texel x + 1 at its center: only the width keeps
      // du from being exactly 1/W.
      {"linear non-power-of-two at a texel offset", 96, 96, 96, 96, kLinear,
       kRepeat,
       {pixel_quad(96, 96, 0, 0, 64, 64, {1.f / 96, 1.f / 96},
                   {65.f / 96, 65.f / 96})},
       false},
      // Starts 0.95 into a texel and drifts 0.09 texel over 60 pixels.
      {"nearest near a texel edge, 0.15% minified", 64, 64, 64, 64, kNearest,
       kRepeat,
       {pixel_quad(64, 64, 2, 2, 62, 62, {0.45f / 64, 0.5f / 64},
                   {60.54f / 64, 60.5f / 64})},
       false},
      {"v sheared along the row", 64, 64, 64, 64, kNearest, kRepeat,
       {{vtx(-1, 1, 0, white, {0, 0}), vtx(1, 1, 0, white, {1, 0.25f}),
         vtx(1, -1, 0, white, {1, 1.25f}), vtx(-1, 1, 0, white, {0, 0}),
         vtx(1, -1, 0, white, {1, 1.25f}), vtx(-1, -1, 0, white, {0, 1})}},
       false},
      {"perspective", 64, 64, 64, 64, kNearest, kRepeat,
       full(64, 64, {0, 0}, {1, 1}, 2.f), false},
      {"uv past [0, 1], repeat", 64, 64, 64, 64, kNearest, kRepeat,
       full(64, 64, {1, 1}, {2, 2}), false},
      {"uv past [0, 1], clamp", 64, 64, 64, 64, kNearest, kClamp,
       full(64, 64, {-1, -1}, {0, 0}), false},
      {"framebuffer feedback", 64, 64, 64, 64, kNearest, kRepeat,
       feedback_triangle(), false, true},
  };

  const auto pattern = [](std::size_t count, std::uint32_t seed) {
    std::vector<std::uint32_t> words(count);
    std::uint32_t x = seed;
    for (std::uint32_t& word : words) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      word = x;
    }
    return words;
  };
  struct Result {
    std::vector<std::uint32_t> pixels;
    std::uint64_t fragments = 0;
    std::uint64_t spans_copied = 0;
  };
  trace::Counter& copied =
      trace::MetricsRegistry::instance().counter("pipeline.spans_copied");
  TileWorkerPool& pool = TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  // workers == 0 draws on the façade.
  const auto render = [&](const Case& c, bool blend, int workers) {
    const std::vector<std::uint32_t> texels = pattern(
        static_cast<std::size_t>(c.tex_width) * c.tex_height, 0x9e3779b9u);
    Result result;
    result.pixels = pattern(static_cast<std::size_t>(c.width) * c.height,
                            0x85ebca6bu);
    RasterState state;
    state.filter = c.filter;
    state.wrap = c.wrap;
    state.tex_env = TexEnv::kReplace;
    state.blend = blend;
    state.blend_src = BlendFactor::kOne;
    state.blend_dst = BlendFactor::kZero;
    if (workers == 0) {
      const TargetView target{result.pixels.data(), nullptr, c.width,
                              c.height, c.width};
      const TextureView texture =
          c.feedback ? TextureView{result.pixels.data(), c.width, c.height,
                                   c.width}
                     : TextureView{texels.data(), c.tex_width, c.tex_height,
                                   c.tex_width};
      Rasterizer rasterizer;
      for (const auto& draw : c.draws) {
        result.fragments += rasterizer.draw(
            target, state, PrimitiveKind::kTriangles, draw, texture);
      }
      result.spans_copied = rasterizer.spans_copied();
      return result;
    }
    pool.set_worker_count(workers);
    dev().reset();
    const auto target = dev().create_target_external(
        result.pixels.data(), c.width, c.height, c.width, false);
    state.texture = dev().create_texture();
    if (c.feedback) {
      EXPECT_TRUE(dev()
                      .bind_texture_external(state.texture,
                                             result.pixels.data(), c.width,
                                             c.height, c.width)
                      .is_ok());
    } else {
      EXPECT_TRUE(
          dev().define_texture(state.texture, c.tex_width, c.tex_height)
              .is_ok());
      EXPECT_TRUE(dev()
                      .upload_texture(state.texture, 0, 0, c.tex_width,
                                      c.tex_height, texels.data(),
                                      c.tex_width)
                      .is_ok());
    }
    const std::uint64_t copied_before = copied.value();
    for (const auto& draw : c.draws) {
      dev().submit_draw(target, state, PrimitiveKind::kTriangles, draw);
    }
    dev().flush();
    result.fragments = dev().stats().fragments_shaded;
    result.spans_copied = copied.value() - copied_before;
    dev().reset();  // the target aliases result.pixels
    return result;
  };

  for (const Case& c : cases) {
    const Result reference = render(c, false, 0);
    EXPECT_EQ(reference.spans_copied > 0, c.copies) << c.name;
    for (const bool blend : {false, true}) {
      for (const int workers : {0, 1, 4}) {
        const Result r = render(c, blend, workers);
        const auto where = [&] {
          return std::string(c.name) + (blend ? ", One/Zero blended" : "") +
                 (workers == 0 ? ", facade"
                               : ", " + std::to_string(workers) +
                                     " worker(s)");
        };
        EXPECT_EQ(r.pixels, reference.pixels) << where();
        EXPECT_EQ(r.fragments, reference.fragments) << where();
        EXPECT_EQ(r.spans_copied > 0, c.copies && !blend) << where();
      }
    }
  }
  pool.set_worker_count(saved_workers);
}

// Golden bytes for every fragment loop prepare_draw can choose: depth test
// off and on (against a depth buffer cleared to 0.5, so some fragments
// fail), the five texture kinds and the three outputs, the generic one
// with a non-alpha factor pair and a color mask. Each scene draws over a
// pseudo-random background on a 256x128 target (4x2 tiles):
//   - a 13x7 texture 4x magnified under repeat, with v sheared along the
//     rows, so a row's samples change texel row where they keep the column;
//   - the same texture 1.5x magnified under clamp and 0.5x minified under
//     repeat, and a perspective quad under repeat;
//   - a 16x8 texture 4x magnified on the texel grid, as PassMark's Image
//     Filters draws, where every weight is exact and a bilinear sum often
//     lands on a rounding tie;
//   - two lines and two 3-px points.
// Nearest scenes draw the same. Vertex colors leave [0, 1] and one vertex
// has a NaN channel. A last scene samples the target's own pixels, 4x
// magnified along each row and ahead of the pixel being shaded, so the
// loop samples texels it has just written. Every screen, drawn on the
// serial façade and on the device at 1 and 4 tile workers, must hash to
// the constant recorded at commit 6b642fe, whose fragment stage shaded one
// float channel at a time.
TEST_F(GpuTest, FragmentLoopsKeepTheirBytes) {
  constexpr int kWidth = 256;
  constexpr int kHeight = 128;
  struct Scene {
    bool depth;
    bool textured;
    TextureFilter filter;
    TexEnv env;
    int out;  // 0 write, 1 SrcAlpha/OneMinusSrcAlpha, 2 generic
    bool feedback;
    std::uint64_t hash;
  };
  constexpr auto kNearest = TextureFilter::kNearest;
  constexpr auto kLinear = TextureFilter::kLinear;
  constexpr auto kReplace = TexEnv::kReplace;
  constexpr auto kModulate = TexEnv::kModulate;
  const Scene scenes[] = {
      {false, false, kNearest, kModulate, 0, false, 0xc2e0b16c3fe9168aull},
      {false, false, kNearest, kModulate, 1, false, 0xe1889adef2bd6ea4ull},
      {false, false, kNearest, kModulate, 2, false, 0x07f2f96c7c1883d1ull},
      {false, true, kNearest, kReplace, 0, false, 0x5a54ce00d8fe489dull},
      {false, true, kNearest, kReplace, 1, false, 0x88d57e41037375f1ull},
      {false, true, kNearest, kReplace, 2, false, 0x6ed142bd6f509781ull},
      {false, true, kNearest, kModulate, 0, false, 0x83e6cb1a24da8c3aull},
      {false, true, kNearest, kModulate, 1, false, 0xd8183cbdbd2b3fcaull},
      {false, true, kNearest, kModulate, 2, false, 0x99ccb3e730d15d6full},
      {false, true, kLinear, kReplace, 0, false, 0xe238e731c06a79b3ull},
      {false, true, kLinear, kReplace, 1, false, 0xdb7a4dc130853891ull},
      {false, true, kLinear, kReplace, 2, false, 0x8f6a8b24ee2a421bull},
      {false, true, kLinear, kModulate, 0, false, 0x34411292dae4af8eull},
      {false, true, kLinear, kModulate, 1, false, 0x8a04909296b58a9cull},
      {false, true, kLinear, kModulate, 2, false, 0x4a5baaa1f1489ea3ull},
      {true, false, kNearest, kModulate, 0, false, 0xae046332e8d8dc06ull},
      {true, false, kNearest, kModulate, 1, false, 0x2a41bad5be98906cull},
      {true, false, kNearest, kModulate, 2, false, 0xc18805026a77ee3bull},
      {true, true, kNearest, kReplace, 0, false, 0xbcc4ab8044db8814ull},
      {true, true, kNearest, kReplace, 1, false, 0x82be6410d8269e95ull},
      {true, true, kNearest, kReplace, 2, false, 0x38826f55ce66ee24ull},
      {true, true, kNearest, kModulate, 0, false, 0x1e8f54590fa04d91ull},
      {true, true, kNearest, kModulate, 1, false, 0xdea43a63fc2299afull},
      {true, true, kNearest, kModulate, 2, false, 0x48749c2f34ed8dbeull},
      {true, true, kLinear, kReplace, 0, false, 0x7fe6524f9b89dbcaull},
      {true, true, kLinear, kReplace, 1, false, 0xaba6c2141c943d7eull},
      {true, true, kLinear, kReplace, 2, false, 0x56983005f1744220ull},
      {true, true, kLinear, kModulate, 0, false, 0x811d7bc65863a0fbull},
      {true, true, kLinear, kModulate, 1, false, 0xdb35f02ca183e2b4ull},
      {true, true, kLinear, kModulate, 2, false, 0xbe039c6b165eb16aull},
      {false, true, kLinear, kModulate, 0, true, 0x4cb069b429c23f3cull},
  };

  const auto pattern = [](std::size_t count, std::uint32_t seed) {
    std::vector<std::uint32_t> words(count);
    std::uint32_t x = seed;
    for (std::uint32_t& word : words) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      word = x;
    }
    return words;
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Color c0{1.3f, -0.2f, 0.5f, 0.7f};
  const Color c1{0.1f, 0.9f, 1.6f, 0.35f};
  const Color c2{-0.5f, 0.45f, 0.2f, 1.2f};
  const Color c3{0.8f, 0.3f, 0.9f, 0.05f};
  // A vertex at pixel (px, py) of the target, clip depth z. The divisions
  // are by powers of two, so integer pixels are exact clip coordinates.
  const auto at = [](float px, float py, float z, Color color, Vec2 uv,
                     float w = 1.f) {
    ShadedVertex v = vtx(px / (kWidth / 2) - 1.f, 1.f - py / (kHeight / 2),
                         z, color, uv);
    v.clip_pos = v.clip_pos * w;
    return v;
  };
  // Pixels [x0, x1) x [y0, y1) sampling uv0 at the top left and uv1 at the
  // bottom right, v growing by `shear` along the rows; the bottom corners
  // sit at clip w = `w`.
  const auto quad = [&](float x0, float y0, float x1, float y1, Vec2 uv0,
                        Vec2 uv1, Color top_right, float w = 1.f,
                        float shear = 0.f) {
    const ShadedVertex tl = at(x0, y0, -0.8f, c0, uv0);
    const ShadedVertex tr =
        at(x1, y0, 0.1f, top_right, {uv1.x, uv0.y + shear});
    const ShadedVertex br = at(x1, y1, 0.9f, c2, {uv1.x, uv1.y + shear}, w);
    const ShadedVertex bl = at(x0, y1, -0.2f, c3, {uv0.x, uv1.y}, w);
    return std::vector<ShadedVertex>{tl, tr, br, tl, br, bl};
  };
  enum Source { kNpot, kPot, kTarget };  // what a draw samples
  struct Draw {
    PrimitiveKind kind;
    TextureWrap wrap;
    Source source;
    std::vector<ShadedVertex> vertices;
  };
  constexpr auto kTriangles = PrimitiveKind::kTriangles;
  constexpr auto kRepeat = TextureWrap::kRepeat;
  constexpr auto kClamp = TextureWrap::kClampToEdge;
  const std::vector<Draw> draws = {
      // 52x28 pixels over 13x7 texels from (-0.3, 0.2): 4x, repeating.
      {kTriangles, kRepeat, kNpot,
       quad(3, 4, 55, 32, {-0.3f, 0.2f}, {0.7f, 1.2f}, c1, 1.f, 0.5f)},
      // 39x21 pixels over 26x14 texels from (-0.5, -0.5): 1.5x, clamped.
      {kTriangles, kClamp, kNpot,
       quad(40, 20, 79, 41, {-0.5f, -0.5f}, {1.5f, 1.5f},
            {0.6f, nan, 0.4f, 0.9f})},
      // 26x14 pixels over 52x28 texels: 0.5x, repeating.
      {kTriangles, kRepeat, kNpot,
       quad(70, 50, 96, 64, {0.1f, 0.f}, {4.1f, 4.f}, c1)},
      {kTriangles, kRepeat, kNpot,
       quad(20, 30, 140, 85, {0.2f, -0.1f}, {2.2f, 3.4f}, c1, 2.5f)},
      // 64x32 pixels over 16x8 texels on the texel grid: 4x.
      {kTriangles, kRepeat, kPot,
       quad(120, 70, 184, 102, {0.f, 0.f}, {1.f, 1.f}, c1)},
      {PrimitiveKind::kLines, kRepeat, kNpot,
       {at(2, 120, -0.5f, c0, {0.f, 0.f}), at(250, 3, 0.5f, c2, {3.f, 2.f}),
        at(60, 10, 0.3f, c1, {0.5f, 0.1f}),
        at(70, 110, -0.6f, c3, {1.5f, 1.9f})}},
      {PrimitiveKind::kPoints, kRepeat, kNpot,
       {at(64, 64, -0.4f, c1, {0.3f, 0.6f}),
        at(100, 20, 0.2f, c2, {0.8f, 0.2f})}},
  };
  // Pixel x of each row of [0, 200) samples the target's texel column
  // 100 + x / 4 of its own row, which pixel x writes when x reaches it.
  const std::vector<Draw> feedback_draws = {
      {kTriangles, kRepeat, kTarget,
       quad(0, 0, 200, kHeight, {100.f / kWidth, 0.f}, {150.f / kWidth, 1.f},
            c1)},
  };

  constexpr int kNpotWidth = 13, kNpotHeight = 7;
  constexpr int kPotWidth = 16, kPotHeight = 8;
  const std::vector<std::uint32_t> npot =
      pattern(static_cast<std::size_t>(kNpotWidth) * kNpotHeight, 0x2545f491u);
  const std::vector<std::uint32_t> pot =
      pattern(static_cast<std::size_t>(kPotWidth) * kPotHeight, 0x68e31da4u);
  const Color background{0.25f, 0.5f, 0.75f, 0.5f};
  TileWorkerPool& pool = TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  // workers == 0 draws on the façade.
  const auto render = [&](const Scene& scene, int workers) {
    Image screen(kWidth, kHeight);
    std::vector<std::uint32_t>& pixels = screen.pixels();
    pixels = pattern(pixels.size(), 0x85ebca6bu);
    RasterState state;
    state.depth_test = scene.depth;
    state.filter = scene.filter;
    state.tex_env = scene.env;
    state.point_size = 3.f;
    if (scene.out == 1) {
      state.blend = true;
      state.blend_src = BlendFactor::kSrcAlpha;
      state.blend_dst = BlendFactor::kOneMinusSrcAlpha;
    } else if (scene.out == 2) {
      state.blend = true;
      state.blend_src = BlendFactor::kSrcColor;
      state.blend_dst = BlendFactor::kOneMinusDstAlpha;
      state.color_mask[1] = false;
    }
    const std::vector<Draw>& list = scene.feedback ? feedback_draws : draws;
    if (workers == 0) {
      std::vector<float> depths(static_cast<std::size_t>(kWidth) * kHeight);
      const TargetView target{pixels.data(), depths.data(), kWidth, kHeight,
                              kWidth};
      const TextureView textures[] = {
          {npot.data(), kNpotWidth, kNpotHeight, kNpotWidth},
          {pot.data(), kPotWidth, kPotHeight, kPotWidth},
          {pixels.data(), kWidth, kHeight, kWidth}};
      Rasterizer rasterizer;
      rasterizer.clear(target, std::nullopt, false, background, true, 0.5f);
      for (const Draw& draw : list) {
        state.wrap = draw.wrap;
        rasterizer.draw(target, state, draw.kind, draw.vertices,
                        scene.textured ? textures[draw.source]
                                       : TextureView{});
      }
      return screen;
    }
    pool.set_worker_count(workers);
    dev().reset();
    const auto target = dev().create_target_external(pixels.data(), kWidth,
                                                     kHeight, kWidth, true);
    TextureHandle textures[3] = {kNoHandle, kNoHandle, kNoHandle};
    if (scene.textured) {
      const auto define = [&](const std::vector<std::uint32_t>& texels,
                              int width, int height) {
        const TextureHandle texture = dev().create_texture();
        EXPECT_TRUE(dev().define_texture(texture, width, height).is_ok());
        EXPECT_TRUE(dev()
                        .upload_texture(texture, 0, 0, width, height,
                                        texels.data(), width)
                        .is_ok());
        return texture;
      };
      textures[kNpot] = define(npot, kNpotWidth, kNpotHeight);
      textures[kPot] = define(pot, kPotWidth, kPotHeight);
      textures[kTarget] = dev().create_texture();
      EXPECT_TRUE(dev()
                      .bind_texture_external(textures[kTarget],
                                             pixels.data(), kWidth, kHeight,
                                             kWidth)
                      .is_ok());
    }
    dev().submit_clear(target, std::nullopt, false, background, true, 0.5f);
    for (const Draw& draw : list) {
      state.wrap = draw.wrap;
      state.texture = textures[draw.source];
      dev().submit_draw(target, state, draw.kind, draw.vertices);
    }
    dev().flush();
    dev().reset();  // the target aliases `pixels`
    return screen;
  };

  for (std::size_t i = 0; i < std::size(scenes); ++i) {
    const Scene& scene = scenes[i];
    for (const int workers : {0, 1, 4}) {
      // The feedback scene samples pixels of other tiles; the device runs
      // such a phase on one thread but tile by tile, an order the façade's
      // whole rows do not share, so the façade alone draws it.
      if (scene.feedback && workers != 0) continue;
      EXPECT_EQ(fnv1a_hash(render(scene, workers)), scene.hash)
          << "scene " << i << " at " << workers << " worker(s)";
    }
  }
  pool.set_worker_count(saved_workers);
}

// Property sweep: clears of any size/scissor never write outside the rect.
class ClearSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ClearSweepTest, ScissorIsRespected) {
  GpuDevice::instance().reset();
  auto& dev = GpuDevice::instance();
  const auto [x, y, w, h] = GetParam();
  const int size = 16;
  const auto target = dev.create_target(size, size, false);
  dev.submit_clear(target, std::nullopt, true, {0, 0, 0, 1}, false, 1.f);
  dev.submit_clear(target, ScissorRect{x, y, w, h}, true, {1, 1, 1, 1}, false,
                   1.f);
  std::vector<std::uint32_t> pixels(size * size);
  ASSERT_TRUE(
      dev.read_pixels(target, 0, 0, size, size, pixels.data(), size).is_ok());
  for (int py = 0; py < size; ++py) {
    for (int px = 0; px < size; ++px) {
      const bool inside = px >= x && px < x + w && py >= y && py < y + h;
      EXPECT_EQ(pixels[py * size + px], inside ? 0xffffffffu : 0xff000000u)
          << px << "," << py;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rects, ClearSweepTest,
    ::testing::Values(std::make_tuple(0, 0, 16, 16),
                      std::make_tuple(0, 0, 1, 1),
                      std::make_tuple(15, 15, 1, 1),
                      std::make_tuple(4, 8, 8, 4),
                      std::make_tuple(8, 0, 8, 16),
                      std::make_tuple(0, 0, 0, 0)));

}  // namespace
}  // namespace cycada::gpu
