// Types shared across the software GPU: resource handles, vertex formats and
// the fragment-pipeline state blocks that draw commands carry.
#pragma once

#include <cstdint>
#include <optional>

#include "util/geometry.h"
#include "util/pixel.h"

namespace cycada::gpu {

// Opaque resource handles (0 is "none").
using TextureHandle = std::uint32_t;
using RenderTargetHandle = std::uint32_t;
using FenceHandle = std::uint32_t;
inline constexpr std::uint32_t kNoHandle = 0;

enum class PrimitiveKind : std::uint8_t { kPoints, kLines, kTriangles };

// A vertex after the (driver-side) vertex stage: clip-space position plus
// the varyings the fragment stage interpolates.
struct ShadedVertex {
  Vec4 clip_pos;
  Color color{1.f, 1.f, 1.f, 1.f};
  Vec2 texcoord;
};

enum class DepthFunc : std::uint8_t {
  kNever,
  kLess,
  kEqual,
  kLessEqual,
  kGreater,
  kNotEqual,
  kGreaterEqual,
  kAlways,
};

enum class BlendFactor : std::uint8_t {
  kZero,
  kOne,
  kSrcAlpha,
  kOneMinusSrcAlpha,
  kDstAlpha,
  kOneMinusDstAlpha,
  kSrcColor,
  kOneMinusSrcColor,
};

enum class TextureFilter : std::uint8_t { kNearest, kLinear };
enum class TextureWrap : std::uint8_t { kRepeat, kClampToEdge };

// How the sampled texel combines with the interpolated vertex color.
enum class TexEnv : std::uint8_t { kModulate, kReplace };

enum class CullMode : std::uint8_t { kNone, kBack, kFront };

struct Viewport {
  int x = 0, y = 0, width = 0, height = 0;
};

struct ScissorRect {
  int x = 0, y = 0, width = 0, height = 0;
};

// Fragment-pipeline state snapshot a draw executes under.
struct RasterState {
  Viewport viewport;
  // Per-channel write mask (glColorMask).
  bool color_mask[4] = {true, true, true, true};
  std::optional<ScissorRect> scissor;
  bool depth_test = false;
  bool depth_write = true;
  DepthFunc depth_func = DepthFunc::kLess;
  bool blend = false;
  BlendFactor blend_src = BlendFactor::kOne;
  BlendFactor blend_dst = BlendFactor::kZero;
  TextureHandle texture = kNoHandle;
  TextureFilter filter = TextureFilter::kNearest;
  TextureWrap wrap = TextureWrap::kRepeat;
  TexEnv tex_env = TexEnv::kModulate;
  CullMode cull = CullMode::kNone;
  float point_size = 1.f;
};

// Execution statistics; tests assert on these and EXPERIMENTS.md cites them.
struct GpuStats {
  std::uint64_t draw_commands = 0;
  std::uint64_t clear_commands = 0;
  std::uint64_t triangles = 0;
  std::uint64_t fragments_shaded = 0;
  std::uint64_t fences_signaled = 0;
};

}  // namespace cycada::gpu
