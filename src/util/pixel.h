// Pixel formats and color conversion shared by the GPU, the graphics-memory
// allocators (gralloc / IOSurface) and the 2D drawing paths.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace cycada {

// The formats both graphics stacks allocate. RGBA8888 is the universal
// render-target format; RGB565 and ALPHA8 appear in texture uploads and in
// the IOSurface property tests.
enum class PixelFormat : std::uint8_t {
  kRgba8888,
  kRgbx8888,
  kRgb565,
  kAlpha8,
  kLuminance8,
};

constexpr std::size_t bytes_per_pixel(PixelFormat format) {
  switch (format) {
    case PixelFormat::kRgba8888:
    case PixelFormat::kRgbx8888: return 4;
    case PixelFormat::kRgb565: return 2;
    case PixelFormat::kAlpha8:
    case PixelFormat::kLuminance8: return 1;
  }
  return 0;
}

const char* pixel_format_name(PixelFormat format);

// Floating-point RGBA color in [0,1], the rasterizer's working space.
struct Color {
  float r = 0.f, g = 0.f, b = 0.f, a = 1.f;

  friend Color operator*(Color c, float s) {
    return {c.r * s, c.g * s, c.b * s, c.a * s};
  }
  friend Color operator*(Color x, Color y) {
    return {x.r * y.r, x.g * y.g, x.b * y.b, x.a * y.a};
  }
  friend Color operator+(Color x, Color y) {
    return {x.r + y.r, x.g + y.g, x.b + y.b, x.a + y.a};
  }
};

// Packs a float color to a 32-bit RGBA8888 value (R in the low byte,
// matching GL_RGBA/GL_UNSIGNED_BYTE memory order on little-endian). A NaN
// channel packs as 0. The rasterizer's four-lane pack and unpack
// (gpu/raster.cpp) compute these two rules' bytes exactly.
inline std::uint32_t pack_rgba8888(Color c) {
  const auto to8 = [](float v) {
    v = v > 0.f ? v : 0.f;
    v = v < 1.f ? v : 1.f;
    return static_cast<std::uint32_t>(v * 255.f + 0.5f);
  };
  return to8(c.r) | (to8(c.g) << 8) | (to8(c.b) << 16) | (to8(c.a) << 24);
}

inline Color unpack_rgba8888(std::uint32_t packed) {
  constexpr float kInv = 1.f / 255.f;
  return {
      static_cast<float>(packed & 0xff) * kInv,
      static_cast<float>((packed >> 8) & 0xff) * kInv,
      static_cast<float>((packed >> 16) & 0xff) * kInv,
      static_cast<float>((packed >> 24) & 0xff) * kInv,
  };
}

std::uint16_t pack_rgb565(Color c);
Color unpack_rgb565(std::uint16_t packed);

inline float clamp01(float v) { return std::clamp(v, 0.f, 1.f); }

}  // namespace cycada
