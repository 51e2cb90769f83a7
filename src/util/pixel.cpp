#include "util/pixel.h"

namespace cycada {

const char* pixel_format_name(PixelFormat format) {
  switch (format) {
    case PixelFormat::kRgba8888: return "RGBA8888";
    case PixelFormat::kRgbx8888: return "RGBX8888";
    case PixelFormat::kRgb565: return "RGB565";
    case PixelFormat::kAlpha8: return "ALPHA8";
    case PixelFormat::kLuminance8: return "LUMINANCE8";
  }
  return "UNKNOWN";
}

std::uint16_t pack_rgb565(Color c) {
  const auto r = static_cast<std::uint16_t>(clamp01(c.r) * 31.f + 0.5f);
  const auto g = static_cast<std::uint16_t>(clamp01(c.g) * 63.f + 0.5f);
  const auto b = static_cast<std::uint16_t>(clamp01(c.b) * 31.f + 0.5f);
  return static_cast<std::uint16_t>((r << 11) | (g << 5) | b);
}

Color unpack_rgb565(std::uint16_t packed) {
  return {
      static_cast<float>((packed >> 11) & 0x1f) / 31.f,
      static_cast<float>((packed >> 5) & 0x3f) / 63.f,
      static_cast<float>(packed & 0x1f) / 31.f,
      1.f,
  };
}

}  // namespace cycada
