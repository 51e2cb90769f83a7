#include "util/image.h"

#include <cstdio>
#include <cstdlib>

namespace cycada {

std::size_t Image::diff_count(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    return static_cast<std::size_t>(a.width()) * a.height();
  }
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < a.pixels_.size(); ++i) {
    if (a.pixels_[i] != b.pixels_[i]) ++diffs;
  }
  return diffs;
}

int Image::max_channel_delta(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) return 255;
  int max_delta = 0;
  for (std::size_t i = 0; i < a.pixels_.size(); ++i) {
    const std::uint32_t pa = a.pixels_[i];
    const std::uint32_t pb = b.pixels_[i];
    for (int shift = 0; shift < 32; shift += 8) {
      const int ca = static_cast<int>((pa >> shift) & 0xff);
      const int cb = static_cast<int>((pb >> shift) & 0xff);
      max_delta = std::max(max_delta, std::abs(ca - cb));
    }
  }
  return max_delta;
}

bool Image::write_ppm(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  std::fprintf(file, "P6\n%d %d\n255\n", width_, height_);
  for (std::uint32_t pixel : pixels_) {
    const unsigned char rgb[3] = {
        static_cast<unsigned char>(pixel & 0xff),
        static_cast<unsigned char>((pixel >> 8) & 0xff),
        static_cast<unsigned char>((pixel >> 16) & 0xff),
    };
    std::fwrite(rgb, 1, 3, file);
  }
  const bool ok = std::fclose(file) == 0;
  return ok;
}

std::uint64_t fnv1a_hash(const Image& image) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const std::uint32_t pixel : image.pixels()) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (pixel >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

}  // namespace cycada
