// A CPU-side RGBA image: the type golden-image tests compare and examples
// dump to disk as PPM.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/pixel.h"

namespace cycada {

class Image {
 public:
  Image() = default;
  Image(int width, int height, std::uint32_t fill = 0xff000000u)
      : width_(width),
        height_(height),
        pixels_(static_cast<std::size_t>(width) * height, fill) {}

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return pixels_.empty(); }

  std::uint32_t& at(int x, int y) {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  std::uint32_t at(int x, int y) const {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }

  const std::vector<std::uint32_t>& pixels() const { return pixels_; }
  std::vector<std::uint32_t>& pixels() { return pixels_; }

  // Number of pixels whose packed value differs between the two images.
  // Returns the total pixel count when dimensions differ.
  static std::size_t diff_count(const Image& a, const Image& b);

  // Max per-channel absolute difference across all pixels (255 on dimension
  // mismatch); used for "visually similar" assertions.
  static int max_channel_delta(const Image& a, const Image& b);

  // Writes a binary PPM (P6) file, alpha dropped. Returns false on I/O error.
  bool write_ppm(const std::string& path) const;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint32_t> pixels_;
};

// FNV-1a 64 over every pixel's four bytes, low byte first: the screen hash
// that fig6_passmark and cycada_fleet compare across worker counts and
// sessions.
std::uint64_t fnv1a_hash(const Image& image);

}  // namespace cycada
