// PassMark-style graphics tests (the seven bars of the paper's Figure 6):
// solid/transparent/complex 2D vectors, image rendering, image filters, and
// simple/complex 3D scenes. All tests run through a GlPort, so the same
// workload executes on every system configuration; the 2D and 3D tests use
// the GLES1 fixed-function API (matching the glRotatef/glTranslatef/
// glPushMatrix profile of the paper's Figure 8).
#pragma once

#include <string>
#include <vector>

#include "glport/gl_port.h"
#include "util/rng.h"

namespace cycada::passmark {

struct TestSpec {
  std::string_view name;
  bool is_3d;
  // Measured frames per Figure 6 run, after one warm-up frame. Simple 3D
  // maximizes frame rate (present-bound); Complex 3D is GPU-bound.
  int frames;
};

// The seven tests, in Figure 6 order.
const std::vector<TestSpec>& test_specs();

class PassMark {
 public:
  // The port must be initialized with GLES version 1.
  explicit PassMark(glport::GlPort& port) : port_(port), rng_(2017) {}

  // Runs `frames` frames of the named test; returns the number of
  // primitives submitted (for ops/sec rates). Unknown names fail.
  StatusOr<std::uint64_t> run(std::string_view name, int frames);

 private:
  std::uint64_t frame_solid_vectors(bool transparent);
  std::uint64_t frame_complex_vectors();
  std::uint64_t frame_image_rendering();
  std::uint64_t frame_image_filters();
  std::uint64_t frame_simple_3d(int frame);
  std::uint64_t frame_complex_3d(int frame);

  void setup_2d();
  void setup_3d();
  glport::GLuint checker_texture(int size);
  Status ensure_filter_buffer();

  glport::GlPort& port_;
  Rng rng_;
  glport::GLuint sprite_texture_ = 0;
  glport::GLuint mesh_texture_ = 0;
  int filter_buffer_ = -1;
  glport::GLuint filter_texture_ = 0;
  std::vector<float> mesh_vertices_;   // complex-3d mesh (xyz)
  std::vector<float> mesh_uvs_;
  std::vector<std::uint16_t> mesh_indices_;
};

}  // namespace cycada::passmark
