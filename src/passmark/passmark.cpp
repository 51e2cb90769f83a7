#include "passmark/passmark.h"

#include <cmath>

namespace cycada::passmark {

namespace gl = cycada::glcore;

const std::vector<TestSpec>& test_specs() {
  static const std::vector<TestSpec>* specs = new std::vector<TestSpec>{
      {"Solid Vectors", false, 8},   {"Transparent Vectors", false, 8},
      {"Complex Vectors", false, 8}, {"Image Rendering", false, 8},
      {"Image Filters", false, 6},   {"Simple 3D", true, 24},
      {"Complex 3D", true, 4},
  };
  return *specs;
}

void PassMark::setup_2d() {
  port_.begin_frame();
  port_.disable(gl::GL_DEPTH_TEST);
  port_.disable(gl::GL_BLEND);
  port_.disable(gl::GL_TEXTURE_2D);
  port_.matrix_mode(gl::GL_PROJECTION);
  port_.load_identity();
  // Pixel coordinate system, y down.
  port_.orthof(0.f, static_cast<float>(port_.width()),
               static_cast<float>(port_.height()), 0.f, -1.f, 1.f);
  port_.matrix_mode(gl::GL_MODELVIEW);
  port_.load_identity();
  port_.clear_color(0.08f, 0.08f, 0.1f, 1.f);
  port_.clear(gl::GL_COLOR_BUFFER_BIT);
}

void PassMark::setup_3d() {
  port_.begin_frame();
  port_.enable(gl::GL_DEPTH_TEST);
  port_.depth_func(gl::GL_LESS);
  port_.disable(gl::GL_BLEND);
  port_.matrix_mode(gl::GL_PROJECTION);
  port_.load_identity();
  port_.frustumf(-0.5f, 0.5f, -0.5f, 0.5f, 1.f, 50.f);
  port_.matrix_mode(gl::GL_MODELVIEW);
  port_.load_identity();
  port_.clear_color(0.02f, 0.02f, 0.08f, 1.f);
  port_.clear(gl::GL_COLOR_BUFFER_BIT | gl::GL_DEPTH_BUFFER_BIT);
}

glport::GLuint PassMark::checker_texture(int size) {
  std::vector<std::uint32_t> texels(static_cast<std::size_t>(size) * size);
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      const bool odd = ((x / 4) + (y / 4)) % 2 != 0;
      texels[static_cast<std::size_t>(y) * size + x] =
          odd ? 0xffd0f0ffu : 0xff3050a0u;
    }
  }
  const glport::GLuint texture = port_.gen_texture();
  port_.bind_texture(texture);
  port_.tex_image(size, size, texels.data());
  port_.tex_filter_nearest(true);
  return texture;
}

std::uint64_t PassMark::frame_solid_vectors(bool transparent) {
  setup_2d();
  if (transparent) {
    port_.enable(gl::GL_BLEND);
    port_.blend_func(gl::GL_SRC_ALPHA, gl::GL_ONE_MINUS_SRC_ALPHA);
  }
  const float w = static_cast<float>(port_.width());
  const float h = static_cast<float>(port_.height());
  std::uint64_t primitives = 0;
  port_.enable_client_state(gl::GL_VERTEX_ARRAY);

  // 120 random triangles + 80 random lines per frame.
  for (int i = 0; i < 120; ++i) {
    const float cx = rng_.next_float(0.f, w);
    const float cy = rng_.next_float(0.f, h);
    const float r = rng_.next_float(4.f, 24.f);
    const float tri[] = {cx, cy - r, cx - r, cy + r, cx + r, cy + r};
    port_.color4f(rng_.next_float(0.2f, 1.f), rng_.next_float(0.2f, 1.f),
                  rng_.next_float(0.2f, 1.f), transparent ? 0.5f : 1.f);
    port_.vertex_pointer(2, tri);
    port_.draw_arrays(gl::GL_TRIANGLES, 0, 3);
    ++primitives;
  }
  for (int i = 0; i < 80; ++i) {
    const float line[] = {rng_.next_float(0.f, w), rng_.next_float(0.f, h),
                          rng_.next_float(0.f, w), rng_.next_float(0.f, h)};
    port_.color4f(rng_.next_float(0.2f, 1.f), rng_.next_float(0.2f, 1.f),
                  rng_.next_float(0.2f, 1.f), transparent ? 0.6f : 1.f);
    port_.vertex_pointer(2, line);
    port_.draw_arrays(gl::GL_LINES, 0, 2);
    ++primitives;
  }
  port_.disable_client_state(gl::GL_VERTEX_ARRAY);
  return primitives;
}

std::uint64_t PassMark::frame_complex_vectors() {
  setup_2d();
  const float w = static_cast<float>(port_.width());
  const float h = static_cast<float>(port_.height());
  std::uint64_t primitives = 0;
  port_.enable_client_state(gl::GL_VERTEX_ARRAY);
  port_.enable_client_state(gl::GL_COLOR_ARRAY);

  // 40 polygons of 24 vertices each (triangle fans) with per-vertex color —
  // heavy CPU vertex setup, the shape the iPad's faster GL stack wins on.
  std::vector<float> fan;
  std::vector<float> colors;
  for (int poly = 0; poly < 40; ++poly) {
    const float cx = rng_.next_float(0.f, w);
    const float cy = rng_.next_float(0.f, h);
    const float radius = rng_.next_float(10.f, 40.f);
    const int points = 24;
    fan.clear();
    colors.clear();
    fan.push_back(cx);
    fan.push_back(cy);
    colors.insert(colors.end(), {1.f, 1.f, 1.f, 1.f});
    for (int p = 0; p <= points; ++p) {
      const float angle = static_cast<float>(p) / points * 6.2831853f;
      const float wobble =
          radius * (1.f + 0.25f * std::sin(angle * 5.f + poly));
      fan.push_back(cx + std::cos(angle) * wobble);
      fan.push_back(cy + std::sin(angle) * wobble);
      const float t = static_cast<float>(p) / points;
      colors.insert(colors.end(), {t, 1.f - t, 0.5f, 1.f});
    }
    port_.vertex_pointer(2, fan.data());
    port_.color_pointer(4, colors.data());
    port_.draw_arrays(gl::GL_TRIANGLE_FAN, 0, points + 2);
    primitives += points;
  }
  port_.disable_client_state(gl::GL_COLOR_ARRAY);
  port_.disable_client_state(gl::GL_VERTEX_ARRAY);
  return primitives;
}

std::uint64_t PassMark::frame_image_rendering() {
  setup_2d();
  if (sprite_texture_ == 0) sprite_texture_ = checker_texture(32);
  port_.enable(gl::GL_TEXTURE_2D);
  port_.bind_texture(sprite_texture_);
  port_.tex_env_replace(true);
  port_.enable_client_state(gl::GL_VERTEX_ARRAY);
  port_.enable_client_state(gl::GL_TEXTURE_COORD_ARRAY);
  const float w = static_cast<float>(port_.width());
  const float h = static_cast<float>(port_.height());
  std::uint64_t primitives = 0;
  // 150 textured sprites per frame.
  for (int i = 0; i < 150; ++i) {
    const float x = rng_.next_float(0.f, w - 32.f);
    const float y = rng_.next_float(0.f, h - 32.f);
    const float size = rng_.next_float(12.f, 32.f);
    const float quad[] = {x, y, x + size, y, x + size, y + size,
                          x, y, x + size, y + size, x, y + size};
    const float uv[] = {0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1};
    port_.vertex_pointer(2, quad);
    port_.texcoord_pointer(2, uv);
    port_.draw_arrays(gl::GL_TRIANGLES, 0, 6);
    primitives += 2;
  }
  port_.disable_client_state(gl::GL_TEXTURE_COORD_ARRAY);
  port_.disable_client_state(gl::GL_VERTEX_ARRAY);
  port_.disable(gl::GL_TEXTURE_2D);
  return primitives;
}

Status PassMark::ensure_filter_buffer() {
  if (filter_buffer_ >= 0) return Status::ok();
  auto handle = port_.create_shared_buffer(128, 128);
  CYCADA_RETURN_IF_ERROR(handle.status());
  filter_buffer_ = handle.value();
  filter_texture_ = port_.gen_texture();
  return Status::ok();
}

std::uint64_t PassMark::frame_image_filters() {
  setup_2d();
  if (!ensure_filter_buffer().is_ok()) return 0;
  // CPU filter pass on a shared buffer (CoreImage stand-in): every frame
  // locks the buffer for CPU access — the IOSurfaceLock path on iOS.
  auto canvas = port_.lock_buffer(filter_buffer_);
  if (!canvas.is_ok()) return 0;
  std::uint64_t pixels = 0;
  for (int y = 0; y < canvas->height; ++y) {
    std::uint32_t* row =
        canvas->pixels + static_cast<std::size_t>(y) * canvas->stride_px;
    for (int x = 0; x < canvas->width; ++x) {
      // Plasma + invert blend.
      const auto v = static_cast<std::uint32_t>(
          128.0 + 127.0 * std::sin(x * 0.2) * std::cos(y * 0.15));
      const std::uint32_t old = row[x];
      row[x] = (v | ((255 - v) << 8) | (((old >> 16) ^ v) & 0xff) << 16) |
               0xff000000u;
      ++pixels;
    }
  }
  (void)port_.unlock_buffer(filter_buffer_);
  if (!port_.bind_buffer_to_texture(filter_buffer_, filter_texture_).is_ok()) {
    return 0;
  }
  // Draw the filtered image.
  port_.enable(gl::GL_TEXTURE_2D);
  port_.bind_texture(filter_texture_);
  port_.tex_env_replace(true);
  port_.enable_client_state(gl::GL_VERTEX_ARRAY);
  port_.enable_client_state(gl::GL_TEXTURE_COORD_ARRAY);
  const float w = static_cast<float>(port_.width());
  const float h = static_cast<float>(port_.height());
  const float quad[] = {0, 0, w, 0, w, h, 0, 0, w, h, 0, h};
  const float uv[] = {0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1};
  port_.vertex_pointer(2, quad);
  port_.texcoord_pointer(2, uv);
  port_.draw_arrays(gl::GL_TRIANGLES, 0, 6);
  port_.disable_client_state(gl::GL_TEXTURE_COORD_ARRAY);
  port_.disable_client_state(gl::GL_VERTEX_ARRAY);
  port_.disable(gl::GL_TEXTURE_2D);
  return pixels / 64;  // normalize "ops" roughly to primitive scale
}

namespace {
// A unit cube as triangles (12).
const float kCube[] = {
    -1, -1, -1, 1, -1, -1, 1, 1, -1,  -1, -1, -1, 1, 1, -1,  -1, 1, -1,
    -1, -1, 1,  1, 1, 1,  1, -1, 1,   -1, -1, 1,  -1, 1, 1,  1, 1, 1,
    -1, -1, -1, -1, 1, -1, -1, 1, 1,  -1, -1, -1, -1, 1, 1,  -1, -1, 1,
    1, -1, -1,  1, 1, 1,  1, 1, -1,   1, -1, -1,  1, -1, 1,  1, 1, 1,
    -1, -1, -1, 1, -1, 1, 1, -1, -1,  -1, -1, -1, -1, -1, 1, 1, -1, 1,
    -1, 1, -1,  1, 1, -1, 1, 1, 1,    -1, 1, -1,  1, 1, 1,   -1, 1, 1,
};
}  // namespace

std::uint64_t PassMark::frame_simple_3d(int frame) {
  // Low poly, maximum frame rate: the present path dominates (the paper's
  // "stresses our unoptimized EAGL implementation").
  setup_3d();
  port_.enable_client_state(gl::GL_VERTEX_ARRAY);
  std::uint64_t primitives = 0;
  for (int i = 0; i < 3; ++i) {
    port_.push_matrix();
    port_.translatef(-2.f + 2.f * i, 0.f, -8.f);
    port_.rotatef(frame * 7.f + i * 40.f, 0.3f, 1.f, 0.2f);
    port_.color4f(0.3f + 0.2f * i, 0.9f - 0.2f * i, 0.5f, 1.f);
    port_.vertex_pointer(3, kCube);
    port_.draw_arrays(gl::GL_TRIANGLES, 0, 36);
    port_.pop_matrix();
    primitives += 12;
  }
  port_.disable_client_state(gl::GL_VERTEX_ARRAY);
  return primitives;
}

std::uint64_t PassMark::frame_complex_3d(int frame) {
  setup_3d();
  if (mesh_vertices_.empty()) {
    // A latitude/longitude sphere mesh (~1800 triangles).
    const int rings = 24, sectors = 36;
    for (int r = 0; r <= rings; ++r) {
      for (int s = 0; s <= sectors; ++s) {
        const float phi = 3.14159265f * r / rings;
        const float theta = 6.2831853f * s / sectors;
        mesh_vertices_.push_back(std::sin(phi) * std::cos(theta));
        mesh_vertices_.push_back(std::cos(phi));
        mesh_vertices_.push_back(std::sin(phi) * std::sin(theta));
        mesh_uvs_.push_back(static_cast<float>(s) / sectors);
        mesh_uvs_.push_back(static_cast<float>(r) / rings);
      }
    }
    for (int r = 0; r < rings; ++r) {
      for (int s = 0; s < sectors; ++s) {
        const auto a = static_cast<std::uint16_t>(r * (sectors + 1) + s);
        const auto b = static_cast<std::uint16_t>(a + sectors + 1);
        mesh_indices_.insert(mesh_indices_.end(),
                             {a, b, static_cast<std::uint16_t>(a + 1),
                              static_cast<std::uint16_t>(a + 1), b,
                              static_cast<std::uint16_t>(b + 1)});
      }
    }
  }
  if (mesh_texture_ == 0) mesh_texture_ = checker_texture(64);

  port_.enable(gl::GL_TEXTURE_2D);
  port_.bind_texture(mesh_texture_);
  port_.tex_env_replace(false);
  port_.enable_client_state(gl::GL_VERTEX_ARRAY);
  port_.enable_client_state(gl::GL_TEXTURE_COORD_ARRAY);
  std::uint64_t primitives = 0;
  for (int i = 0; i < 2; ++i) {
    port_.push_matrix();
    port_.translatef(-1.2f + 2.4f * i, 0.f, -4.5f);
    port_.rotatef(frame * 5.f + i * 180.f, 0.2f, 1.f, 0.1f);
    port_.color4f(1.f, 1.f - 0.3f * i, 0.8f + 0.2f * i, 1.f);
    port_.vertex_pointer(3, mesh_vertices_.data());
    port_.texcoord_pointer(2, mesh_uvs_.data());
    port_.draw_elements(gl::GL_TRIANGLES,
                        static_cast<int>(mesh_indices_.size()),
                        mesh_indices_.data());
    port_.pop_matrix();
    primitives += mesh_indices_.size() / 3;
  }
  port_.disable_client_state(gl::GL_TEXTURE_COORD_ARRAY);
  port_.disable_client_state(gl::GL_VERTEX_ARRAY);
  port_.disable(gl::GL_TEXTURE_2D);
  return primitives;
}

StatusOr<std::uint64_t> PassMark::run(std::string_view name, int frames) {
  std::uint64_t primitives = 0;
  for (int frame = 0; frame < frames; ++frame) {
    if (name == "Solid Vectors") {
      primitives += frame_solid_vectors(false);
    } else if (name == "Transparent Vectors") {
      primitives += frame_solid_vectors(true);
    } else if (name == "Complex Vectors") {
      primitives += frame_complex_vectors();
    } else if (name == "Image Rendering") {
      primitives += frame_image_rendering();
    } else if (name == "Image Filters") {
      primitives += frame_image_filters();
    } else if (name == "Simple 3D") {
      primitives += frame_simple_3d(frame);
    } else if (name == "Complex 3D") {
      primitives += frame_complex_3d(frame);
    } else {
      return Status::not_found("unknown PassMark test: " + std::string(name));
    }
    CYCADA_RETURN_IF_ERROR(port_.present());
    if (port_.get_error() != gl::GL_NO_ERROR) {
      return Status::internal("GL error during " + std::string(name));
    }
  }
  return primitives;
}

}  // namespace cycada::passmark
