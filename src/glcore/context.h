// Per-context GLES state. A GlContext is the paper's "state container for
// all GLES objects associated with a given instance of GLES" (§2). Contexts
// are owned by a GlesEngine (one engine per loaded vendor-library copy).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "glcore/gl_types.h"
#include "gmem/graphic_buffer.h"
#include "gpu/types.h"
#include "kernel/persona.h"
#include "util/geometry.h"
#include "util/pixel.h"

namespace cycada::glcore {

inline constexpr int kMaxVertexAttribs = 8;
inline constexpr int kMaxTextureUnits = 2;

// An EGLImage: the window-system object that ties a GraphicBuffer to GLES
// textures. Created by the EGL layer, consumed by
// glEGLImageTargetTexture2DOES.
struct EglImage {
  std::shared_ptr<gmem::GraphicBuffer> buffer;
};

struct BufferObject {
  std::vector<std::uint8_t> data;
  GLenum usage = GL_STATIC_DRAW;
};

struct TextureObject {
  gpu::TextureHandle gpu = gpu::kNoHandle;
  int width = 0;
  int height = 0;
  GLenum min_filter = GL_LINEAR;
  GLenum mag_filter = GL_LINEAR;
  GLenum wrap_s = GL_REPEAT;
  GLenum wrap_t = GL_REPEAT;
  // Non-null while the texture's storage aliases a GraphicBuffer through an
  // EGLImage (paper §6).
  std::shared_ptr<gmem::GraphicBuffer> egl_image_buffer;
};

struct RenderbufferObject {
  gpu::RenderTargetHandle target = gpu::kNoHandle;
  int width = 0;
  int height = 0;
  GLenum internal_format = 0;
  bool owns_target = true;
  // Set when storage aliases a drawable's GraphicBuffer (the EAGL
  // renderbufferStorageFromDrawable path).
  std::shared_ptr<gmem::GraphicBuffer> backing_buffer;
};

struct FramebufferObject {
  GLuint color_renderbuffer = 0;
  GLuint color_texture = 0;
  GLuint depth_renderbuffer = 0;
  // Companion GPU target aliasing an attached texture's storage
  // (render-to-texture support).
  gpu::RenderTargetHandle texture_target = gpu::kNoHandle;
};

struct VertexAttrib {
  bool enabled = false;
  GLint size = 4;
  GLenum type = GL_FLOAT;
  bool normalized = false;
  GLsizei stride = 0;
  const void* pointer = nullptr;
  GLuint buffer = 0;  // bound GL_ARRAY_BUFFER at glVertexAttribPointer time
  Vec4 constant{0.f, 0.f, 0.f, 1.f};
};

struct ShaderObject {
  GLenum type = GL_VERTEX_SHADER;
  std::string source;
  bool compiled = false;
};

struct ProgramObject {
  GLuint vertex_shader = 0;
  GLuint fragment_shader = 0;
  bool linked = false;
  // "Compiled" program behavior, recovered from the shader sources by the
  // engine's pattern-matching shader front end.
  bool uses_texture = false;
  bool uses_vertex_color = false;
  // Uniform store. Fixed locations: 0 = u_mvp, 1 = u_color, 2 = u_tex.
  Mat4 u_mvp = Mat4::identity();
  Vec4 u_color{1.f, 1.f, 1.f, 1.f};
  GLint u_tex_unit = 0;
};

// GLES1 client-side array descriptor.
struct ClientArray {
  bool enabled = false;
  GLint size = 4;
  GLenum type = GL_FLOAT;
  GLsizei stride = 0;
  const void* pointer = nullptr;
};

struct GlContext {
  explicit GlContext(int gles_version) : version(gles_version) {
    modelview_stack.push_back(Mat4::identity());
    projection_stack.push_back(Mat4::identity());
    texture_stack.push_back(Mat4::identity());
  }

  const int version;  // 1 or 2
  std::uint64_t engine_context_id = 0;  // assigned by the owning engine
  kernel::Tid creator_tid = kernel::kInvalidTid;

  // Object tables (per context; no share groups in this engine).
  std::unordered_map<GLuint, BufferObject> buffers;
  std::unordered_map<GLuint, TextureObject> textures;
  std::unordered_map<GLuint, RenderbufferObject> renderbuffers;
  std::unordered_map<GLuint, FramebufferObject> framebuffers;
  std::unordered_map<GLuint, ShaderObject> shaders;
  std::unordered_map<GLuint, ProgramObject> programs;
  std::unordered_map<GLuint, gpu::FenceHandle> fences;  // NV_fence
  GLuint next_name = 1;

  // Bindings.
  GLuint bound_array_buffer = 0;
  GLuint bound_element_buffer = 0;
  int active_texture_unit = 0;
  std::array<GLuint, kMaxTextureUnits> bound_texture{};
  GLuint bound_framebuffer = 0;
  GLuint bound_renderbuffer = 0;
  GLuint current_program = 0;

  // The window-system-provided default framebuffer (EGL surface back
  // buffer). kNoHandle when the context has no current surface.
  gpu::RenderTargetHandle default_target = gpu::kNoHandle;

  // Fixed state.
  Color clear_color{0.f, 0.f, 0.f, 0.f};
  float clear_depth = 1.f;
  bool cap_depth_test = false;
  bool cap_blend = false;
  bool cap_scissor = false;
  bool cap_cull = false;
  bool cap_texture_2d = false;  // GLES1 fixed-function texturing switch
  // Accepted and reported by glIsEnabled, not modeled by the pipeline.
  bool cap_lighting = false;
  bool cap_alpha_test = false;
  bool cap_stencil_test = false;
  GLenum depth_func = GL_LESS;
  bool depth_mask = true;
  GLenum blend_src = GL_ONE;
  GLenum blend_dst = GL_ZERO;
  GLenum cull_mode = GL_BACK;
  GLenum front_face = GL_CCW;
  bool color_mask[4] = {true, true, true, true};
  float line_width = 1.f;
  float depth_range_near = 0.f;
  float depth_range_far = 1.f;
  GLenum blend_equation = GL_FUNC_ADD;
  Color blend_color{0.f, 0.f, 0.f, 0.f};
  gpu::Viewport viewport;
  gpu::ScissorRect scissor;
  float point_size = 1.f;
  GLenum error = GL_NO_ERROR;

  // Pixel store.
  GLint unpack_alignment = 4;
  GLint pack_alignment = 4;
  // APPLE_row_bytes state (only reachable through the iOS bridge).
  GLint pack_row_bytes_apple = 0;
  GLint unpack_row_bytes_apple = 0;

  // GLES2 vertex attributes.
  std::array<VertexAttrib, kMaxVertexAttribs> attribs;

  // GLES1 fixed function.
  GLenum matrix_mode = GL_MODELVIEW;
  std::vector<Mat4> modelview_stack;
  std::vector<Mat4> projection_stack;
  std::vector<Mat4> texture_stack;
  ClientArray vertex_array;
  ClientArray color_array;
  ClientArray texcoord_array;
  ClientArray normal_array;
  Color current_color{1.f, 1.f, 1.f, 1.f};
  GLenum tex_env_mode = GL_MODULATE;
};

}  // namespace cycada::glcore
