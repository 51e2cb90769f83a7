// GlesEngine: the wider standard-API surface — write masks, winding,
// queries, copy-tex paths, object predicates, and the accepted-but-unmodeled
// state (stencil, polygon offset, hints) that real apps set and expect to
// succeed.
#include <cstring>
#include <vector>

#include "glcore/engine.h"
#include "gpu/device.h"

namespace cycada::glcore {

void GlesEngine::glGetFloatv(GLenum pname, GLfloat* params) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || params == nullptr) return;
  switch (pname) {
    case GL_COLOR_CLEAR_VALUE:
      params[0] = ctx->clear_color.r;
      params[1] = ctx->clear_color.g;
      params[2] = ctx->clear_color.b;
      params[3] = ctx->clear_color.a;
      break;
    case GL_LINE_WIDTH: *params = ctx->line_width; break;
    case GL_DEPTH_RANGE:
      params[0] = ctx->depth_range_near;
      params[1] = ctx->depth_range_far;
      break;
    case GL_MODELVIEW_MATRIX:
      std::memcpy(params, ctx->modelview_stack.back().m.data(),
                  sizeof(float) * 16);
      break;
    case GL_PROJECTION_MATRIX:
      std::memcpy(params, ctx->projection_stack.back().m.data(),
                  sizeof(float) * 16);
      break;
    case GL_VIEWPORT:
      params[0] = static_cast<float>(ctx->viewport.x);
      params[1] = static_cast<float>(ctx->viewport.y);
      params[2] = static_cast<float>(ctx->viewport.width);
      params[3] = static_cast<float>(ctx->viewport.height);
      break;
    default:
      record_error(GL_INVALID_ENUM);
      break;
  }
}

void GlesEngine::glGetBooleanv(GLenum pname, GLboolean* params) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || params == nullptr) return;
  switch (pname) {
    case GL_COLOR_WRITEMASK:
      for (int i = 0; i < 4; ++i) {
        params[i] = ctx->color_mask[i] ? GL_TRUE : GL_FALSE;
      }
      break;
    case GL_DEPTH_WRITEMASK:
      *params = ctx->depth_mask ? GL_TRUE : GL_FALSE;
      break;
    default:
      // Every capability is also a boolean state value.
      *params = glIsEnabled(pname);
      break;
  }
}

void GlesEngine::glColorMask(GLboolean r, GLboolean g, GLboolean b,
                             GLboolean a) {
  if (GlContext* ctx = require_context()) {
    ctx->color_mask[0] = r != GL_FALSE;
    ctx->color_mask[1] = g != GL_FALSE;
    ctx->color_mask[2] = b != GL_FALSE;
    ctx->color_mask[3] = a != GL_FALSE;
  }
}

void GlesEngine::glFrontFace(GLenum mode) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (mode != GL_CW && mode != GL_CCW) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  ctx->front_face = mode;
}

void GlesEngine::glLineWidth(GLfloat width) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (width <= 0.f) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  ctx->line_width = width;
}

void GlesEngine::glDepthRangef(GLclampf near_val, GLclampf far_val) {
  if (GlContext* ctx = require_context()) {
    ctx->depth_range_near = clamp01(near_val);
    ctx->depth_range_far = clamp01(far_val);
  }
}

void GlesEngine::glBlendEquation(GLenum mode) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  // Only FUNC_ADD is modeled by the fragment pipeline; others are rejected
  // the way a minimal implementation would.
  if (mode != GL_FUNC_ADD) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  ctx->blend_equation = mode;
}

void GlesEngine::glBlendColor(GLclampf r, GLclampf g, GLclampf b, GLclampf a) {
  if (GlContext* ctx = require_context()) {
    ctx->blend_color = Color{clamp01(r), clamp01(g), clamp01(b), clamp01(a)};
  }
}

void GlesEngine::glHint(GLenum target, GLenum mode) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (mode != GL_FASTEST && mode != GL_NICEST && mode != GL_DONT_CARE) {
    record_error(GL_INVALID_ENUM);
  }
  (void)target;  // hints are accepted and ignored
}

void GlesEngine::glSampleCoverage(GLclampf value, GLboolean invert) {
  (void)value;
  (void)invert;  // multisampling is not modeled
  (void)require_context();
}

void GlesEngine::glPolygonOffset(GLfloat factor, GLfloat units) {
  (void)factor;
  (void)units;  // accepted; depth bias is not modeled
  (void)require_context();
}

void GlesEngine::glStencilFunc(GLenum func, GLint ref, GLuint mask) {
  (void)func;
  (void)ref;
  (void)mask;  // stencil state accepted; the buffer is not modeled
  (void)require_context();
}

void GlesEngine::glStencilMask(GLuint mask) {
  (void)mask;
  (void)require_context();
}

void GlesEngine::glStencilOp(GLenum sfail, GLenum dpfail, GLenum dppass) {
  (void)sfail;
  (void)dpfail;
  (void)dppass;
  (void)require_context();
}

void GlesEngine::glCopyTexImage2D(GLenum target, GLint level,
                                  GLenum internal_format, GLint x, GLint y,
                                  GLsizei width, GLsizei height, GLint border) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  (void)internal_format;
  if (target != GL_TEXTURE_2D || border != 0 || level != 0) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  TextureObject* texture = bound_texture_object(*ctx);
  if (texture == nullptr) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  const gpu::RenderTargetHandle source = resolve_draw_target();
  if (source == gpu::kNoHandle) {
    record_error(GL_INVALID_FRAMEBUFFER_OPERATION);
    return;
  }
  std::vector<std::uint32_t> pixels(static_cast<std::size_t>(width) * height);
  if (!device()
           .read_pixels(source, x, y, width, height, pixels.data(), width)
           .is_ok()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  if (texture->gpu == gpu::kNoHandle) {
    texture->gpu = device().create_texture();
  }
  if (texture->egl_image_buffer != nullptr) {
    texture->egl_image_buffer->remove_egl_image_ref();
    texture->egl_image_buffer = nullptr;
  }
  (void)device().define_texture(texture->gpu, width, height);
  texture->width = width;
  texture->height = height;
  (void)device().upload_texture(texture->gpu, 0, 0, width, height,
                                pixels.data(), width);
}

void GlesEngine::glCopyTexSubImage2D(GLenum target, GLint level, GLint xoffset,
                                     GLint yoffset, GLint x, GLint y,
                                     GLsizei width, GLsizei height) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_TEXTURE_2D || level != 0) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  TextureObject* texture = bound_texture_object(*ctx);
  if (texture == nullptr || texture->gpu == gpu::kNoHandle) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  const gpu::RenderTargetHandle source = resolve_draw_target();
  if (source == gpu::kNoHandle) {
    record_error(GL_INVALID_FRAMEBUFFER_OPERATION);
    return;
  }
  std::vector<std::uint32_t> pixels(static_cast<std::size_t>(width) * height);
  if (!device()
           .read_pixels(source, x, y, width, height, pixels.data(), width)
           .is_ok() ||
      !device()
           .upload_texture(texture->gpu, xoffset, yoffset, width, height,
                           pixels.data(), width)
           .is_ok()) {
    record_error(GL_INVALID_VALUE);
  }
}

void GlesEngine::glGenerateMipmap(GLenum target) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (target != GL_TEXTURE_2D) {
    record_error(GL_INVALID_ENUM);
    return;
  }
  // Only mip level 0 is sampled by the software pipeline; generation is a
  // successful no-op, as on renderers that sample base level only.
  if (bound_texture_object(*ctx) == nullptr) {
    record_error(GL_INVALID_OPERATION);
  }
}

GLboolean GlesEngine::glIsBuffer(GLuint name) {
  GlContext* ctx = current();
  return ctx != nullptr && ctx->buffers.find(name) != ctx->buffers.end()
             ? GL_TRUE
             : GL_FALSE;
}

void GlesEngine::glGetBufferParameteriv(GLenum target, GLenum pname,
                                        GLint* params) {
  GlContext* ctx = require_context();
  if (ctx == nullptr || params == nullptr) return;
  const GLuint name = target == GL_ARRAY_BUFFER ? ctx->bound_array_buffer
                      : target == GL_ELEMENT_ARRAY_BUFFER
                          ? ctx->bound_element_buffer
                          : 0;
  auto it = ctx->buffers.find(name);
  if (name == 0 || it == ctx->buffers.end()) {
    record_error(GL_INVALID_OPERATION);
    return;
  }
  switch (pname) {
    case GL_BUFFER_SIZE:
      *params = static_cast<GLint>(it->second.data.size());
      break;
    case GL_BUFFER_USAGE:
      *params = static_cast<GLint>(it->second.usage);
      break;
    default:
      record_error(GL_INVALID_ENUM);
      break;
  }
}

GLboolean GlesEngine::glIsShader(GLuint shader) {
  GlContext* ctx = current();
  return ctx != nullptr && ctx->shaders.find(shader) != ctx->shaders.end()
             ? GL_TRUE
             : GL_FALSE;
}

GLboolean GlesEngine::glIsProgram(GLuint program) {
  GlContext* ctx = current();
  return ctx != nullptr && ctx->programs.find(program) != ctx->programs.end()
             ? GL_TRUE
             : GL_FALSE;
}

void GlesEngine::glDetachShader(GLuint program, GLuint shader) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  auto it = ctx->programs.find(program);
  if (it == ctx->programs.end()) {
    record_error(GL_INVALID_VALUE);
    return;
  }
  if (it->second.vertex_shader == shader) it->second.vertex_shader = 0;
  else if (it->second.fragment_shader == shader) it->second.fragment_shader = 0;
  else record_error(GL_INVALID_OPERATION);
}

void GlesEngine::glValidateProgram(GLuint program) {
  GlContext* ctx = require_context();
  if (ctx == nullptr) return;
  if (ctx->programs.find(program) == ctx->programs.end()) {
    record_error(GL_INVALID_VALUE);
  }
}

GLboolean GlesEngine::glIsFramebuffer(GLuint name) {
  GlContext* ctx = current();
  return ctx != nullptr &&
                 ctx->framebuffers.find(name) != ctx->framebuffers.end()
             ? GL_TRUE
             : GL_FALSE;
}

GLboolean GlesEngine::glIsRenderbuffer(GLuint name) {
  GlContext* ctx = current();
  return ctx != nullptr &&
                 ctx->renderbuffers.find(name) != ctx->renderbuffers.end()
             ? GL_TRUE
             : GL_FALSE;
}

}  // namespace cycada::glcore
