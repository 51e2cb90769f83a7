#include "android_gl/ui_wrapper.h"

#include <cstring>
#include <iterator>

#include "android_gl/vendor.h"
#include "core/impersonation.h"
#include "kernel/kernel.h"
#include "kernel/libc.h"
#include "util/faultpoint.h"

namespace cycada::android_gl {

namespace {
constexpr char kPresentVs[] =
    "attribute vec4 a_position; attribute vec2 a_texcoord;"
    "uniform mat4 u_mvp; varying vec2 v_uv;"
    "void main() { gl_Position = u_mvp * a_position; v_uv = a_texcoord; }";
constexpr char kPresentFs[] =
    "uniform sampler2D u_tex; varying vec2 v_uv;"
    "void main() { gl_FragColor = texture2D(u_tex, v_uv); }";

// The capabilities that would change what the present quad writes.
constexpr glcore::GLenum kPresentCaps[] = {
    glcore::GL_BLEND, glcore::GL_DEPTH_TEST, glcore::GL_CULL_FACE,
    glcore::GL_SCISSOR_TEST};
// The present program's inputs: a_position and a_texcoord.
constexpr glcore::GLuint kPresentAttribs[] = {0, 2};

// The app's GL state that the present pass changes, read back through GL
// queries, as a bridge layered over a vendor GLES library has to.
struct SavedGlState {
  struct Attrib {
    glcore::GLint enabled = 0;
    glcore::GLint size = 4;
    glcore::GLint type = 0;
    glcore::GLint normalized = 0;
    glcore::GLint stride = 0;
    glcore::GLint buffer = 0;
    void* pointer = nullptr;
  };

  glcore::GLboolean caps[std::size(kPresentCaps)] = {};
  glcore::GLboolean color_mask[4] = {};
  glcore::GLint framebuffer = 0;
  glcore::GLint active_texture = 0;
  glcore::GLint texture = 0;  // unit 0's 2D binding
  glcore::GLint program = 0;
  glcore::GLint array_buffer = 0;
  glcore::GLint viewport[4] = {};
  Attrib attribs[std::size(kPresentAttribs)];

  static SavedGlState save(glcore::GlesEngine& gl) {
    using namespace glcore;
    SavedGlState saved;
    for (std::size_t i = 0; i < std::size(kPresentCaps); ++i) {
      saved.caps[i] = gl.glIsEnabled(kPresentCaps[i]);
    }
    gl.glGetBooleanv(GL_COLOR_WRITEMASK, saved.color_mask);
    gl.glGetIntegerv(GL_FRAMEBUFFER_BINDING, &saved.framebuffer);
    gl.glGetIntegerv(GL_ACTIVE_TEXTURE, &saved.active_texture);
    gl.glActiveTexture(GL_TEXTURE0);
    gl.glGetIntegerv(GL_TEXTURE_BINDING_2D, &saved.texture);
    gl.glActiveTexture(static_cast<GLenum>(saved.active_texture));
    gl.glGetIntegerv(GL_CURRENT_PROGRAM, &saved.program);
    gl.glGetIntegerv(GL_ARRAY_BUFFER_BINDING, &saved.array_buffer);
    gl.glGetIntegerv(GL_VIEWPORT, saved.viewport);
    for (std::size_t i = 0; i < std::size(kPresentAttribs); ++i) {
      const GLuint index = kPresentAttribs[i];
      Attrib& attrib = saved.attribs[i];
      gl.glGetVertexAttribiv(index, GL_VERTEX_ATTRIB_ARRAY_ENABLED,
                             &attrib.enabled);
      gl.glGetVertexAttribiv(index, GL_VERTEX_ATTRIB_ARRAY_SIZE, &attrib.size);
      gl.glGetVertexAttribiv(index, GL_VERTEX_ATTRIB_ARRAY_TYPE, &attrib.type);
      gl.glGetVertexAttribiv(index, GL_VERTEX_ATTRIB_ARRAY_NORMALIZED,
                             &attrib.normalized);
      gl.glGetVertexAttribiv(index, GL_VERTEX_ATTRIB_ARRAY_STRIDE,
                             &attrib.stride);
      gl.glGetVertexAttribiv(index, GL_VERTEX_ATTRIB_ARRAY_BUFFER_BINDING,
                             &attrib.buffer);
      gl.glGetVertexAttribPointerv(index, GL_VERTEX_ATTRIB_ARRAY_POINTER,
                                   &attrib.pointer);
    }
    return saved;
  }

  void restore(glcore::GlesEngine& gl) const {
    using namespace glcore;
    for (std::size_t i = 0; i < std::size(kPresentAttribs); ++i) {
      const GLuint index = kPresentAttribs[i];
      const Attrib& attrib = attribs[i];
      // The pointer is an offset into the buffer that was bound with it.
      gl.glBindBuffer(GL_ARRAY_BUFFER, static_cast<GLuint>(attrib.buffer));
      gl.glVertexAttribPointer(index, attrib.size,
                               static_cast<GLenum>(attrib.type),
                               static_cast<GLboolean>(attrib.normalized),
                               attrib.stride, attrib.pointer);
      if (attrib.enabled != 0) {
        gl.glEnableVertexAttribArray(index);
      } else {
        gl.glDisableVertexAttribArray(index);
      }
    }
    gl.glBindBuffer(GL_ARRAY_BUFFER, static_cast<GLuint>(array_buffer));
    gl.glUseProgram(static_cast<GLuint>(program));
    gl.glActiveTexture(GL_TEXTURE0);
    gl.glBindTexture(GL_TEXTURE_2D, static_cast<GLuint>(texture));
    gl.glActiveTexture(static_cast<GLenum>(active_texture));
    gl.glBindFramebuffer(GL_FRAMEBUFFER, static_cast<GLuint>(framebuffer));
    gl.glViewport(viewport[0], viewport[1], viewport[2], viewport[3]);
    gl.glColorMask(color_mask[0], color_mask[1], color_mask[2],
                   color_mask[3]);
    for (std::size_t i = 0; i < std::size(kPresentCaps); ++i) {
      if (caps[i] != GL_FALSE) {
        gl.glEnable(kPresentCaps[i]);
      } else {
        gl.glDisable(kPresentCaps[i]);
      }
    }
  }
};
}  // namespace

bool android_thread_affinity_ok(kernel::Tid creator) {
  const kernel::Tid caller = kernel::sys_gettid();
  return caller == creator ||
         creator == kernel::Kernel::instance().main_tid();
}

UiWrapper::UiWrapper(linker::LoadContext& context) {
  // Bind to THIS replica's vendor GLES copy (the dependency edge that makes
  // "the libui_wrapper functionality use the same replica of GLES as the
  // gralloc functions" — paper §8.2).
  auto* vendor =
      static_cast<VendorGles*>(context.dep(kVendorGlesLib));
  if (vendor != nullptr) engine_ = &vendor->engine();
}

UiWrapper::~UiWrapper() {
  if (engine_ != nullptr && context_ != glcore::kNoContext) {
    (void)engine_->destroy_context(context_);
  }
}

void* UiWrapper::symbol(std::string_view name) {
  if (name == "ui_wrapper") return this;
  if (name == "replica_global") return &replica_global_;
  return nullptr;
}

std::vector<std::string> UiWrapper::exported_symbols() const {
  return {"ui_wrapper", "replica_global"};
}

Status UiWrapper::initialize(int gles_version, int width, int height) {
  if (engine_ == nullptr) {
    return Status::failed_precondition("vendor GLES missing from replica");
  }
  if (context_ != glcore::kNoContext) {
    return Status::failed_precondition("already initialized");
  }
  // The layer first, as an Android app creates its window surface before
  // its context: a bad size fails here before either fault point is hit.
  auto layer = EglSurface::create(width, height, /*window=*/true);
  CYCADA_RETURN_IF_ERROR(layer.status());
  // Same fault point as the stock wrapper's eglCreateContext, so injected
  // vendor-context failures exercise the bridge's retry/degradation ladder.
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("egl.create_context");
  if (fault.should_fail()) {
    return Status::resource_exhausted("injected fault: egl.create_context");
  }
  context_ = engine_->create_context(gles_version);
  if (context_ == glcore::kNoContext) {
    return Status::invalid_argument("unsupported GLES version");
  }
  layer_ = std::move(*layer);
  creator_ = kernel::sys_gettid();
  CYCADA_RETURN_IF_ERROR(
      engine_->make_current(context_, layer_->back_target()));
  engine_->glViewport(0, 0, width, height);
  return Status::ok();
}

void UiWrapper::teardown() {
  if (engine_ != nullptr && context_ != glcore::kNoContext) {
    if (engine_->current_context_id() == context_) {
      (void)engine_->make_current(glcore::kNoContext, gpu::kNoHandle);
    }
    (void)engine_->destroy_context(context_);
  }
  context_ = glcore::kNoContext;
  layer_.reset();
  drawable_buffers_.clear();
  // Present-path objects died with the context; forget the stale names.
  present_program_ = 0;
  present_texture_ = 0;
  present_image_.reset();
  present_image_buffer_ = 0;
  creator_ = kernel::kInvalidTid;
}

Status UiWrapper::reinitialize(int gles_version, int width, int height) {
  teardown();
  return initialize(gles_version, width, height);
}

Status UiWrapper::make_current() {
  if (context_ == glcore::kNoContext) {
    return Status::failed_precondition("not initialized");
  }
  // Same affinity rule the stock EGL wrapper enforces; an iOS thread gets
  // here only while impersonating the creator.
  if (!android_thread_affinity_ok(creator_)) {
    return Status::permission_denied(
        "context is owned by another thread (Android affinity rule)");
  }
  return engine_->make_current(context_, layer_->back_target());
}

Status UiWrapper::clear_current() {
  if (engine_ == nullptr) return Status::ok();
  return engine_->make_current(glcore::kNoContext, gpu::kNoHandle);
}

StatusOr<gmem::BufferId> UiWrapper::create_drawable_buffer(int width,
                                                           int height) {
  auto buffer = gmem::GrallocAllocator::instance().allocate(
      width, height, PixelFormat::kRgba8888,
      gmem::kUsageGpuRenderTarget | gmem::kUsageGpuTexture |
          gmem::kUsageCpuRead | gmem::kUsageCpuWrite);
  CYCADA_RETURN_IF_ERROR(buffer.status());
  // The layer owns its backing stores: keep the buffer alive for the
  // replica's lifetime (gralloc's registry holds only weak references).
  drawable_buffers_.push_back(buffer.value());
  return buffer.value()->id();
}

Status UiWrapper::bind_renderbuffer(glcore::GLuint rb, gmem::BufferId id) {
  auto buffer = gmem::GrallocAllocator::instance().find(id);
  if (buffer == nullptr) return Status::not_found("no such GraphicBuffer");
  return engine_->renderbuffer_storage_from_buffer(rb, std::move(buffer));
}

Status UiWrapper::ensure_present_program() {
  if (present_program_ != 0) return Status::ok();
  glcore::GlesEngine& gl = *engine_;
  const char* vs_src = kPresentVs;
  const char* fs_src = kPresentFs;
  const glcore::GLuint vs = gl.glCreateShader(glcore::GL_VERTEX_SHADER);
  const glcore::GLuint fs = gl.glCreateShader(glcore::GL_FRAGMENT_SHADER);
  gl.glShaderSource(vs, 1, &vs_src, nullptr);
  gl.glShaderSource(fs, 1, &fs_src, nullptr);
  gl.glCompileShader(vs);
  gl.glCompileShader(fs);
  present_program_ = gl.glCreateProgram();
  gl.glAttachShader(present_program_, vs);
  gl.glAttachShader(present_program_, fs);
  gl.glLinkProgram(present_program_);
  glcore::GLint linked = glcore::GL_FALSE;
  gl.glGetProgramiv(present_program_, glcore::GL_LINK_STATUS, &linked);
  if (linked != glcore::GL_TRUE) {
    return Status::internal("present program failed to link");
  }
  gl.glGenTextures(1, &present_texture_);
  // 1:1 blit with nearest filtering: every span of the quad samples its
  // texels unchanged, so the rasterizer writes it as a row copy, as a GPU's
  // copy path would.
  glcore::GLint saved = 0;
  gl.glGetIntegerv(glcore::GL_TEXTURE_BINDING_2D, &saved);
  gl.glBindTexture(glcore::GL_TEXTURE_2D, present_texture_);
  gl.glTexParameteri(glcore::GL_TEXTURE_2D, glcore::GL_TEXTURE_MAG_FILTER,
                     glcore::GL_NEAREST);
  gl.glTexParameteri(glcore::GL_TEXTURE_2D, glcore::GL_TEXTURE_MIN_FILTER,
                     glcore::GL_NEAREST);
  gl.glBindTexture(glcore::GL_TEXTURE_2D,
                   static_cast<glcore::GLuint>(saved));
  return Status::ok();
}

Status UiWrapper::draw_fbo_tex(gmem::BufferId content) {
  if (context_ == glcore::kNoContext) {
    return Status::failed_precondition("not initialized");
  }
  glcore::GlesEngine& gl = *engine_;
  if (gl.current_context_id() != context_) {
    return Status::failed_precondition("replica context is not current");
  }
  auto buffer = gmem::GrallocAllocator::instance().find(content);
  if (buffer == nullptr) return Status::not_found("no such content buffer");

  // Note: the present path works even on a GLES1 context because the
  // replica engine exposes the full vendor entry-point set (as the real
  // Tegra library does); the program objects are private to this replica.
  CYCADA_RETURN_IF_ERROR(ensure_present_program());

  // The quad runs in a known raster state: no blend, depth test, culling
  // or scissor, all colour channels written. Everything it changes is put
  // back afterwards.
  const SavedGlState saved = SavedGlState::save(gl);
  for (const glcore::GLenum cap : kPresentCaps) gl.glDisable(cap);
  gl.glColorMask(glcore::GL_TRUE, glcore::GL_TRUE, glcore::GL_TRUE,
                 glcore::GL_TRUE);

  // Bind the content buffer's memory as a texture via an EGLImage, exactly
  // like the real zero-copy path.
  gl.glBindFramebuffer(glcore::GL_FRAMEBUFFER, 0);
  gl.glActiveTexture(glcore::GL_TEXTURE0);
  gl.glBindTexture(glcore::GL_TEXTURE_2D, present_texture_);
  if (present_image_ == nullptr || present_image_buffer_ != content) {
    present_image_ = std::make_unique<glcore::EglImage>();
    present_image_->buffer = buffer;
    present_image_buffer_ = content;
    gl.glEGLImageTargetTexture2DOES(glcore::GL_TEXTURE_2D,
                                    present_image_.get());
  }
  gl.glUseProgram(present_program_);
  const float identity[16] = {1, 0, 0, 0, 0, 1, 0, 0,
                              0, 0, 1, 0, 0, 0, 0, 1};
  gl.glUniformMatrix4fv(0, 1, glcore::GL_FALSE, identity);
  gl.glUniform1i(2, 0);
  gl.glViewport(0, 0, layer_->width(), layer_->height());
  // Fullscreen quad; uv(0,0) lands on the top-left pixel (row 0 is top in
  // this codebase, so no vertical flip is required). Client-side arrays,
  // so no array buffer may be bound.
  const float positions[] = {-1, 1, 1, 1, 1, -1, -1, 1, 1, -1, -1, -1};
  const float uvs[] = {0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1};
  gl.glBindBuffer(glcore::GL_ARRAY_BUFFER, 0);
  gl.glEnableVertexAttribArray(0);
  gl.glEnableVertexAttribArray(2);
  gl.glVertexAttribPointer(0, 2, glcore::GL_FLOAT, glcore::GL_FALSE, 0,
                           positions);
  gl.glVertexAttribPointer(2, 2, glcore::GL_FLOAT, glcore::GL_FALSE, 0, uvs);
  gl.glDrawArrays(glcore::GL_TRIANGLES, 0, 6);
  // The quad is recorded into the frame that swap_buffers() fences and
  // submits; nothing here waits for raster.
  saved.restore(gl);
  return Status::ok();
}

Status UiWrapper::copy_tex_buf(glcore::GLuint texture, gmem::BufferId dst) {
  auto buffer = gmem::GrallocAllocator::instance().find(dst);
  if (buffer == nullptr) return Status::not_found("no such GraphicBuffer");
  if (buffer->format() != PixelFormat::kRgba8888) {
    return Status::invalid_argument("destination must be RGBA8888");
  }
  // Resolve the texture's GPU storage through a throwaway FBO attachment
  // read, the way the real bridge uses glReadPixels on a texture FBO.
  glcore::GlesEngine& gl = *engine_;
  glcore::GLint saved_fbo = 0;
  gl.glGetIntegerv(glcore::GL_FRAMEBUFFER_BINDING, &saved_fbo);
  glcore::GLuint fbo = 0;
  gl.glGenFramebuffers(1, &fbo);
  gl.glBindFramebuffer(glcore::GL_FRAMEBUFFER, fbo);
  gl.glFramebufferTexture2D(glcore::GL_FRAMEBUFFER,
                            glcore::GL_COLOR_ATTACHMENT0,
                            glcore::GL_TEXTURE_2D, texture, 0);
  Status result = Status::ok();
  if (gl.glCheckFramebufferStatus(glcore::GL_FRAMEBUFFER) !=
      glcore::GL_FRAMEBUFFER_COMPLETE) {
    result = Status::failed_precondition("texture not attachable");
  } else {
    const int width = buffer->width();
    std::vector<std::uint32_t> row(static_cast<std::size_t>(width));
    for (int y = 0; y < buffer->height(); ++y) {
      gl.glReadPixels(0, y, width, 1, glcore::GL_RGBA,
                      glcore::GL_UNSIGNED_BYTE, row.data());
      std::memcpy(buffer->pixels32() +
                      static_cast<std::size_t>(y) * buffer->stride_px(),
                  row.data(), row.size() * sizeof(std::uint32_t));
    }
  }
  gl.glBindFramebuffer(glcore::GL_FRAMEBUFFER,
                       static_cast<glcore::GLuint>(saved_fbo));
  gl.glDeleteFramebuffers(1, &fbo);
  return result;
}

Status UiWrapper::swap_buffers() {
  if (context_ == glcore::kNoContext) {
    return Status::failed_precondition("not initialized");
  }
  return layer_->swap(engine_);
}

Status UiWrapper::set_tls(const core::ContextTls& tls) {
  // The replica's thread-local binding: the engine's current-context slot,
  // in the Android persona this runs in.
  const kernel::TlsKey key = engine_->current_context_tls_key();
  kernel::libc::pthread_setspecific(key,
                                    tls.value(kernel::Persona::kAndroid, key));
  return Status::ok();
}

}  // namespace cycada::android_gl
