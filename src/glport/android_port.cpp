// The Android app's view of the world: EGL for windowing, the Android GLES
// library directly, GraphicBuffers + EGLImages for shared buffers.
#include <map>

#include "android_gl/egl.h"
#include "android_gl/vendor.h"
#include "glport/gl_port.h"

namespace cycada::glport {

namespace {

class AndroidPort : public GlPort {
 public:
  // Unbinds the context if it is current, then releases it, the window
  // surface and the EGLImages the shared buffers were bound through.
  ~AndroidPort() override {
    if (egl_ == nullptr) return;
    if (context_ != nullptr) {
      if (egl_->eglGetCurrentContext() == context_) {
        (void)egl_->eglMakeCurrent(nullptr, nullptr);
      }
      (void)egl_->eglDestroyContext(context_);
    }
    if (surface_ != nullptr) (void)egl_->eglDestroySurface(surface_);
    for (const auto& [handle, shared] : buffers_) {
      if (shared.image != nullptr) (void)egl_->eglDestroyImageKHR(shared.image);
    }
  }

  Status init(int width, int height, int gles_version) override {
    width_ = width;
    height_ = height;
    egl_ = android_gl::open_android_egl();
    if (egl_ == nullptr || egl_->eglInitialize() != android_gl::EGL_TRUE) {
      return Status::internal("eglInitialize failed");
    }
    surface_ = egl_->eglCreateWindowSurface(width, height);
    if (surface_ == nullptr) return Status::internal("window surface failed");
    context_ = egl_->eglCreateContext(gles_version);
    if (context_ == nullptr) {
      return Status::internal("eglCreateContext failed (version lock?)");
    }
    if (egl_->eglMakeCurrent(surface_, context_) != android_gl::EGL_TRUE) {
      return Status::internal("eglMakeCurrent failed");
    }
    gl_ = egl_->gles();
    gl_->glViewport(0, 0, width, height);
    return Status::ok();
  }

  int width() const override { return width_; }
  int height() const override { return height_; }

  void begin_frame() override {
    gl_->glBindFramebuffer(glcore::GL_FRAMEBUFFER, 0);
    gl_->glViewport(0, 0, width_, height_);
  }

  Status present() override {
    return egl_->eglSwapBuffers(surface_) == android_gl::EGL_TRUE
               ? Status::ok()
               : Status::internal("eglSwapBuffers failed");
  }

  // front_image() waits the surface's present fence first, so snapshots
  // taken right after present() see the fully rasterized frame even when
  // the tile pipeline executed it asynchronously.
  Image screen() override { return surface_->front_image(); }

  void clear_color(float r, float g, float b, float a) override {
    gl_->glClearColor(r, g, b, a);
  }
  void clear(GLbitfield mask) override { gl_->glClear(mask); }
  void viewport(int x, int y, int w, int h) override {
    gl_->glViewport(x, y, w, h);
  }
  void enable(GLenum cap) override { gl_->glEnable(cap); }
  void disable(GLenum cap) override { gl_->glDisable(cap); }
  void blend_func(GLenum src, GLenum dst) override {
    gl_->glBlendFunc(src, dst);
  }
  void depth_func(GLenum func) override { gl_->glDepthFunc(func); }
  void flush() override { gl_->glFlush(); }
  GLenum get_error() override { return gl_->glGetError(); }

  void matrix_mode(GLenum mode) override { gl_->glMatrixMode(mode); }
  void load_identity() override { gl_->glLoadIdentity(); }
  void orthof(float l, float r, float b, float t, float n, float f) override {
    gl_->glOrthof(l, r, b, t, n, f);
  }
  void frustumf(float l, float r, float b, float t, float n,
                float f) override {
    gl_->glFrustumf(l, r, b, t, n, f);
  }
  void translatef(float x, float y, float z) override {
    gl_->glTranslatef(x, y, z);
  }
  void rotatef(float angle, float x, float y, float z) override {
    gl_->glRotatef(angle, x, y, z);
  }
  void scalef(float x, float y, float z) override { gl_->glScalef(x, y, z); }
  void push_matrix() override { gl_->glPushMatrix(); }
  void pop_matrix() override { gl_->glPopMatrix(); }
  void color4f(float r, float g, float b, float a) override {
    gl_->glColor4f(r, g, b, a);
  }
  void enable_client_state(GLenum array) override {
    gl_->glEnableClientState(array);
  }
  void disable_client_state(GLenum array) override {
    gl_->glDisableClientState(array);
  }
  void vertex_pointer(int size, const float* data) override {
    gl_->glVertexPointer(size, glcore::GL_FLOAT, 0, data);
  }
  void color_pointer(int size, const float* data) override {
    gl_->glColorPointer(size, glcore::GL_FLOAT, 0, data);
  }
  void texcoord_pointer(int size, const float* data) override {
    gl_->glTexCoordPointer(size, glcore::GL_FLOAT, 0, data);
  }
  void draw_arrays(GLenum mode, int first, int count) override {
    gl_->glDrawArrays(mode, first, count);
  }
  void draw_elements(GLenum mode, int count,
                     const std::uint16_t* indices) override {
    gl_->glDrawElements(mode, count, glcore::GL_UNSIGNED_SHORT, indices);
  }
  void tex_env_replace(bool replace) override {
    gl_->glTexEnvi(glcore::GL_TEXTURE_ENV, glcore::GL_TEXTURE_ENV_MODE,
                   replace ? glcore::GL_REPLACE : glcore::GL_MODULATE);
  }

  GLuint gen_texture() override {
    GLuint name = 0;
    gl_->glGenTextures(1, &name);
    return name;
  }
  void delete_texture(GLuint name) override {
    gl_->glDeleteTextures(1, &name);
  }
  void bind_texture(GLuint name) override {
    gl_->glBindTexture(glcore::GL_TEXTURE_2D, name);
  }
  void tex_image(int w, int h, const std::uint32_t* pixels) override {
    gl_->glTexImage2D(glcore::GL_TEXTURE_2D, 0, glcore::GL_RGBA, w, h, 0,
                      glcore::GL_RGBA, glcore::GL_UNSIGNED_BYTE, pixels);
  }
  void tex_sub_image(int x, int y, int w, int h,
                     const std::uint32_t* pixels) override {
    gl_->glTexSubImage2D(glcore::GL_TEXTURE_2D, 0, x, y, w, h,
                         glcore::GL_RGBA, glcore::GL_UNSIGNED_BYTE, pixels);
  }
  void tex_filter_nearest(bool nearest) override {
    gl_->glTexParameteri(glcore::GL_TEXTURE_2D, glcore::GL_TEXTURE_MAG_FILTER,
                         nearest ? glcore::GL_NEAREST : glcore::GL_LINEAR);
    gl_->glTexParameteri(glcore::GL_TEXTURE_2D, glcore::GL_TEXTURE_MIN_FILTER,
                         nearest ? glcore::GL_NEAREST : glcore::GL_LINEAR);
  }

  GLuint build_program(const char* vs_src, const char* fs_src) override {
    const GLuint vs = gl_->glCreateShader(glcore::GL_VERTEX_SHADER);
    const GLuint fs = gl_->glCreateShader(glcore::GL_FRAGMENT_SHADER);
    gl_->glShaderSource(vs, 1, &vs_src, nullptr);
    gl_->glShaderSource(fs, 1, &fs_src, nullptr);
    gl_->glCompileShader(vs);
    gl_->glCompileShader(fs);
    const GLuint prog = gl_->glCreateProgram();
    gl_->glAttachShader(prog, vs);
    gl_->glAttachShader(prog, fs);
    gl_->glLinkProgram(prog);
    glcore::GLint linked = glcore::GL_FALSE;
    gl_->glGetProgramiv(prog, glcore::GL_LINK_STATUS, &linked);
    return linked == glcore::GL_TRUE ? prog : 0;
  }
  void use_program(GLuint program) override { gl_->glUseProgram(program); }
  GLint uniform_location(GLuint program, const char* name) override {
    return gl_->glGetUniformLocation(program, name);
  }
  void uniform_matrix(GLint location, const Mat4& m) override {
    gl_->glUniformMatrix4fv(location, 1, glcore::GL_FALSE, m.m.data());
  }
  void uniform4f(GLint location, float x, float y, float z, float w) override {
    gl_->glUniform4f(location, x, y, z, w);
  }
  void uniform1i(GLint location, int value) override {
    gl_->glUniform1i(location, value);
  }
  void enable_vertex_attrib(GLuint index) override {
    gl_->glEnableVertexAttribArray(index);
  }
  void disable_vertex_attrib(GLuint index) override {
    gl_->glDisableVertexAttribArray(index);
  }
  void vertex_attrib_pointer(GLuint index, int size,
                             const float* data) override {
    gl_->glVertexAttribPointer(index, size, glcore::GL_FLOAT,
                               glcore::GL_FALSE, 0, data);
  }

  StatusOr<int> create_shared_buffer(int w, int h) override {
    auto buffer = gmem::GrallocAllocator::instance().allocate(
        w, h, PixelFormat::kRgba8888,
        gmem::kUsageCpuRead | gmem::kUsageCpuWrite | gmem::kUsageGpuTexture);
    CYCADA_RETURN_IF_ERROR(buffer.status());
    const int handle = next_buffer_handle_++;
    buffers_[handle] = {std::move(buffer.value()), nullptr, 0};
    return handle;
  }

  StatusOr<CpuCanvas> lock_buffer(int handle) override {
    auto it = buffers_.find(handle);
    if (it == buffers_.end()) return Status::not_found("no such buffer");
    SharedBuffer& shared = it->second;
    // A texture-bound GraphicBuffer cannot be CPU-locked: Android apps must
    // drop the EGLImage binding first (same restriction the Cycada
    // IOSurfaceLock dance works around, here handled by the app layer).
    if (shared.image != nullptr && shared.texture != 0) {
      glcore::GLint saved = 0;
      gl_->glGetIntegerv(glcore::GL_TEXTURE_BINDING_2D, &saved);
      gl_->glBindTexture(glcore::GL_TEXTURE_2D, shared.texture);
      const std::uint32_t pixel = 0;
      gl_->glTexImage2D(glcore::GL_TEXTURE_2D, 0, glcore::GL_RGBA, 1, 1, 0,
                        glcore::GL_RGBA, glcore::GL_UNSIGNED_BYTE, &pixel);
      gl_->glBindTexture(glcore::GL_TEXTURE_2D,
                         static_cast<GLuint>(saved));
      (void)egl_->eglDestroyImageKHR(shared.image);
      shared.image = nullptr;
    }
    auto base = shared.buffer->lock(gmem::kUsageCpuRead | gmem::kUsageCpuWrite);
    CYCADA_RETURN_IF_ERROR(base.status());
    CpuCanvas canvas;
    canvas.pixels = static_cast<std::uint32_t*>(base.value());
    canvas.stride_px = shared.buffer->stride_px();
    canvas.width = shared.buffer->width();
    canvas.height = shared.buffer->height();
    return canvas;
  }

  Status unlock_buffer(int handle) override {
    auto it = buffers_.find(handle);
    if (it == buffers_.end()) return Status::not_found("no such buffer");
    SharedBuffer& shared = it->second;
    CYCADA_RETURN_IF_ERROR(shared.buffer->unlock());
    // Re-establish the zero-copy texture binding if one existed.
    if (shared.texture != 0) {
      return bind_buffer_to_texture(handle, shared.texture);
    }
    return Status::ok();
  }

  Status bind_buffer_to_texture(int handle, GLuint texture) override {
    auto it = buffers_.find(handle);
    if (it == buffers_.end()) return Status::not_found("no such buffer");
    SharedBuffer& shared = it->second;
    glcore::EglImage* image = egl_->eglCreateImageKHR(shared.buffer->id());
    if (image == nullptr) return Status::internal("eglCreateImageKHR failed");
    glcore::GLint saved = 0;
    gl_->glGetIntegerv(glcore::GL_TEXTURE_BINDING_2D, &saved);
    gl_->glBindTexture(glcore::GL_TEXTURE_2D, texture);
    gl_->glEGLImageTargetTexture2DOES(glcore::GL_TEXTURE_2D, image);
    gl_->glBindTexture(glcore::GL_TEXTURE_2D, static_cast<GLuint>(saved));
    if (gl_->glGetError() != glcore::GL_NO_ERROR) {
      (void)egl_->eglDestroyImageKHR(image);
      return Status::internal("EGLImage texture binding failed");
    }
    shared.image = image;
    shared.texture = texture;
    return Status::ok();
  }

 private:
  struct SharedBuffer {
    std::shared_ptr<gmem::GraphicBuffer> buffer;
    glcore::EglImage* image = nullptr;
    GLuint texture = 0;
  };

  android_gl::AndroidEgl* egl_ = nullptr;
  android_gl::EglSurface* surface_ = nullptr;
  android_gl::EglContext* context_ = nullptr;
  glcore::GlesEngine* gl_ = nullptr;
  int width_ = 0;
  int height_ = 0;
  std::map<int, SharedBuffer> buffers_;
  int next_buffer_handle_ = 1;
};

}  // namespace

std::unique_ptr<GlPort> make_android_port() {
  return std::make_unique<AndroidPort>();
}

}  // namespace cycada::glport
