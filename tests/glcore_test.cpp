#include "glcore/engine.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "gpu/device.h"
#include "gpu/pipeline.h"
#include "kernel/kernel.h"
#include "trace/metrics.h"

namespace cycada::glcore {
namespace {

constexpr char kVsSolid[] =
    "attribute vec4 a_position; uniform mat4 u_mvp;"
    "void main() { gl_Position = u_mvp * a_position; }";
constexpr char kVsColor[] =
    "attribute vec4 a_position; attribute vec4 a_color; uniform mat4 u_mvp;"
    "varying vec4 v_color;"
    "void main() { gl_Position = u_mvp * a_position; v_color = a_color; }";
constexpr char kFsSolid[] =
    "uniform vec4 u_color; void main() { gl_FragColor = u_color; }";
constexpr char kFsColor[] =
    "varying vec4 v_color; void main() { gl_FragColor = v_color; }";
constexpr char kVsTex[] =
    "attribute vec4 a_position; attribute vec2 a_texcoord; uniform mat4 u_mvp;"
    "varying vec2 v_uv;"
    "void main() { gl_Position = u_mvp * a_position; v_uv = a_texcoord; }";
constexpr char kFsTex[] =
    "uniform sampler2D u_tex; varying vec2 v_uv;"
    "void main() { gl_FragColor = texture2D(u_tex, v_uv); }";

// Builds and links a program from two sources; returns the program name.
GLuint build_program(GlesEngine& gl, const char* vs_src, const char* fs_src) {
  const GLuint vs = gl.glCreateShader(GL_VERTEX_SHADER);
  const GLuint fs = gl.glCreateShader(GL_FRAGMENT_SHADER);
  gl.glShaderSource(vs, 1, &vs_src, nullptr);
  gl.glShaderSource(fs, 1, &fs_src, nullptr);
  gl.glCompileShader(vs);
  gl.glCompileShader(fs);
  const GLuint prog = gl.glCreateProgram();
  gl.glAttachShader(prog, vs);
  gl.glAttachShader(prog, fs);
  gl.glLinkProgram(prog);
  GLint linked = GL_FALSE;
  gl.glGetProgramiv(prog, GL_LINK_STATUS, &linked);
  EXPECT_EQ(linked, GL_TRUE);
  return prog;
}

const float kIdentity[16] = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1};

class GlcoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel::Kernel::instance().reset();
    gpu::GpuDevice::instance().reset();
    engine_ = std::make_unique<GlesEngine>(GlesEngineConfig{
        .vendor = "Test",
        .renderer = "SoftGPU",
        .extensions = "GL_NV_fence GL_OES_EGL_image",
        .supports_nv_fence = true,
    });
    target_ = gpu::GpuDevice::instance().create_target(32, 32, true);
  }

  // Creates a v2 context, makes it current and sets the viewport.
  void make_current_v2() {
    context_ = engine_->create_context(2);
    ASSERT_TRUE(engine_->make_current(context_, target_).is_ok());
    engine_->glViewport(0, 0, 32, 32);
  }

  void make_current_v1() {
    context_ = engine_->create_context(1);
    ASSERT_TRUE(engine_->make_current(context_, target_).is_ok());
    engine_->glViewport(0, 0, 32, 32);
  }

  std::vector<std::uint32_t> read_target() {
    std::vector<std::uint32_t> pixels(32 * 32);
    engine_->glReadPixels(0, 0, 32, 32, GL_RGBA, GL_UNSIGNED_BYTE,
                          pixels.data());
    return pixels;
  }

  std::unique_ptr<GlesEngine> engine_;
  ContextId context_ = kNoContext;
  gpu::RenderTargetHandle target_ = gpu::kNoHandle;
};

// glFlush submits the recorded commands as one frame, which runs on the
// tile pool; glFinish returns with every recorded command executed.
TEST_F(GlcoreTest, GlFlushSubmitsAFrameAndGlFinishSettles) {
  gpu::TileWorkerPool& pool = gpu::TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  pool.set_worker_count(4);
  gpu::GpuDevice& device = gpu::GpuDevice::instance();
  trace::Counter& async_frames =
      trace::MetricsRegistry::instance().counter("pipeline.frames.async");
  make_current_v2();
  engine_->glClearColor(1.f, 0.f, 0.f, 1.f);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  const gpu::FenceHandle flushed = device.submit_fence();
  const std::uint64_t async_before = async_frames.value();
  engine_->glFlush();
  EXPECT_EQ(device.pending_commands(), 0u);
  EXPECT_TRUE(device.wait_fence(flushed));
  EXPECT_EQ(async_frames.value(), async_before + 1);

  engine_->glClearColor(0.f, 1.f, 0.f, 1.f);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  const gpu::FenceHandle finished = device.submit_fence();
  engine_->glFinish();
  EXPECT_EQ(device.pending_commands(), 0u);
  EXPECT_TRUE(device.fence_signaled(finished));
  EXPECT_EQ(read_target()[0], 0xff00ff00u);
  pool.set_worker_count(saved_workers);
}

TEST_F(GlcoreTest, ClearWritesClearColor) {
  make_current_v2();
  engine_->glClearColor(1.f, 0.f, 0.f, 1.f);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  const auto pixels = read_target();
  for (std::uint32_t pixel : pixels) EXPECT_EQ(pixel, 0xff0000ffu);
}

TEST_F(GlcoreTest, SolidProgramDrawsUniformColor) {
  make_current_v2();
  engine_->glClearColor(0.f, 0.f, 0.f, 1.f);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  const GLuint prog = build_program(*engine_, kVsSolid, kFsSolid);
  engine_->glUseProgram(prog);
  engine_->glUniformMatrix4fv(engine_->glGetUniformLocation(prog, "u_mvp"), 1,
                              GL_FALSE, kIdentity);
  engine_->glUniform4f(engine_->glGetUniformLocation(prog, "u_color"), 0.f,
                       1.f, 0.f, 1.f);
  const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  engine_->glEnableVertexAttribArray(0);
  engine_->glVertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 0, quad);
  engine_->glDrawArrays(GL_TRIANGLES, 0, 6);
  const auto pixels = read_target();
  for (std::uint32_t pixel : pixels) EXPECT_EQ(pixel, 0xff00ff00u);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
}

TEST_F(GlcoreTest, VertexColorsInterpolate) {
  make_current_v2();
  const GLuint prog = build_program(*engine_, kVsColor, kFsColor);
  engine_->glUseProgram(prog);
  engine_->glUniformMatrix4fv(0, 1, GL_FALSE, kIdentity);
  const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  // Red on the left edge, blue on the right edge.
  const float colors[] = {1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1,
                          1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1};
  engine_->glEnableVertexAttribArray(0);
  engine_->glEnableVertexAttribArray(1);
  engine_->glVertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 0, quad);
  engine_->glVertexAttribPointer(1, 4, GL_FLOAT, GL_FALSE, 0, colors);
  engine_->glDrawArrays(GL_TRIANGLES, 0, 6);
  const auto pixels = read_target();
  const std::uint32_t left = pixels[16 * 32 + 1];
  const std::uint32_t right = pixels[16 * 32 + 30];
  EXPECT_GT(left & 0xff, 200u);                  // red channel high on left
  EXPECT_GT((right >> 16) & 0xff, 200u);         // blue channel high on right
}

TEST_F(GlcoreTest, VertexBufferObjectsFeedAttributes) {
  make_current_v2();
  const GLuint prog = build_program(*engine_, kVsSolid, kFsSolid);
  engine_->glUseProgram(prog);
  engine_->glUniformMatrix4fv(0, 1, GL_FALSE, kIdentity);
  engine_->glUniform4f(1, 0.f, 0.f, 1.f, 1.f);
  const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  GLuint vbo = 0;
  engine_->glGenBuffers(1, &vbo);
  engine_->glBindBuffer(GL_ARRAY_BUFFER, vbo);
  engine_->glBufferData(GL_ARRAY_BUFFER, sizeof(quad), quad, GL_STATIC_DRAW);
  engine_->glEnableVertexAttribArray(0);
  engine_->glVertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 0, nullptr);
  engine_->glDrawArrays(GL_TRIANGLES, 0, 6);
  const auto pixels = read_target();
  EXPECT_EQ(pixels[0], 0xffff0000u);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
}

TEST_F(GlcoreTest, DrawElementsWithIndexBuffer) {
  make_current_v2();
  const GLuint prog = build_program(*engine_, kVsSolid, kFsSolid);
  engine_->glUseProgram(prog);
  engine_->glUniformMatrix4fv(0, 1, GL_FALSE, kIdentity);
  engine_->glUniform4f(1, 1.f, 1.f, 1.f, 1.f);
  const float corners[] = {-1, -1, 1, -1, 1, 1, -1, 1};
  const std::uint16_t indices[] = {0, 1, 2, 0, 2, 3};
  engine_->glEnableVertexAttribArray(0);
  engine_->glVertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 0, corners);
  GLuint ibo = 0;
  engine_->glGenBuffers(1, &ibo);
  engine_->glBindBuffer(GL_ELEMENT_ARRAY_BUFFER, ibo);
  engine_->glBufferData(GL_ELEMENT_ARRAY_BUFFER, sizeof(indices), indices,
                        GL_STATIC_DRAW);
  engine_->glDrawElements(GL_TRIANGLES, 6, GL_UNSIGNED_SHORT, nullptr);
  const auto pixels = read_target();
  EXPECT_EQ(pixels[5 * 32 + 5], 0xffffffffu);
}

TEST_F(GlcoreTest, TexturedQuadReplicatesTexels) {
  make_current_v2();
  const GLuint prog = build_program(*engine_, kVsTex, kFsTex);
  engine_->glUseProgram(prog);
  engine_->glUniformMatrix4fv(0, 1, GL_FALSE, kIdentity);
  GLuint tex = 0;
  engine_->glGenTextures(1, &tex);
  engine_->glBindTexture(GL_TEXTURE_2D, tex);
  engine_->glTexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  const std::uint32_t texels[4] = {0xff0000ffu, 0xff0000ffu, 0xff0000ffu,
                                   0xff0000ffu};
  engine_->glTexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 2, 2, 0, GL_RGBA,
                        GL_UNSIGNED_BYTE, texels);
  const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  const float uvs[] = {0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1};
  engine_->glEnableVertexAttribArray(0);
  engine_->glEnableVertexAttribArray(2);
  engine_->glVertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 0, quad);
  engine_->glVertexAttribPointer(2, 2, GL_FLOAT, GL_FALSE, 0, uvs);
  engine_->glDrawArrays(GL_TRIANGLES, 0, 6);
  const auto pixels = read_target();
  EXPECT_EQ(pixels[16 * 32 + 16], 0xff0000ffu);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
}

TEST_F(GlcoreTest, Gles1FixedFunctionQuad) {
  make_current_v1();
  engine_->glClearColor(0, 0, 0, 1);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  engine_->glMatrixMode(GL_PROJECTION);
  engine_->glLoadIdentity();
  engine_->glOrthof(-2, 2, -2, 2, -1, 1);
  engine_->glMatrixMode(GL_MODELVIEW);
  engine_->glLoadIdentity();
  engine_->glScalef(2.f, 2.f, 1.f);
  engine_->glColor4f(1.f, 0.f, 1.f, 1.f);
  const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  engine_->glEnableClientState(GL_VERTEX_ARRAY);
  engine_->glVertexPointer(2, GL_FLOAT, 0, quad);
  engine_->glDrawArrays(GL_TRIANGLES, 0, 6);
  const auto pixels = read_target();
  // ortho [-2,2] with modelview scale 2 makes the unit quad fill the screen.
  for (std::uint32_t pixel : pixels) EXPECT_EQ(pixel, 0xffff00ffu);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
}

TEST_F(GlcoreTest, Gles1MatrixStackPushPop) {
  make_current_v1();
  engine_->glMatrixMode(GL_MODELVIEW);
  engine_->glLoadIdentity();
  engine_->glPushMatrix();
  engine_->glTranslatef(5.f, 0.f, 0.f);
  engine_->glPopMatrix();
  // After pop the matrix must be identity again; over-popping errors.
  engine_->glPopMatrix();
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_OPERATION);
}

TEST_F(GlcoreTest, FramebufferRenderbufferRoundTrip) {
  make_current_v2();
  GLuint fbo = 0, rbo = 0;
  engine_->glGenFramebuffers(1, &fbo);
  engine_->glGenRenderbuffers(1, &rbo);
  engine_->glBindRenderbuffer(GL_RENDERBUFFER, rbo);
  engine_->glRenderbufferStorage(GL_RENDERBUFFER, GL_RGBA8_OES, 16, 16);
  engine_->glBindFramebuffer(GL_FRAMEBUFFER, fbo);
  engine_->glFramebufferRenderbuffer(GL_FRAMEBUFFER, GL_COLOR_ATTACHMENT0,
                                     GL_RENDERBUFFER, rbo);
  EXPECT_EQ(engine_->glCheckFramebufferStatus(GL_FRAMEBUFFER),
            GL_FRAMEBUFFER_COMPLETE);
  engine_->glClearColor(0.f, 1.f, 1.f, 1.f);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  std::vector<std::uint32_t> pixels(16 * 16);
  engine_->glReadPixels(0, 0, 16, 16, GL_RGBA, GL_UNSIGNED_BYTE, pixels.data());
  EXPECT_EQ(pixels[0], 0xffffff00u);  // cyan
  // Unbinding returns rendering to the default target.
  engine_->glBindFramebuffer(GL_FRAMEBUFFER, 0);
  EXPECT_EQ(engine_->resolve_draw_target(), target_);
}

TEST_F(GlcoreTest, IncompleteFramebufferReported) {
  make_current_v2();
  GLuint fbo = 0;
  engine_->glGenFramebuffers(1, &fbo);
  engine_->glBindFramebuffer(GL_FRAMEBUFFER, fbo);
  EXPECT_EQ(engine_->glCheckFramebufferStatus(GL_FRAMEBUFFER),
            GL_FRAMEBUFFER_INCOMPLETE_ATTACHMENT);
}

TEST_F(GlcoreTest, NvFenceLifecycle) {
  make_current_v2();
  GLuint fence = 0;
  engine_->glGenFencesNV(1, &fence);
  EXPECT_EQ(engine_->glIsFenceNV(fence), GL_TRUE);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  engine_->glSetFenceNV(fence, GL_ALL_COMPLETED_NV);
  EXPECT_EQ(engine_->glTestFenceNV(fence), GL_FALSE);
  engine_->glFinishFenceNV(fence);
  EXPECT_EQ(engine_->glTestFenceNV(fence), GL_TRUE);
  engine_->glDeleteFencesNV(1, &fence);
  EXPECT_EQ(engine_->glIsFenceNV(fence), GL_FALSE);
}

TEST_F(GlcoreTest, ErrorsAreStickyUntilRead) {
  make_current_v2();
  engine_->glEnable(0xDEAD);
  engine_->glDepthFunc(0xBEEF);  // second error does not overwrite the first
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_ENUM);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
}

TEST_F(GlcoreTest, DrawWithoutProgramRecordsError) {
  make_current_v2();
  const float quad[] = {-1, -1, 1, -1, 1, 1};
  engine_->glEnableVertexAttribArray(0);
  engine_->glVertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 0, quad);
  engine_->glDrawArrays(GL_TRIANGLES, 0, 3);
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_OPERATION);
}

TEST_F(GlcoreTest, CurrentContextIsPerThread) {
  make_current_v2();
  // The worker thread has no current context: its GL calls are no-ops and
  // its current_context_id is kNoContext.
  ContextId seen = 999;
  std::thread worker([&] { seen = engine_->current_context_id(); });
  worker.join();
  EXPECT_EQ(seen, kNoContext);
  EXPECT_EQ(engine_->current_context_id(), context_);
}

TEST_F(GlcoreTest, ContextRecordsCreatorThread) {
  make_current_v2();
  EXPECT_EQ(engine_->context_creator(context_), kernel::sys_gettid());
  EXPECT_EQ(engine_->context_version(context_), 2);
}

TEST_F(GlcoreTest, DestroyContextReleasesResources) {
  make_current_v2();
  GLuint tex = 0;
  engine_->glGenTextures(1, &tex);
  engine_->glBindTexture(GL_TEXTURE_2D, tex);
  engine_->glTexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 4, 4, 0, GL_RGBA,
                        GL_UNSIGNED_BYTE, nullptr);
  ASSERT_TRUE(engine_->make_current(kNoContext, gpu::kNoHandle).is_ok());
  ASSERT_TRUE(engine_->destroy_context(context_).is_ok());
  EXPECT_FALSE(engine_->destroy_context(context_).is_ok());
}

TEST_F(GlcoreTest, GetStringReportsConfig) {
  make_current_v2();
  EXPECT_STREQ(reinterpret_cast<const char*>(engine_->glGetString(GL_VENDOR)),
               "Test");
  const auto* extensions =
      reinterpret_cast<const char*>(engine_->glGetString(GL_EXTENSIONS));
  EXPECT_NE(std::string_view(extensions).find("GL_NV_fence"),
            std::string_view::npos);
}

TEST_F(GlcoreTest, ViewportRestrictsRendering) {
  make_current_v2();
  engine_->glClearColor(0, 0, 0, 1);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  engine_->glViewport(0, 0, 16, 16);  // top-left quarter (row-0-top space)
  const GLuint prog = build_program(*engine_, kVsSolid, kFsSolid);
  engine_->glUseProgram(prog);
  engine_->glUniformMatrix4fv(0, 1, GL_FALSE, kIdentity);
  engine_->glUniform4f(1, 1, 1, 1, 1);
  const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  engine_->glEnableVertexAttribArray(0);
  engine_->glVertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 0, quad);
  engine_->glDrawArrays(GL_TRIANGLES, 0, 6);
  engine_->glViewport(0, 0, 32, 32);
  const auto pixels = read_target();
  EXPECT_EQ(pixels[8 * 32 + 8], 0xffffffffu);
  EXPECT_EQ(pixels[24 * 32 + 24], 0xff000000u);
}

}  // namespace
}  // namespace cycada::glcore
