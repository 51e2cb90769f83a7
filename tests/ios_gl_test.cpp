// End-to-end tests of the foreign (iOS) graphics surface on both platforms:
// Cycada (diplomats into the Android stack) and native iOS (Apple engine).
#include "ios_gl/gles.h"

#include <gtest/gtest.h>

#include <thread>

#include "android_gl/vendor.h"
#include "core/diplomat.h"
#include "core/impersonation.h"
#include "gpu/device.h"
#include "ios_gl/eagl.h"
#include "ios_gl/platform.h"
#include "kernel/kernel.h"

namespace cycada::ios_gl {
namespace {

constexpr char kVsSolid[] =
    "attribute vec4 a_position; uniform mat4 u_mvp;"
    "void main() { gl_Position = u_mvp * a_position; }";
constexpr char kFsSolid[] =
    "uniform vec4 u_color; void main() { gl_FragColor = u_color; }";
const float kIdentity[16] = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1};

// An "iOS app" frame: set up an offscreen EAGL drawable, render a solid
// color quad, present. Returns the renderbuffer used.
GLuint render_solid_frame(EAGLContext::Ref context, float r, float g, float b,
                          int size = 16) {
  GLuint fbo = 0, rbo = 0;
  glGenFramebuffers(1, &fbo);
  glGenRenderbuffers(1, &rbo);
  glBindRenderbuffer(glcore::GL_RENDERBUFFER, rbo);
  EXPECT_TRUE(context
                  ->renderbuffer_storage_from_drawable(
                      rbo, CAEAGLLayer{size, size})
                  .is_ok());
  glBindFramebuffer(glcore::GL_FRAMEBUFFER, fbo);
  glFramebufferRenderbuffer(glcore::GL_FRAMEBUFFER,
                            glcore::GL_COLOR_ATTACHMENT0,
                            glcore::GL_RENDERBUFFER, rbo);
  EXPECT_EQ(glCheckFramebufferStatus(glcore::GL_FRAMEBUFFER),
            glcore::GL_FRAMEBUFFER_COMPLETE);
  glViewport(0, 0, size, size);
  glClearColor(r, g, b, 1.f);
  glClear(glcore::GL_COLOR_BUFFER_BIT);
  EXPECT_TRUE(context->present_renderbuffer(rbo).is_ok());
  return rbo;
}

class IosGlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel::Kernel::instance().reset();
    gpu::GpuDevice::instance().reset();
    gmem::GrallocAllocator::instance().reset();
    linker::Linker::instance().reset();
    iosurface::LinuxCoreSurface::instance().reset();
    core::DiplomatRegistry::instance().reset();
    core::GraphicsTlsTracker::instance().reset();
    core::GraphicsTlsTracker::instance().install();
    reset_native_ios();
    set_platform(Platform::kCycada);
    iosurface::LinuxCoreSurface::instance().set_native_lock_semantics(false);
    // The iOS app's main thread runs in the iOS persona.
    kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
    EAGLContext::clear_current_context();
  }

  void TearDown() override { EAGLContext::clear_current_context(); }
};

TEST_F(IosGlTest, EaglContextCreationBuildsReplica) {
  auto context = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(context.is_ok());
  EXPECT_EQ((*context)->api(), EAGLRenderingAPI::kOpenGLES2);
  EXPECT_NE((*context)->wrapper(), nullptr);
  EXPECT_NE((*context)->sharegroup(), nullptr);
  // One replica of the whole vendor stack was loaded.
  EXPECT_EQ(
      linker::Linker::instance().live_copy_count(android_gl::kUiWrapperLib),
      1);
  EXPECT_GE(
      linker::Linker::instance().live_copy_count(android_gl::kVendorGlesLib),
      2);  // process connection + replica
}

TEST_F(IosGlTest, FullCycadaFramePipeline) {
  auto context = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(context.is_ok());
  ASSERT_TRUE(EAGLContext::set_current_context(*context));
  render_solid_frame(*context, 0.f, 0.f, 1.f);
  const Image screen = (*context)->screen_snapshot();
  ASSERT_EQ(screen.width(), 320);  // the layer presents into the EAGL window
  EXPECT_EQ(screen.at(0, 0), 0xffff0000u);    // blue
  EXPECT_EQ(screen.at(15, 15), 0xffff0000u);  // blue (16x16 drawable region)
}

TEST_F(IosGlTest, NativeIosPipelineMatchesCycadaPixels) {
  // The same app code must produce identical pixels on both platforms
  // (the paper's "visually similar to the iPad mini" check, made exact).
  const auto run_app = [](int size) {
    auto context =
        EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2, size, size);
    EXPECT_TRUE(context.is_ok());
    EXPECT_TRUE(EAGLContext::set_current_context(*context));
    GLuint fbo = 0, rbo = 0;
    glGenFramebuffers(1, &fbo);
    glGenRenderbuffers(1, &rbo);
    glBindRenderbuffer(glcore::GL_RENDERBUFFER, rbo);
    EXPECT_TRUE((*context)
                    ->renderbuffer_storage_from_drawable(
                        rbo, CAEAGLLayer{size, size})
                    .is_ok());
    glBindFramebuffer(glcore::GL_FRAMEBUFFER, fbo);
    glFramebufferRenderbuffer(glcore::GL_FRAMEBUFFER,
                              glcore::GL_COLOR_ATTACHMENT0,
                              glcore::GL_RENDERBUFFER, rbo);
    glViewport(0, 0, size, size);
    glClearColor(0.2f, 0.4f, 0.6f, 1.f);
    glClear(glcore::GL_COLOR_BUFFER_BIT);
    // Draw a triangle through the programmable pipeline.
    const GLuint vs = glCreateShader(glcore::GL_VERTEX_SHADER);
    const GLuint fs = glCreateShader(glcore::GL_FRAGMENT_SHADER);
    const char* vs_src = kVsSolid;
    const char* fs_src = kFsSolid;
    glShaderSource(vs, 1, &vs_src, nullptr);
    glShaderSource(fs, 1, &fs_src, nullptr);
    glCompileShader(vs);
    glCompileShader(fs);
    const GLuint prog = glCreateProgram();
    glAttachShader(prog, vs);
    glAttachShader(prog, fs);
    glLinkProgram(prog);
    glUseProgram(prog);
    glUniformMatrix4fv(0, 1, glcore::GL_FALSE, kIdentity);
    glUniform4f(1, 1.f, 0.5f, 0.f, 1.f);
    const float triangle[] = {-0.8f, -0.8f, 0.8f, -0.8f, 0.f, 0.8f};
    glEnableVertexAttribArray(0);
    glVertexAttribPointer(0, 2, glcore::GL_FLOAT, glcore::GL_FALSE, 0,
                          triangle);
    glDrawArrays(glcore::GL_TRIANGLES, 0, 3);
    EXPECT_TRUE((*context)->present_renderbuffer(rbo).is_ok());
    Image screen = (*context)->screen_snapshot();
    EAGLContext::clear_current_context();
    return screen;
  };

  set_platform(Platform::kCycada);
  const Image cycada = run_app(32);
  set_platform(Platform::kNativeIos);
  const Image native = run_app(32);
  EXPECT_EQ(Image::diff_count(cycada, native), 0u);
  // Sanity: the triangle actually rendered.
  EXPECT_EQ(cycada.at(16, 24), 0xff0080ffu);  // orange-ish center-bottom
}

TEST_F(IosGlTest, GlCallsWithoutContextAreSafeNoOps) {
  glClear(glcore::GL_COLOR_BUFFER_BIT);
  EXPECT_EQ(glGetError(), glcore::GL_NO_ERROR);
  EXPECT_EQ(glCreateProgram(), 0u);
}

TEST_F(IosGlTest, MultithreadedGlesViaImpersonation) {
  // GCD-style pattern: the main thread creates the EAGL context; a worker
  // thread renders with it (iOS semantics). On Android this violates the
  // affinity rule, so the dispatch migrates TLS per call (paper §7).
  auto context = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(context.is_ok());
  ASSERT_TRUE(EAGLContext::set_current_context(*context));

  std::atomic<bool> worker_ok{false};
  std::thread worker([&] {
    kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
    EAGLContext::set_current_context(*context);
    render_solid_frame(*context, 1.f, 0.f, 0.f);
    worker_ok.store(glGetError() == glcore::GL_NO_ERROR);
    EAGLContext::clear_current_context();
  });
  worker.join();
  EXPECT_TRUE(worker_ok.load());
  const Image screen = (*context)->screen_snapshot();
  EXPECT_EQ(screen.at(0, 0), 0xff0000ffu);  // red frame from the worker
  // Main thread still renders fine afterwards.
  render_solid_frame(*context, 0.f, 1.f, 0.f);
  EXPECT_EQ((*context)->screen_snapshot().at(0, 0), 0xff00ff00u);
}

TEST_F(IosGlTest, MultipleGlesVersionsInOneProcessViaDlr) {
  // The §8 scenario: a GLES1 game plus a GLES2 WebKit view in ONE process.
  // Each EAGLContext gets its own vendor-stack replica, so the per-process
  // single-version restriction of stock Android does not bite.
  auto game = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES1);
  ASSERT_TRUE(game.is_ok());
  auto web = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(web.is_ok());
  EXPECT_NE((*game)->wrapper()->engine(), (*web)->wrapper()->engine());

  // GLES1 fixed-function rendering in the game context.
  ASSERT_TRUE(EAGLContext::set_current_context(*game));
  GLuint fbo = 0, rbo = 0;
  glGenFramebuffers(1, &fbo);
  glGenRenderbuffers(1, &rbo);
  glBindRenderbuffer(glcore::GL_RENDERBUFFER, rbo);
  ASSERT_TRUE(
      (*game)->renderbuffer_storage_from_drawable(rbo, CAEAGLLayer{8, 8})
          .is_ok());
  glBindFramebuffer(glcore::GL_FRAMEBUFFER, fbo);
  glFramebufferRenderbuffer(glcore::GL_FRAMEBUFFER,
                            glcore::GL_COLOR_ATTACHMENT0,
                            glcore::GL_RENDERBUFFER, rbo);
  glViewport(0, 0, 8, 8);
  glMatrixMode(glcore::GL_PROJECTION);
  glLoadIdentity();
  glOrthof(-1, 1, -1, 1, -1, 1);
  glMatrixMode(glcore::GL_MODELVIEW);
  glLoadIdentity();
  glColor4f(1.f, 1.f, 0.f, 1.f);
  const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  glEnableClientState(glcore::GL_VERTEX_ARRAY);
  glVertexPointer(2, glcore::GL_FLOAT, 0, quad);
  glDrawArrays(glcore::GL_TRIANGLES, 0, 6);
  ASSERT_TRUE((*game)->present_renderbuffer(rbo).is_ok());
  EXPECT_EQ((*game)->screen_snapshot().at(2, 2), 0xff00ffffu);  // yellow

  // GLES2 rendering in the web context, same process, same time.
  ASSERT_TRUE(EAGLContext::set_current_context(*web));
  render_solid_frame(*web, 0.f, 1.f, 1.f);
  EXPECT_EQ((*web)->screen_snapshot().at(0, 0), 0xffffff00u);  // cyan

  // The game context state was untouched.
  ASSERT_TRUE(EAGLContext::set_current_context(*game));
  EXPECT_EQ(glGetError(), glcore::GL_NO_ERROR);
}

TEST_F(IosGlTest, AppleFenceMapsToNvFence) {
  auto context = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(context.is_ok());
  ASSERT_TRUE(EAGLContext::set_current_context(*context));
  GLuint fence = 0;
  glGenFencesAPPLE(1, &fence);
  EXPECT_EQ(glIsFenceAPPLE(fence), glcore::GL_TRUE);
  glClear(glcore::GL_COLOR_BUFFER_BIT);
  glSetFenceAPPLE(fence);
  EXPECT_EQ(glTestFenceAPPLE(fence), glcore::GL_FALSE);
  glFinishFenceAPPLE(fence);
  EXPECT_EQ(glTestFenceAPPLE(fence), glcore::GL_TRUE);
  // The object variants re-arrange inputs onto the same NV fence.
  EXPECT_EQ(glTestObjectAPPLE(GL_FENCE_APPLE, fence), glcore::GL_TRUE);
  glFinishObjectAPPLE(GL_FENCE_APPLE, static_cast<GLint>(fence));
  glDeleteFencesAPPLE(1, &fence);
  EXPECT_EQ(glIsFenceAPPLE(fence), glcore::GL_FALSE);
  // The diplomats were classified indirect.
  for (const auto& snap : core::DiplomatRegistry::instance().snapshot()) {
    if (snap.name == "glSetFenceAPPLE") {
      EXPECT_EQ(snap.pattern, core::DiplomatPattern::kIndirect);
    }
  }
}

TEST_F(IosGlTest, AppleRowBytesHandledDataDependently) {
  auto context = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(context.is_ok());
  ASSERT_TRUE(EAGLContext::set_current_context(*context));
  const GLuint rbo = render_solid_frame(*context, 1.f, 0.f, 1.f, 4);
  (void)rbo;

  // Pack 4x4 RGBA pixels with a 32-byte row pitch (APPLE_row_bytes).
  glPixelStorei(glcore::GL_PACK_ROW_BYTES_APPLE, 32);
  std::vector<std::uint8_t> packed(32 * 4, 0xAB);
  glReadPixels(0, 0, 4, 4, glcore::GL_RGBA, glcore::GL_UNSIGNED_BYTE,
               packed.data());
  // Row 1 starts at byte 32, not 16.
  const auto* row1 = reinterpret_cast<const std::uint32_t*>(&packed[32]);
  EXPECT_EQ(row1[0], 0xffff00ffu);  // magenta
  // The pad gap was left untouched.
  EXPECT_EQ(packed[20], 0xAB);
  glPixelStorei(glcore::GL_PACK_ROW_BYTES_APPLE, 0);
  // No GL error surfaced to the app, and Android never saw the enum.
  EXPECT_EQ(glGetError(), glcore::GL_NO_ERROR);
}

TEST_F(IosGlTest, AppleUnpackRowBytesGiveTheSameTexelsOnBothStacks) {
  // 2x2 RGBA texels in rows 16 bytes apart: each row ends in 8 bytes of
  // padding that no upload may read as a texel.
  constexpr std::uint32_t kPad = 0xefbeaddeu;  // bytes de ad be ef
  const std::uint32_t strided[] = {0xff0000ffu, 0xff00ff00u, kPad, kPad,
                                   0xffff0000u, 0xff808080u, kPad, kPad};
  const std::vector<std::uint32_t> texels = {0xff0000ffu, 0xff00ff00u,
                                             0xffff0000u, 0xff808080u};
  // Uploads the texels under the unpack pitch, through glTexImage2D or
  // glTexSubImage2D, and reads them back through a framebuffer.
  const auto upload_and_read = [&](bool sub_image) {
    auto context =
        EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2, 16, 16);
    EXPECT_TRUE(context.is_ok());
    EXPECT_TRUE(EAGLContext::set_current_context(*context));
    GLuint texture = 0, fbo = 0;
    glGenTextures(1, &texture);
    glBindTexture(glcore::GL_TEXTURE_2D, texture);
    glPixelStorei(glcore::GL_UNPACK_ROW_BYTES_APPLE, 16);
    glTexImage2D(glcore::GL_TEXTURE_2D, 0, glcore::GL_RGBA, 2, 2, 0,
                 glcore::GL_RGBA, glcore::GL_UNSIGNED_BYTE,
                 sub_image ? nullptr : strided);
    if (sub_image) {
      glTexSubImage2D(glcore::GL_TEXTURE_2D, 0, 0, 0, 2, 2, glcore::GL_RGBA,
                      glcore::GL_UNSIGNED_BYTE, strided);
    }
    glPixelStorei(glcore::GL_UNPACK_ROW_BYTES_APPLE, 0);
    glGenFramebuffers(1, &fbo);
    glBindFramebuffer(glcore::GL_FRAMEBUFFER, fbo);
    glFramebufferTexture2D(glcore::GL_FRAMEBUFFER,
                           glcore::GL_COLOR_ATTACHMENT0,
                           glcore::GL_TEXTURE_2D, texture, 0);
    std::vector<std::uint32_t> read(4, 0);
    glReadPixels(0, 0, 2, 2, glcore::GL_RGBA, glcore::GL_UNSIGNED_BYTE,
                 read.data());
    EXPECT_EQ(glGetError(), glcore::GL_NO_ERROR);
    EAGLContext::clear_current_context();
    return read;
  };

  for (const Platform platform : {Platform::kCycada, Platform::kNativeIos}) {
    set_platform(platform);
    const char* stack = platform == Platform::kCycada ? "Cycada" : "iOS";
    EXPECT_EQ(upload_and_read(false), texels) << stack << " glTexImage2D";
    EXPECT_EQ(upload_and_read(true), texels) << stack << " glTexSubImage2D";
  }
}

TEST_F(IosGlTest, GetStringAppleParameterIsIntercepted) {
  auto context = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(context.is_ok());
  ASSERT_TRUE(EAGLContext::set_current_context(*context));
  const auto* apple =
      glGetString(glcore::GL_APPLE_PROPRIETARY_EXTENSIONS);
  ASSERT_NE(apple, nullptr);
  EXPECT_STREQ(reinterpret_cast<const char*>(apple), "");
  EXPECT_EQ(glGetError(), glcore::GL_NO_ERROR);
  // The regular parameters pass through to Android.
  const auto* vendor = glGetString(glcore::GL_VENDOR);
  ASSERT_NE(vendor, nullptr);
  EXPECT_STREQ(reinterpret_cast<const char*>(vendor), "NVIDIA Corporation");
}

TEST_F(IosGlTest, EaglScratchMethods) {
  auto context = EAGLContext::init_with_api_sharegroup(
      EAGLRenderingAPI::kOpenGLES2, std::make_shared<EAGLSharegroup>());
  ASSERT_TRUE(context.is_ok());
  (*context)->set_multithreaded(true);
  EXPECT_TRUE((*context)->is_multithreaded());
  (*context)->set_debug_label("webkit");
  EXPECT_EQ((*context)->debug_label(), "webkit");
  EXPECT_EQ(EAGLContext::current_context(), nullptr);
  ASSERT_TRUE(EAGLContext::set_current_context(*context));
  EXPECT_EQ(EAGLContext::current_context().get(), context->get());
  // The never-called method reports UNIMPLEMENTED.
  EXPECT_EQ((*context)->swap_renderbuffer(1).code(),
            StatusCode::kUnimplemented);
  // drawable_size works after storage is attached.
  EXPECT_FALSE((*context)->drawable_size(7).is_ok());
  GLuint rbo = render_solid_frame(*context, 0, 0, 0, 12);
  auto size = (*context)->drawable_size(rbo);
  ASSERT_TRUE(size.is_ok());
  EXPECT_EQ(size->first, 12);
}

TEST_F(IosGlTest, DiplomatStatsAccumulatePerFunction) {
  core::DiplomatRegistry::instance().set_profiling(true);
  auto context = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(context.is_ok());
  ASSERT_TRUE(EAGLContext::set_current_context(*context));
  render_solid_frame(*context, 0.5f, 0.5f, 0.5f);
  bool saw_clear = false, saw_present = false;
  for (const auto& snap : core::DiplomatRegistry::instance().snapshot()) {
    if (snap.name == "glClear" && snap.calls > 0 && snap.total_ns > 0) {
      saw_clear = true;
    }
    if (snap.name == "aegl_bridge_draw_fbo_tex" && snap.calls > 0) {
      saw_present = true;
    }
  }
  EXPECT_TRUE(saw_clear);
  EXPECT_TRUE(saw_present);
}

}  // namespace
}  // namespace cycada::ios_gl
