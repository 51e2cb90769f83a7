// Integration tests of the app layer (browser, PassMark, GCD dispatch)
// across the four system configurations of the paper's evaluation.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/impersonation.h"
#include "core/session.h"
#include "dispatch/dispatch.h"
#include "glport/system_config.h"
#include "gmem/graphic_buffer.h"
#include "gpu/pipeline.h"
#include "kernel/kernel.h"
#include "passmark/passmark.h"
#include "trace/metrics.h"
#include "ios_gl/gles.h"
#include "util/image.h"
#include "webkit/browser.h"
#include "webkit/raster.h"

namespace cycada {
namespace {

using glport::SystemConfig;

class ConfigTest : public ::testing::TestWithParam<SystemConfig> {
 protected:
  void SetUp() override { glport::apply_system_config(GetParam()); }
};

TEST_P(ConfigTest, PortRendersAndPresents) {
  auto port = glport::make_gl_port(GetParam());
  ASSERT_TRUE(port->init(64, 64, 2).is_ok());
  port->begin_frame();
  port->clear_color(1.f, 0.f, 0.f, 1.f);
  port->clear(glcore::GL_COLOR_BUFFER_BIT);
  ASSERT_TRUE(port->present().is_ok());
  const Image screen = port->screen();
  EXPECT_EQ(screen.at(0, 0), 0xff0000ffu);
  EXPECT_EQ(screen.at(63, 63), 0xff0000ffu);
  EXPECT_EQ(port->get_error(), glcore::GL_NO_ERROR);
}

TEST_P(ConfigTest, SharedBufferLockRoundTrip) {
  auto port = glport::make_gl_port(GetParam());
  ASSERT_TRUE(port->init(32, 32, 2).is_ok());
  auto handle = port->create_shared_buffer(16, 16);
  ASSERT_TRUE(handle.is_ok());
  const glport::GLuint texture = port->gen_texture();
  ASSERT_TRUE(port->bind_buffer_to_texture(*handle, texture).is_ok());
  // Lock while texture-bound: the restriction dance must make this work on
  // every configuration.
  auto canvas = port->lock_buffer(*handle);
  ASSERT_TRUE(canvas.is_ok()) << canvas.status().to_string();
  canvas->pixels[0] = 0xff00ff00u;
  ASSERT_TRUE(port->unlock_buffer(*handle).is_ok());
  EXPECT_EQ(port->get_error(), glcore::GL_NO_ERROR);

  // The lock settles the GPU: a quad drawn from the buffer before the lock
  // shows the buffer as it was (red), never the CPU's refill (blue), at 1
  // and at 4 tile workers. The draw is the browser's tile composite.
  constexpr std::uint32_t kRed = 0xff0000ffu;
  constexpr std::uint32_t kBlue = 0xffff0000u;
  constexpr char kVs[] =
      "attribute vec4 a_position; attribute vec2 a_texcoord;"
      "uniform mat4 u_mvp; varying vec2 v_uv;"
      "void main() { gl_Position = u_mvp * a_position; v_uv = a_texcoord; }";
  constexpr char kFs[] =
      "uniform sampler2D u_tex; varying vec2 v_uv;"
      "void main() { gl_FragColor = texture2D(u_tex, v_uv); }";
  gpu::TileWorkerPool& pool = gpu::TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  const auto draw_then_refill = [&](int workers) {
    pool.set_worker_count(workers);
    auto app = glport::make_gl_port(GetParam());
    if (!app->init(32, 32, 2).is_ok()) return Image();
    auto buffer = app->create_shared_buffer(16, 16);
    if (!buffer.is_ok()) return Image();
    const auto fill = [&](std::uint32_t color) {
      auto cpu = app->lock_buffer(*buffer);
      if (!cpu.is_ok()) return false;
      for (int y = 0; y < cpu->height; ++y) {
        std::fill_n(cpu->pixels + static_cast<std::size_t>(y) * cpu->stride_px,
                    cpu->width, color);
      }
      return app->unlock_buffer(*buffer).is_ok();
    };
    const glport::GLuint sampled = app->gen_texture();
    const glport::GLuint program = app->build_program(kVs, kFs);
    if (program == 0 || !fill(kRed) ||
        !app->bind_buffer_to_texture(*buffer, sampled).is_ok()) {
      return Image();
    }
    app->begin_frame();
    app->use_program(program);
    app->uniform_matrix(app->uniform_location(program, "u_mvp"),
                        Mat4::identity());
    app->uniform1i(app->uniform_location(program, "u_tex"), 0);
    app->bind_texture(sampled);
    app->enable_vertex_attrib(0);
    app->enable_vertex_attrib(2);
    const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
    const float uv[] = {0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1};
    app->vertex_attrib_pointer(0, 2, quad);
    app->vertex_attrib_pointer(2, 2, uv);
    app->draw_arrays(glcore::GL_TRIANGLES, 0, 6);
    if (!fill(kBlue) || !app->present().is_ok()) return Image();
    return app->screen();
  };
  for (const int workers : {1, 4}) {
    const Image screen = draw_then_refill(workers);
    EXPECT_FALSE(screen.empty()) << workers << " worker(s)";
    if (screen.empty()) continue;
    EXPECT_EQ(Image::diff_count(screen, Image(32, 32, kRed)), 0u)
        << workers << " worker(s): centre pixel " << std::hex
        << screen.at(16, 16) << " (blue is " << kBlue << ")";
  }
  pool.set_worker_count(saved_workers);
}

TEST_P(ConfigTest, BrowserAcidScoreIs100) {
  auto port = glport::make_gl_port(GetParam());
  ASSERT_TRUE(port->init(256, 192, 2).is_ok());
  webkit::Browser browser(*port, /*jit_enabled=*/true);
  EXPECT_EQ(browser.acid_score(), 100) << glport::config_name(GetParam());
}

TEST_P(ConfigTest, BrowserRunsScriptAndRendersResults) {
  auto port = glport::make_gl_port(GetParam());
  ASSERT_TRUE(port->init(128, 128, 2).is_ok());
  const bool jit = GetParam() != SystemConfig::kCycadaIos;  // the Mach VM bug
  webkit::Browser browser(*port, jit);
  auto result = browser.run_script("var s = 0; for (var i = 1; i <= 10; i++) s += i; s;");
  ASSERT_TRUE(result.is_ok());
  EXPECT_DOUBLE_EQ(*result, 55.0);
  EXPECT_GE(browser.frames_rendered(), 1);
}

// Every test renders cleanly in every configuration, and its screen after
// Figure 6's frame count (128x128, one warm-up frame plus TestSpec::frames)
// is byte-identical at 1 and 4 tile workers: the tiled rasterizer's
// determinism gate (docs/PIPELINE.md). At 1, 3 and 1 + TestSpec::frames
// frames every configuration's screen is also byte-identical with
// Android's: the EAGL present pass draws what the app drew, whatever
// blend, depth, cull or scissor state the app leaves enabled.
TEST_P(ConfigTest, PassMarkTestsRunCleanly) {
  gpu::TileWorkerPool& pool = gpu::TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  const std::string_view config = glport::config_name(GetParam());
  // A failed init returns an empty screen, which the checks below reject.
  auto render = [&](SystemConfig system, const passmark::TestSpec& spec,
                    int frames, int workers) {
    glport::apply_system_config(system);
    pool.set_worker_count(workers);
    auto port = glport::make_gl_port(system);
    if (!port->init(128, 128, 1).is_ok()) return Image();
    passmark::PassMark passmark(*port);
    auto primitives = passmark.run(spec.name, frames);
    EXPECT_TRUE(primitives.is_ok())
        << spec.name << " on " << glport::config_name(system) << " at "
        << workers << " worker(s): " << primitives.status().to_string();
    EXPECT_GT(primitives.value_or(0), 0u) << spec.name;
    return port->screen();
  };
  for (const auto& spec : passmark::test_specs()) {
    const int full = 1 + spec.frames;
    const Image serial = render(GetParam(), spec, full, 1);
    const Image parallel = render(GetParam(), spec, full, 4);
    EXPECT_FALSE(serial.empty()) << spec.name << " on " << config;
    EXPECT_EQ(Image::diff_count(serial, parallel), 0u)
        << spec.name << " on " << config
        << ": the screen differs between 1 and 4 tile workers";
    if (GetParam() == SystemConfig::kAndroid) continue;
    for (const int frames : {1, 3, full}) {
      const Image screen =
          frames == full ? serial : render(GetParam(), spec, frames, 1);
      const Image android = render(SystemConfig::kAndroid, spec, frames, 1);
      EXPECT_FALSE(android.empty()) << spec.name << " on Android";
      EXPECT_EQ(Image::diff_count(screen, android), 0u)
          << spec.name << " on " << config << " after " << frames
          << " frame(s): the screen differs from Android's";
    }
  }
  glport::apply_system_config(GetParam());
  pool.set_worker_count(saved_workers);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigTest,
                         ::testing::Values(SystemConfig::kAndroid,
                                           SystemConfig::kCycadaAndroid,
                                           SystemConfig::kCycadaIos,
                                           SystemConfig::kIos),
                         [](const auto& info) {
                           switch (info.param) {
                             case SystemConfig::kAndroid: return "Android";
                             case SystemConfig::kCycadaAndroid:
                               return "CycadaAndroid";
                             case SystemConfig::kCycadaIos: return "CycadaIos";
                             case SystemConfig::kIos: return "Ios";
                           }
                           return "Unknown";
                         });

// The Cycada iOS present submits, it does not wait: at 4 tile workers,
// after one warm-up frame, every frame of K Solid Vectors presents runs on
// the pool, none inline on the app thread, and the screen is the 1-worker
// screen.
TEST(CycadaIosPresentTest, PresentsExecuteNoFrameInline) {
  gpu::TileWorkerPool& pool = gpu::TileWorkerPool::instance();
  const int saved_workers = pool.worker_count();
  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  const auto inline_frames = [&] {
    return metrics.counter("pipeline.frames").value() -
           metrics.counter("pipeline.frames.async").value();
  };
  constexpr int kPresents = 6;
  Image screens[2];
  for (const int workers : {1, 4}) {
    glport::apply_system_config(SystemConfig::kCycadaIos);
    pool.set_worker_count(workers);
    auto port = glport::make_gl_port(SystemConfig::kCycadaIos);
    ASSERT_TRUE(port->init(128, 128, 1).is_ok());
    passmark::PassMark passmark(*port);
    ASSERT_TRUE(passmark.run("Solid Vectors", 1).is_ok());
    (void)port->screen();  // retires the warm-up frame
    const std::uint64_t before = inline_frames();
    ASSERT_TRUE(passmark.run("Solid Vectors", kPresents).is_ok());
    screens[workers == 4 ? 1 : 0] = port->screen();
    if (workers == 4) {
      EXPECT_EQ(inline_frames(), before)
          << "a present executed recorded work on the app thread";
    }
  }
  EXPECT_FALSE(screens[0].empty());
  EXPECT_EQ(Image::diff_count(screens[0], screens[1]), 0u);
  pool.set_worker_count(saved_workers);
}

// The 1:1 quads the Cycada iOS stack draws are row copies
// (pipeline.spans_copied): a present at 512x512 copies at least one span
// per row, and so does the browser's tile composite on every page.
TEST(CycadaIosPresentTest, PresentsAndCompositesCopySpans) {
  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  const auto copied = [&] {
    return metrics.counter("pipeline.spans_copied").value();
  };
  glport::apply_system_config(SystemConfig::kCycadaIos);
  {
    auto port = glport::make_gl_port(SystemConfig::kCycadaIos);
    ASSERT_TRUE(port->init(512, 512, 1).is_ok());
    passmark::PassMark passmark(*port);
    ASSERT_TRUE(passmark.run("Solid Vectors", 1).is_ok());
    (void)port->screen();  // retires the warm-up frame
    constexpr int kPresents = 3;
    const std::uint64_t before = copied();
    ASSERT_TRUE(passmark.run("Solid Vectors", kPresents).is_ok());
    (void)port->screen();
    EXPECT_GE(copied() - before, 512u * kPresents);
  }
  auto port = glport::make_gl_port(SystemConfig::kCycadaIos);
  ASSERT_TRUE(port->init(320, 480, 2).is_ok());
  webkit::Browser browser(*port, false);
  for (const char* page :
       {"<body bg=#ffffff><h1 color=#202020>Results</h1></body>",
        "<body bg=#182028><p color=#a0e0a0>score 42</p>"
        "<div bg=#c02030 width=80 height=24></div></body>",
        "<body bg=#dbe6f0><div bg=#123456 height=400></div></body>"}) {
    const std::uint64_t before = copied();
    ASSERT_TRUE(browser.load(page).is_ok());
    (void)browser.screen();
    EXPECT_GT(copied(), before) << page;
  }
  glport::apply_system_config(SystemConfig::kAndroid);
}

TEST(CrossConfigTest, BrowserPixelsIdenticalEverywhere) {
  // The paper's functional claim, strengthened: the same page renders
  // pixel-for-pixel identically on all four configurations.
  const char* page =
      "<body bg=#dbe6f0><h1 color=#101820>Cycada</h1>"
      "<div bg=#c02030 width=80 height=24></div>"
      "<p color=#203040>binary compatible graphics support for iOS apps on "
      "Android devices</p></body>";
  std::vector<Image> screens;
  Image reference;
  for (SystemConfig config :
       {SystemConfig::kAndroid, SystemConfig::kCycadaAndroid,
        SystemConfig::kCycadaIos, SystemConfig::kIos}) {
    glport::apply_system_config(config);
    auto port = glport::make_gl_port(config);
    ASSERT_TRUE(port->init(192, 160, 2).is_ok());
    webkit::Browser browser(*port, true);
    ASSERT_TRUE(browser.load(page).is_ok());
    screens.push_back(browser.screen());
    if (config == SystemConfig::kAndroid) {
      reference = webkit::software_render(browser.display_list(),
                                          webkit::parse_color("#dbe6f0"),
                                          192, 160);
    }
  }
  for (std::size_t i = 1; i < screens.size(); ++i) {
    EXPECT_EQ(Image::diff_count(screens[0], screens[i]), 0u) << i;
  }
  // And it matches the software reference renderer: the composited tile
  // quads leave no seam at the compositor's clear color.
  EXPECT_EQ(Image::diff_count(screens[0], reference), 0u);
  glport::apply_system_config(SystemConfig::kAndroid);
}

// An Android port releases what it made through EGL: its window surface
// (two layer GraphicBuffers and their targets), its context and the
// EGLImages it bound shared buffers through. Ports come and go within one
// configuration, so nothing may wait for the libEGL copy to die.
TEST(AndroidPortTest, DestroyedPortsReleaseTheirBuffers) {
  glport::apply_system_config(SystemConfig::kAndroid);
  gmem::GrallocAllocator& gralloc = gmem::GrallocAllocator::instance();
  const std::size_t live_before = gralloc.live_buffers();
  for (int i = 0; i < 3; ++i) {
    auto port = glport::make_gl_port(SystemConfig::kAndroid);
    ASSERT_TRUE(port->init(32, 32, 2).is_ok());
    auto handle = port->create_shared_buffer(8, 8);
    ASSERT_TRUE(handle.is_ok());
    ASSERT_TRUE(
        port->bind_buffer_to_texture(*handle, port->gen_texture()).is_ok());
    port->begin_frame();
    port->clear_color(0.f, 1.f, 0.f, 1.f);
    port->clear(glcore::GL_COLOR_BUFFER_BIT);
    ASSERT_TRUE(port->present().is_ok());
    EXPECT_EQ(port->screen().at(31, 31), 0xff00ff00u);
  }
  EXPECT_EQ(gralloc.live_buffers(), live_before);
}

TEST(DocumentTest, ParsesNestedMarkup) {
  auto doc = webkit::Document::parse(
      "<body bg=#000000><div bg=#ff0000 width=10 height=20>"
      "<span color=#00ff00>hi</span></div><p>text here</p></body>");
  ASSERT_TRUE(doc.is_ok());
  const auto& body = doc->body();
  EXPECT_EQ(body.tag, "body");
  ASSERT_EQ(body.children.size(), 2u);
  EXPECT_EQ(body.children[0]->tag, "div");
  EXPECT_EQ(body.children[0]->width, 10);
  EXPECT_EQ(body.children[0]->bg, 0xff0000ffu);
  EXPECT_EQ(body.children[1]->tag, "p");
}

TEST(DocumentTest, RejectsMalformedMarkup) {
  EXPECT_FALSE(webkit::Document::parse("<div>").is_ok());
  EXPECT_FALSE(webkit::Document::parse("<div></span>").is_ok());
  EXPECT_FALSE(webkit::Document::parse("<div foo>").is_ok());
}

TEST(LayoutTest, TextWrapsAtViewportWidth) {
  auto doc = webkit::Document::parse(
      "<body><p>aaaa bbbb cccc dddd eeee ffff</p></body>");
  ASSERT_TRUE(doc.is_ok());
  const auto narrow = webkit::layout(*doc, 80);
  const auto wide = webkit::layout(*doc, 600);
  // The narrow viewport needs more lines (taller content, more runs).
  EXPECT_GT(narrow.text_runs.size(), wide.text_runs.size());
  EXPECT_GT(narrow.content_height, wide.content_height);
}

TEST(LayoutTest, ExplicitHeightsRespected) {
  auto doc = webkit::Document::parse(
      "<body><div bg=#112233 height=40></div><div bg=#445566 height=8></div>"
      "</body>");
  ASSERT_TRUE(doc.is_ok());
  const auto list = webkit::layout(*doc, 100);
  ASSERT_GE(list.rects.size(), 2u);
  EXPECT_EQ(list.rects[0].rect.height, 40);
  EXPECT_EQ(list.rects[1].rect.height, 8);
  EXPECT_GE(list.rects[1].rect.y, list.rects[0].rect.y + 40);
}

TEST(RasterTest, GlyphsAreDeterministic) {
  int set_pixels = 0;
  for (int gy = 0; gy < webkit::kGlyphHeight; ++gy) {
    for (int gx = 0; gx < webkit::kGlyphWidth; ++gx) {
      EXPECT_EQ(webkit::glyph_pixel('A', gx, gy),
                webkit::glyph_pixel('A', gx, gy));
      set_pixels += webkit::glyph_pixel('A', gx, gy);
      EXPECT_FALSE(webkit::glyph_pixel(' ', gx, gy));
    }
  }
  EXPECT_GT(set_pixels, 0);
}

TEST(DispatchTest, AsyncJobsAdoptSubmitterContext) {
  glport::apply_system_config(SystemConfig::kCycadaIos);
  auto context =
      ios_gl::EAGLContext::init_with_api(ios_gl::EAGLRenderingAPI::kOpenGLES2);
  ASSERT_TRUE(context.is_ok());
  ASSERT_TRUE(ios_gl::EAGLContext::set_current_context(*context));

  dispatch::DispatchQueue queue("com.cycada.render");
  std::atomic<bool> adopted{false};
  std::atomic<int> gl_error{-1};
  queue.sync([&] {
    // The job sees the submitter's EAGL context (GCD semantics, paper §7).
    adopted.store(ios_gl::EAGLContext::current_context().get() ==
                  context->get());
    ios_gl::glClearColor(0.f, 1.f, 0.f, 1.f);
    gl_error.store(static_cast<int>(ios_gl::glGetError()));
  });
  EXPECT_TRUE(adopted.load());
  EXPECT_EQ(gl_error.load(), static_cast<int>(glcore::GL_NO_ERROR));

  // Many async jobs across a concurrent queue all complete.
  dispatch::DispatchQueue pool("com.cycada.pool",
                               dispatch::DispatchQueue::Kind::kConcurrent, 3);
  std::atomic<int> done{0};
  for (int i = 0; i < 24; ++i) {
    pool.async([&] { done.fetch_add(1); });
  }
  pool.drain();
  EXPECT_EQ(done.load(), 24);
  EXPECT_EQ(pool.jobs_completed(), 24u);
  ios_gl::EAGLContext::clear_current_context();
}

// An EAGL drawable of `size`² attached to a fresh framebuffer of `context`,
// made current on the calling thread. Returns the renderbuffer.
glcore::GLuint attach_drawable(const ios_gl::EAGLContext::Ref& context,
                               int size) {
  EXPECT_TRUE(ios_gl::EAGLContext::set_current_context(context));
  glcore::GLuint fbo = 0;
  glcore::GLuint rbo = 0;
  ios_gl::glGenFramebuffers(1, &fbo);
  ios_gl::glGenRenderbuffers(1, &rbo);
  ios_gl::glBindRenderbuffer(glcore::GL_RENDERBUFFER, rbo);
  EXPECT_TRUE(context
                  ->renderbuffer_storage_from_drawable(
                      rbo, ios_gl::CAEAGLLayer{size, size})
                  .is_ok());
  ios_gl::glBindFramebuffer(glcore::GL_FRAMEBUFFER, fbo);
  ios_gl::glFramebufferRenderbuffer(glcore::GL_FRAMEBUFFER,
                                    glcore::GL_COLOR_ATTACHMENT0,
                                    glcore::GL_RENDERBUFFER, rbo);
  ios_gl::glViewport(0, 0, size, size);
  return rbo;
}

trace::Counter& impersonation_acquires() {
  return trace::MetricsRegistry::instance().counter("impersonation.acquires");
}

TEST(DispatchTest, JobsRunInTheSubmittersSession) {
  glport::apply_system_config(SystemConfig::kCycadaIos);
  auto session = core::SessionRegistry::instance().create("gcd-submitter");
  ASSERT_TRUE(session.is_ok());
  {
    core::SessionScope scope(**session);
    kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
    core::GraphicsTlsTracker::instance().install();
    auto context = ios_gl::EAGLContext::init_with_api(
        ios_gl::EAGLRenderingAPI::kOpenGLES2);
    ASSERT_TRUE(context.is_ok());
    ASSERT_TRUE(ios_gl::EAGLContext::set_current_context(*context));

    const std::uint64_t acquires = impersonation_acquires().value();
    std::uint32_t job_session = ~0u;
    int gl_error = -1;
    {
      dispatch::DispatchQueue queue("com.cycada.session");
      queue.sync([&] {
        // Kernel registration, TLS, crossings and fault filter: all the
        // submitter's session, so the creator's tid resolves there.
        job_session = core::Session::current().id();
        ios_gl::glClearColor(0.f, 1.f, 0.f, 1.f);
        gl_error = static_cast<int>(ios_gl::glGetError());
      });
    }
    EXPECT_EQ(job_session, (*session)->id());
    EXPECT_EQ(gl_error, static_cast<int>(glcore::GL_NO_ERROR));
    EXPECT_EQ(impersonation_acquires().value() - acquires, 2u);
    EXPECT_EQ((*session)->cross_leak_total(), 0u);
    ios_gl::EAGLContext::clear_current_context();
  }
  core::SessionRegistry::instance().destroy(*session);
}

TEST(DispatchTest, JobRendersWithTheContextItsCreatorSwitchedAwayFrom) {
  // One thread creates two contexts and makes the second current; a GCD
  // job renders and presents with the first. Each GL call of the job
  // impersonates the creator with the first context's TLS.
  glport::apply_system_config(SystemConfig::kCycadaIos);
  auto first = ios_gl::EAGLContext::init_with_api(
      ios_gl::EAGLRenderingAPI::kOpenGLES2, 16, 16);
  auto second = ios_gl::EAGLContext::init_with_api(
      ios_gl::EAGLRenderingAPI::kOpenGLES2, 16, 16);
  ASSERT_TRUE(first.is_ok() && second.is_ok());
  const glcore::GLuint first_rbo = attach_drawable(*first, 16);
  const glcore::GLuint second_rbo = attach_drawable(*second, 16);

  const std::uint64_t acquires = impersonation_acquires().value();
  dispatch::DispatchQueue queue("com.cycada.render");
  queue.sync([&] {
    ios_gl::EAGLContext::set_current_context(*first);
    ios_gl::glClearColor(1.f, 0.f, 0.f, 1.f);
    ios_gl::glClear(glcore::GL_COLOR_BUFFER_BIT);
    EXPECT_TRUE((*first)->present_renderbuffer(first_rbo).is_ok());
  });
  EXPECT_EQ(impersonation_acquires().value() - acquires, 2u);
  EXPECT_EQ((*first)->screen_snapshot().at(8, 8), 0xff0000ffu);  // red

  // The creator's next draw on the second context still lands.
  ios_gl::glClearColor(0.f, 1.f, 0.f, 1.f);
  ios_gl::glClear(glcore::GL_COLOR_BUFFER_BIT);
  ASSERT_TRUE((*second)->present_renderbuffer(second_rbo).is_ok());
  EXPECT_EQ((*second)->screen_snapshot().at(8, 8), 0xff00ff00u);  // green
  EXPECT_EQ((*first)->screen_snapshot().at(8, 8), 0xff0000ffu);
  EXPECT_EQ(impersonation_acquires().value() - acquires, 2u);
  ios_gl::EAGLContext::clear_current_context();
}

TEST(DispatchTest, ThreadedBrowserPageImpersonatesItsCreator) {
  glport::apply_system_config(SystemConfig::kCycadaIos);
  auto port = glport::make_gl_port(SystemConfig::kCycadaIos);
  ASSERT_TRUE(port->init(128, 128, 2).is_ok());
  webkit::Browser browser(*port, /*jit_enabled=*/false);
  browser.enable_threaded_rendering();
  const std::uint64_t acquires = impersonation_acquires().value();
  ASSERT_TRUE(browser.load("<body bg=#203040><p>gcd</p></body>").is_ok());
  EXPECT_GT(impersonation_acquires().value(), acquires);
  EXPECT_EQ(browser.screen().at(100, 120), webkit::parse_color("#203040"));
}

}  // namespace
}  // namespace cycada
