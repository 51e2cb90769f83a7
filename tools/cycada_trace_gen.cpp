// cycada_trace_gen: deterministic .cyt capture for the golden test corpus
// (docs/TRACING.md, tests/data/).
//
//   cycada_trace_gen <out.cyt> [--frames N] [--workload passmark|sunspider]
//                    [--scripts N]
//
// Boots the simulated Cycada device and records a small, single-threaded
// workload. The default PassMark shape: EAGL setup, shader compile/link,
// runs of scalar state calls, a draw + present per frame and a
// data-dependent query (skip path). Single-threaded and fixed-sequence:
// replaying the capture at N×M multiplies every per-diplomat count exactly.
// The committed tests/data/golden_passmark.cyt was recorded by an older
// build whose state run shared crossings; it keeps those legacy
// kBatchedCall/kBatchFlush records as the fixture for the legacy-read path,
// where this build records the same run as plain kCall records.
//
// --workload sunspider instead drives the simulated WebKit browser over the
// first --scripts SunSpider categories on the Cycada-iOS port (the Figure 5
// workload shape), capturing the diplomat stream its page renders produce.
//
// Exits 0 on success, 2 on errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "glport/system_config.h"
#include "ios_gl/eagl.h"
#include "ios_gl/gles.h"
#include "jsvm/sunspider.h"
#include "trace/cyt.h"
#include "webkit/browser.h"

namespace {

using namespace cycada;
using namespace cycada::ios_gl;

bool render_frame(EAGLContext::Ref context, int size, int frame) {
  EAGLContext::set_current_context(context);
  GLuint fbo = 0, rbo = 0;
  glGenFramebuffers(1, &fbo);
  glGenRenderbuffers(1, &rbo);
  glBindRenderbuffer(glcore::GL_RENDERBUFFER, rbo);
  if (!context->renderbuffer_storage_from_drawable(rbo,
                                                   CAEAGLLayer{size, size})
           .is_ok()) {
    return false;
  }
  glBindFramebuffer(glcore::GL_FRAMEBUFFER, fbo);
  glFramebufferRenderbuffer(glcore::GL_FRAMEBUFFER,
                            glcore::GL_COLOR_ATTACHMENT0,
                            glcore::GL_RENDERBUFFER, rbo);

  const char* vs_src =
      "attribute vec4 a_position; void main() { gl_Position = a_position; }";
  const char* fs_src = "void main() { gl_FragColor = vec4(1.0); }";
  const GLuint vs = glCreateShader(glcore::GL_VERTEX_SHADER);
  const GLuint fs = glCreateShader(glcore::GL_FRAGMENT_SHADER);
  glShaderSource(vs, 1, &vs_src, nullptr);
  glShaderSource(fs, 1, &fs_src, nullptr);
  glCompileShader(vs);
  glCompileShader(fs);
  const GLuint program = glCreateProgram();
  glAttachShader(program, vs);
  glAttachShader(program, fs);
  glLinkProgram(program);
  // Detach after link, iOS-app style.
  glDetachShader(program, vs);
  glDetachShader(program, fs);
  glUseProgram(program);

  // A PassMark-style run of state setters before the draw.
  glViewport(0, 0, size, size);
  glClearColor(0.1f, 0.2f, 0.3f, 1.f);
  glEnable(glcore::GL_BLEND);
  glBlendFunc(glcore::GL_SRC_ALPHA, glcore::GL_ONE_MINUS_SRC_ALPHA);
  glDepthMask(glcore::GL_TRUE);
  glCullFace(glcore::GL_BACK);
  glFrontFace(glcore::GL_CCW);
  glDisable(glcore::GL_BLEND);
  glClear(glcore::GL_COLOR_BUFFER_BIT);

  const float positions[] = {-0.9f, -0.8f, 0.9f, -0.8f, 0.f, 0.9f};
  glEnableVertexAttribArray(0);
  glVertexAttribPointer(0, 2, glcore::GL_FLOAT, glcore::GL_FALSE, 0,
                        positions);
  glDrawArrays(glcore::GL_TRIANGLES, 0, 3);

  // A second run of scalar void state calls after the draw.
  for (int i = 0; i < 4; ++i) {
    glLineWidth(1.0f + static_cast<float>((frame + i) % 3));
    glPolygonOffset(static_cast<float>(i), 0.5f);
    glBlendColor(0.1f * static_cast<float>(i), 0.2f, 0.3f, 1.f);
    glSampleCoverage(1.0f - 0.1f * static_cast<float>(i), glcore::GL_FALSE);
  }

  // Data-dependent skip path (answered on the iOS side).
  (void)glGetString(glcore::GL_VENDOR);
  if (!context->present_renderbuffer(rbo).is_ok()) return false;
  return glGetError() == glcore::GL_NO_ERROR;
}

// The SunSpider shape (Figure 5): the simulated browser runs each category
// script and renders the results page through the Cycada-iOS port, so every
// GL call the raster path makes crosses the diplomat bridge and lands in
// the capture. JIT off, as on real Cycada iOS (§9). `scripts` bounds the
// categories so the fixed-size capture pool never drops records.
bool run_sunspider(int scripts) {
  auto port = glport::make_gl_port(glport::SystemConfig::kCycadaIos);
  if (!port->init(192, 160, 2).is_ok()) return false;
  webkit::Browser browser(*port, /*jit=*/false);
  int run = 0;
  for (const auto& workload : jsvm::sunspider::workloads()) {
    if (run >= scripts) break;
    if (!browser.run_script(workload.source).is_ok()) return false;
    ++run;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  static const char kUsage[] =
      "usage: cycada_trace_gen <out.cyt> [--frames N] "
      "[--workload passmark|sunspider] [--scripts N]\n";
  std::string out;
  std::string workload = "passmark";
  int frames = 3;
  int scripts = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--scripts") == 0 && i + 1 < argc) {
      scripts = std::atoi(argv[++i]);
    } else if (argv[i][0] != '-' && out.empty()) {
      out = argv[i];
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
  }
  if (out.empty() || frames < 1 || scripts < 1 ||
      (workload != "passmark" && workload != "sunspider")) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
  if (const Status status = recorder.start(out); !status.is_ok()) {
    std::fprintf(stderr, "cycada_trace_gen: %s\n",
                 status.to_string().c_str());
    return 2;
  }

  if (workload == "sunspider") {
    if (!run_sunspider(scripts)) {
      std::fprintf(stderr, "cycada_trace_gen: sunspider workload failed\n");
      return 2;
    }
  } else {
    auto context =
        EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2, 64, 64);
    if (!context.is_ok()) {
      std::fprintf(stderr, "cycada_trace_gen: workload boot failed\n");
      return 2;
    }
    for (int frame = 0; frame < frames; ++frame) {
      if (!render_frame(*context, 64, frame)) {
        std::fprintf(stderr, "cycada_trace_gen: frame %d failed\n", frame);
        return 2;
      }
    }
    EAGLContext::clear_current_context();
  }

  const std::uint64_t recorded = recorder.recorded();
  const std::uint64_t dropped = recorder.dropped();
  if (const Status status = recorder.stop(); !status.is_ok()) {
    std::fprintf(stderr, "cycada_trace_gen: finalize failed: %s\n",
                 status.to_string().c_str());
    return 2;
  }
  std::printf("cycada_trace_gen: %s: %llu record(s), %llu dropped (%s)\n",
              out.c_str(), static_cast<unsigned long long>(recorded),
              static_cast<unsigned long long>(dropped), workload.c_str());
  return dropped == 0 ? 0 : 2;
}
