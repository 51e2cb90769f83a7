// cycada_check: the contract analyzer binary (DESIGN.md §6).
//
// Boots the simulated Cycada device, runs a representative iOS-app workload
// (EAGL + GLES2 rendering across two contexts, so diplomats fire, replicas
// are minted and graphics TLS keys exist), then asserts every layer
// contract over the evidence: diplomat counters, the lock acquisition
// graph, DLR replica isolation, TLS-migration completeness, and — when
// --root is given — the static source lint.
//
//   cycada_check [--root <source-dir>] [--trace <file.cyt>]...
//   cycada_check --classify [--corpus <file.cyt>]...
//
// --trace switches to trace-mining mode (docs/TRACING.md): instead of
// running the live workload, each named .cyt capture is loaded and judged
// with analyze::check_trace. Contract violations are findings (gating).
//
// --classify runs the classification check (docs/ANALYZER.md): the rows of
// the iOS GLES table (ios_gl::dispatch_sites()) and the --corpus traces are
// cross-checked against src/core/classification.cpp; any contradiction is a
// blocking finding.
//
// Exits 0 when every check is clean, 1 when there are findings (each
// printed one per line), 2 on usage/workload errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "glport/system_config.h"
#include "ios_gl/eagl.h"
#include "ios_gl/gles.h"
#include "trace/metrics.h"
#include "util/faultpoint.h"
#include "util/lock_order.h"

namespace {

using namespace cycada;
using namespace cycada::ios_gl;

// One EAGL frame, written the way an iOS app would write it (the quickstart
// path): offscreen FBO backed by a drawable, gradient triangle, present.
bool render_frame(EAGLContext::Ref context, int size) {
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
  glViewport(0, 0, size, size);

  const char* vs_src =
      "attribute vec4 a_position; attribute vec4 a_color; uniform mat4 u_mvp;"
      "varying vec4 v_color;"
      "void main() { gl_Position = u_mvp * a_position; v_color = a_color; }";
  const char* fs_src =
      "varying vec4 v_color; void main() { gl_FragColor = v_color; }";
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
  glUseProgram(program);
  const float identity[16] = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1};
  glUniformMatrix4fv(glGetUniformLocation(program, "u_mvp"), 1,
                     glcore::GL_FALSE, identity);

  glClearColor(0.08f, 0.08f, 0.12f, 1.f);
  glClear(glcore::GL_COLOR_BUFFER_BIT);
  const float positions[] = {-0.9f, -0.8f, 0.9f, -0.8f, 0.f, 0.9f};
  const float colors[] = {1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1};
  glEnableVertexAttribArray(0);
  glEnableVertexAttribArray(1);
  glVertexAttribPointer(0, 2, glcore::GL_FLOAT, glcore::GL_FALSE, 0,
                        positions);
  glVertexAttribPointer(1, 4, glcore::GL_FLOAT, glcore::GL_FALSE, 0, colors);
  glDrawArrays(glcore::GL_TRIANGLES, 0, 3);

  // Exercise the data-dependent skip paths too (Apple-proprietary queries
  // answered on the iOS side).
  (void)glGetString(glcore::GL_VENDOR);
  if (!context->present_renderbuffer(rbo).is_ok()) return false;
  return glGetError() == glcore::GL_NO_ERROR;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::vector<std::string> traces;
  std::vector<std::string> corpus_paths;
  bool classify = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      traces.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--classify") == 0) {
      classify = true;
    } else if (std::strcmp(argv[i], "--corpus") == 0 && i + 1 < argc) {
      corpus_paths.push_back(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: cycada_check [--root <source-dir>] "
                   "[--trace <file.cyt>]...\n"
                   "       cycada_check --classify "
                   "[--corpus <file.cyt>]...\n");
      return 2;
    }
  }

  // Classification-check mode (docs/ANALYZER.md).
  if (classify) {
    std::vector<trace::ParsedTrace> parsed;
    parsed.reserve(corpus_paths.size());
    for (const std::string& path : corpus_paths) {
      auto trace = trace::read_cyt(path);
      if (!trace.is_ok()) {
        std::fprintf(stderr, "cycada_check: %s: %s\n", path.c_str(),
                     trace.status().to_string().c_str());
        return 2;
      }
      parsed.push_back(*std::move(trace));
    }
    std::vector<const trace::ParsedTrace*> corpus;
    for (const trace::ParsedTrace& trace : parsed) corpus.push_back(&trace);

    analyze::Report report;
    analyze::check_classification(dispatch_sites(), corpus, report);
    std::printf(
        "cycada_check: classify: %zu dispatch site(s), %zu corpus trace(s)\n",
        dispatch_sites().size(), corpus.size());
    const int findings = report.print(std::cout);
    std::printf("cycada_check: %d finding(s)\n", findings);
    return findings == 0 ? 0 : 1;
  }

  // Trace-mining mode: judge captured streams, not the live workload.
  if (!traces.empty()) {
    analyze::Report report;
    for (const std::string& path : traces) {
      auto trace = trace::read_cyt(path);
      if (!trace.is_ok()) {
        std::fprintf(stderr, "cycada_check: %s: %s\n", path.c_str(),
                     trace.status().to_string().c_str());
        return 2;
      }
      const analyze::TraceAudit audit =
          analyze::check_trace(*trace, report);
      std::printf(
          "cycada_check: %s: %llu event(s), %llu call(s), %llu dropped\n",
          path.c_str(), static_cast<unsigned long long>(audit.events),
          static_cast<unsigned long long>(audit.calls),
          static_cast<unsigned long long>(trace->dropped));
    }
    const int findings = report.print(std::cout);
    std::printf("cycada_check: %d finding(s) over %zu trace(s)\n", findings,
                traces.size());
    return findings == 0 ? 0 : 1;
  }

  // Record every lock acquisition from boot onward.
  util::LockOrderGraph& lock_graph = util::LockOrderGraph::instance();
  lock_graph.reset();
  lock_graph.set_recording(true);

  glport::apply_system_config(glport::SystemConfig::kCycadaIos);
  analyze::TlsAudit::instance().install();

  // The workload: two EAGL contexts, so the bridge mints two vendor-stack
  // replicas and the second frame runs against a different connection.
  auto first = EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2, 64, 64);
  auto second =
      EAGLContext::init_with_api(EAGLRenderingAPI::kOpenGLES2, 48, 48);
  if (!first.is_ok() || !second.is_ok()) {
    std::fprintf(stderr, "cycada_check: workload boot failed\n");
    return 2;
  }
  if (!render_frame(*first, 64) || !render_frame(*second, 48)) {
    std::fprintf(stderr, "cycada_check: workload rendering failed\n");
    return 2;
  }

  // Judge the evidence while the replicas are still live.
  analyze::Report report;
  analyze::check_diplomat_contracts(report);
  analyze::check_lock_order(report);
  analyze::check_replica_isolation(report);
  analyze::check_tls_migration(report);
  analyze::check_fault_safety(report);
  if (!root.empty()) analyze::lint_source_tree(root, report);

  EAGLContext::clear_current_context();
  lock_graph.set_recording(false);

  const int findings = report.print(std::cout);
  std::printf("cycada_check: %d finding(s), %zu lock edge(s) observed%s\n",
              findings, lock_graph.edges().size(),
              root.empty() ? "" : ", source lint on");

  // Under fault injection, show what fired and how the pipeline degraded —
  // the evidence that the workload survived rather than dodged the faults.
  if (std::getenv("CYCADA_FAULT") != nullptr) {
    std::printf("cycada_check: fault injection on (CYCADA_FAULT=%s)\n",
                std::getenv("CYCADA_FAULT"));
    std::printf("  context degraded: first=%s second=%s\n",
                first.value()->degraded() ? "yes" : "no",
                second.value()->degraded() ? "yes" : "no");
    for (const util::FaultPointInfo& info :
         util::FaultRegistry::instance().snapshot()) {
      if (info.hits == 0 && info.stalls == 0) continue;
      std::printf("  fault %s: %llu hit(s), %llu fire(s), %llu stall(s)\n",
                  info.name.c_str(),
                  static_cast<unsigned long long>(info.hits),
                  static_cast<unsigned long long>(info.fires),
                  static_cast<unsigned long long>(info.stalls));
    }
    for (const trace::CounterSnapshot& counter :
         trace::MetricsRegistry::instance().snapshot().counters) {
      const bool interesting =
          counter.name.rfind("degrade.", 0) == 0 ||
          counter.name.rfind("replica.pool.", 0) == 0;
      if (interesting && counter.value > 0) {
        std::printf("  %s: %llu\n", counter.name.c_str(),
                    static_cast<unsigned long long>(counter.value));
      }
    }
  }
  return findings == 0 ? 0 : 1;
}
