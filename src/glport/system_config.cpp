#include "glport/system_config.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "android_gl/vendor.h"
#include "core/diplomat.h"
#include "core/impersonation.h"
#include "gmem/graphic_buffer.h"
#include "gpu/device.h"
#include "ios_gl/eagl.h"
#include "ios_gl/platform.h"
#include "iosurface/iosurface.h"
#include "kernel/kernel.h"
#include "linker/linker.h"
#include "trace/cyt.h"
#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/log.h"

namespace cycada::glport {

namespace {
// One recorder serves both trace variables for the whole run. It starts
// from the first apply_system_config() call (every bench/example goes
// through here) and is finalized at process exit; like the timeline, one
// capture spans every configuration the run applies — diplomat ids are
// immortal across resets, so one .cyt can hold a whole multi-config bench
// (docs/TRACING.md).
//   CYCADA_TRACE=path.json        spans on; Chrome JSON written at exit
//   CYCADA_TRACE_CAPTURE=path     crossings only; the .cyt is the output
// With CYCADA_TRACE alone the capture goes to path.json.cyt, which is
// removed after the export; with both, the named capture is kept and holds
// the spans too.
struct TraceEnv {
  std::string json_path;
  std::string cyt_path;
  bool keep_cyt = false;
  const char* label = "";
};

TraceEnv& trace_env() {
  static TraceEnv env;
  return env;
}

void finish_trace_env() {
  const TraceEnv& env = trace_env();
  trace::TraceRecorder& recorder = trace::TraceRecorder::instance();
  const std::uint64_t dropped = recorder.dropped();
  Status status = recorder.stop();
  if (status.is_ok() && !env.json_path.empty()) {
    auto parsed = trace::read_cyt(env.cyt_path);
    status = parsed.is_ok() ? trace::write_chrome_trace(env.json_path, *parsed)
                            : parsed.status();
  }
  if (!env.keep_cyt) std::remove(env.cyt_path.c_str());
  if (!status.is_ok()) {
    CYCADA_LOG(kError) << env.label << " finalize failed: "
                       << status.to_string();
  } else if (dropped > 0) {
    // The recorder drops rather than blocking the hot path; the file is
    // valid but misses events — the footer records how many.
    CYCADA_LOG(kWarn) << env.label << ": " << dropped
                      << " record(s) dropped to an exhausted chunk pool";
  }
}

void install_trace_env_hook() {
  static const bool installed = [] {
    const char* json = std::getenv("CYCADA_TRACE");
    const char* capture = std::getenv("CYCADA_TRACE_CAPTURE");
    TraceEnv& env = trace_env();
    if (json != nullptr) env.json_path = json;
    if (capture != nullptr) env.cyt_path = capture;
    if (env.json_path.empty() && env.cyt_path.empty()) return false;
    env.keep_cyt = !env.cyt_path.empty();
    if (!env.keep_cyt) env.cyt_path = env.json_path + ".cyt";
    env.label = env.json_path.empty() ? "CYCADA_TRACE_CAPTURE" : "CYCADA_TRACE";
    const Status status = trace::TraceRecorder::instance().start(
        env.cyt_path, /*spans=*/!env.json_path.empty());
    if (!status.is_ok()) {
      CYCADA_LOG(kError) << env.label << " start failed: "
                         << status.to_string();
      return false;
    }
    std::atexit(finish_trace_env);
    return true;
  }();
  (void)installed;
}
}  // namespace

void apply_system_config(SystemConfig config) {
  install_trace_env_hook();
  // Leave no dangling per-thread context before tearing the world down.
  ios_gl::EAGLContext::clear_current_context();

  kernel::TrapModel trap = kernel::TrapModel::kCycada;
  switch (config) {
    case SystemConfig::kAndroid: trap = kernel::TrapModel::kStockAndroid; break;
    case SystemConfig::kCycadaAndroid:
    case SystemConfig::kCycadaIos: trap = kernel::TrapModel::kCycada; break;
    case SystemConfig::kIos: trap = kernel::TrapModel::kIpadIos; break;
  }
  kernel::Kernel::instance().reset(trap);
  gpu::GpuDevice::instance().reset();
  gmem::GrallocAllocator::instance().reset();
  linker::Linker::instance().reset();
  iosurface::LinuxCoreSurface::instance().reset();
  core::DiplomatRegistry::instance().reset();
  // Metrics are scoped to one configuration, like diplomat stats; the trace
  // timeline deliberately survives so one CYCADA_TRACE file can span a whole
  // multi-config bench run.
  trace::MetricsRegistry::instance().reset();
  core::GraphicsTlsTracker::instance().reset();
  core::GraphicsTlsTracker::instance().install();
  ios_gl::reset_native_ios();

  const bool ios_app = is_ios_app(config);
  kernel::Kernel::instance().register_current_thread(
      ios_app ? kernel::Persona::kIos : kernel::Persona::kAndroid);

  ios_gl::set_platform(config == SystemConfig::kIos
                           ? ios_gl::Platform::kNativeIos
                           : ios_gl::Platform::kCycada);
  iosurface::LinuxCoreSurface::instance().set_native_lock_semantics(
      config == SystemConfig::kIos);
}

std::unique_ptr<GlPort> make_gl_port(SystemConfig config) {
  return is_ios_app(config) ? make_ios_port() : make_android_port();
}

}  // namespace cycada::glport
