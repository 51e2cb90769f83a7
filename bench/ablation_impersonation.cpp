// Ablation: what thread impersonation costs per GLES call.
//
// A thread using an EAGLContext it created pays one diplomat per GL call; a
// thread using a context created elsewhere (the GCD/WebKit pattern, §7)
// additionally migrates the context's TLS binding in and out around every
// call and assumes the creator's identity. This bench measures both paths,
// plus the raw locate_tls/propagate_tls syscalls as a function of how many
// graphics TLS keys are being migrated.
#include <cstdio>
#include <thread>
#include <vector>

#include "core/impersonation.h"
#include "glport/system_config.h"
#include "ios_gl/eagl.h"
#include "ios_gl/gles.h"
#include "kernel/libc.h"
#include "util/clock.h"

using namespace cycada;

int main() {
  glport::apply_system_config(glport::SystemConfig::kCycadaIos);

  auto context = ios_gl::EAGLContext::init_with_api(
      ios_gl::EAGLRenderingAPI::kOpenGLES2, 32, 32);
  if (!context.is_ok()) return 1;
  ios_gl::EAGLContext::set_current_context(*context);

  constexpr int kCalls = 100000;
  // Creator thread: plain diplomat per call.
  const auto t0 = now_ns();
  for (int i = 0; i < kCalls; ++i) {
    ios_gl::glClearColor(0.f, 0.f, 0.f, 1.f);
  }
  const double creator_ns = static_cast<double>(now_ns() - t0) / kCalls;
  ios_gl::EAGLContext::clear_current_context();

  // Foreign thread: per-call TLS migration + impersonation.
  double foreign_ns = 0;
  std::thread worker([&] {
    kernel::Kernel::instance().register_current_thread(kernel::Persona::kIos);
    ios_gl::EAGLContext::set_current_context(*context);
    const auto t1 = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      ios_gl::glClearColor(0.f, 0.f, 0.f, 1.f);
    }
    foreign_ns = static_cast<double>(now_ns() - t1) / kCalls;
    ios_gl::EAGLContext::clear_current_context();
  });
  worker.join();

  // Raw TLS migration cost vs. number of graphics keys.
  std::printf("Ablation: thread impersonation (paper §7)\n\n");
  std::printf("  GL call, creator thread:     %7.1f ns/call\n", creator_ns);
  std::printf("  GL call, impersonating thread: %5.1f ns/call (%.2fx)\n",
              foreign_ns, foreign_ns / creator_ns);

  std::printf("\n  locate_tls + propagate_tls round trip vs key count:\n");
  kernel::Kernel& kernel = kernel::Kernel::instance();
  const kernel::Tid self = kernel.current_thread().tid();
  for (int key_count : {1, 4, 16, 64}) {
    std::vector<kernel::TlsKey> keys;
    for (int i = 0; i < key_count; ++i) {
      keys.push_back(kernel::libc::pthread_key_create());
    }
    std::vector<void*> values(keys.size());
    constexpr int kRounds = 50000;
    const auto t2 = now_ns();
    for (int i = 0; i < kRounds; ++i) {
      (void)kernel::sys_locate_tls(self, kernel::Persona::kAndroid,
                                   keys.data(), values.data(), key_count);
      (void)kernel::sys_propagate_tls(self, kernel::Persona::kAndroid,
                                      keys.data(), values.data(), key_count);
    }
    const double ns = static_cast<double>(now_ns() - t2) / kRounds;
    std::printf("    %3d keys: %7.1f ns/round-trip\n", key_count, ns);
    for (kernel::TlsKey key : keys) kernel::libc::pthread_key_delete(key);
  }
  std::printf(
      "\n  Takeaway: the per-call tax is ios_gl's MigrationScope, which moves "
      "the context's\n  one replica TLS slot and sets the impersonated tid "
      "around each call, whatever the\n  key count. The round trips measure "
      "the selective-migration engine\n  (core::ThreadImpersonation: only "
      "graphics keys, discovered via the gated libc\n  hooks), which scales "
      "with the keys migrated and which no GL call runs.\n");
  return 0;
}
