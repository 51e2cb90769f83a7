// Ablation: what thread impersonation costs per GLES call.
//
// A thread using an EAGLContext it created pays one diplomat per GL call; a
// thread using a context created elsewhere (the GCD/WebKit pattern, §7)
// additionally runs core::ThreadImpersonation around every call: it saves
// its own values of the context's graphics TLS keys and installs the
// context's, in both personas, and assumes the creator's identity; on
// release it writes its values back into the context's store and restores
// its own. This bench measures both paths, plus the engine alone over
// stores of 1, 4, 16 and 64 keys.
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

  std::printf("Ablation: thread impersonation (paper §7)\n\n");
  std::printf("  GL call, creator thread:     %7.1f ns/call\n", creator_ns);
  std::printf("  GL call, impersonating thread: %5.1f ns/call (%.2fx)\n",
              foreign_ns, foreign_ns / creator_ns);
  const std::size_t app_keys = (*context)->tls().keys().size();
  std::printf("  (the context's store holds %zu graphics key(s))\n", app_keys);

  // The engine alone, in the Android persona the diplomat runs it in, over
  // stores of a chosen size: the tracker holds exactly those keys when a
  // fresh thread creates the store.
  std::printf("\n  impersonation acquire + release vs keys in the store:\n");
  core::GraphicsTlsTracker& tracker = core::GraphicsTlsTracker::instance();
  for (int key_count : {1, 4, 16, 64}) {
    tracker.reset();
    std::vector<kernel::TlsKey> keys;
    for (int i = 0; i < key_count; ++i) {
      keys.push_back(kernel::libc::pthread_key_create());
      tracker.add_well_known_key(keys.back());
    }
    core::ContextTls store;
    std::thread([&] { store = core::ContextTls::capture(); }).join();
    constexpr int kRounds = 50000;
    double ns = 0;
    {
      kernel::ScopedPersona android(kernel::Persona::kAndroid);
      const auto t2 = now_ns();
      for (int i = 0; i < kRounds; ++i) {
        core::ThreadImpersonation impersonation(store);
      }
      ns = static_cast<double>(now_ns() - t2) / kRounds;
    }
    std::printf("    %3d keys: %7.1f ns/impersonation\n", key_count, ns);
    for (kernel::TlsKey key : keys) kernel::libc::pthread_key_delete(key);
  }
  std::printf(
      "\n  Takeaway: a foreign GL call pays the one engine, "
      "core::ThreadImpersonation, over\n  its context's store: ten traps "
      "(save, install, write back and restore in both\n  personas, and "
      "assuming and dropping the creator's tid) whose cost grows with the\n"
      "  keys the tracker held when the context was made (%zu here).\n",
      app_keys);
  return 0;
}
