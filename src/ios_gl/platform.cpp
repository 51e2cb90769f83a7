#include "ios_gl/platform.h"

#include <atomic>
#include <memory>
#include <mutex>

#include "glcore/api_registry.h"

namespace cycada::ios_gl {

namespace {
std::atomic<Platform> g_platform{Platform::kCycada};
std::mutex g_apple_mutex;
std::unique_ptr<glcore::GlesEngine> g_apple_engine;
}  // namespace

void set_platform(Platform platform) { g_platform.store(platform); }
Platform platform() { return g_platform.load(std::memory_order_relaxed); }

glcore::GlesEngine* apple_engine() {
  std::lock_guard lock(g_apple_mutex);
  if (g_apple_engine == nullptr) {
    g_apple_engine = std::make_unique<glcore::GlesEngine>(
        glcore::GlesEngineConfig{
            .vendor = "Apple Inc.",
            .renderer = "Apple A5 GPU (SoftGPU)",
            .gles1_version = "OpenGL ES-CM 1.1 Apple",
            .gles2_version = "OpenGL ES 2.0 Apple",
            .extensions =
                glcore::extension_string(glcore::ios_registry()),
            .supports_nv_fence = true,  // backs the APPLE_fence entry points
            .supports_apple_row_bytes = true,
        });
  }
  return g_apple_engine.get();
}

void reset_native_ios() {
  std::lock_guard lock(g_apple_mutex);
  g_apple_engine.reset();
}

}  // namespace cycada::ios_gl
