#include "ios_gl/egl_bridge.h"

#include "core/diplomat.h"
#include "core/impersonation.h"
#include "glcore/context.h"
#include "trace/metrics.h"
#include "util/faultpoint.h"
#include "util/retry.h"
#include "util/watchdog.h"

namespace cycada::ios_gl::eglbridge {

namespace {
core::DiplomatEntry& bridge_entry(std::string_view name) {
  return core::DiplomatRegistry::instance().entry(name,
                                                  core::DiplomatPattern::kMulti);
}
}  // namespace

std::unique_lock<util::OrderedMutex> degraded_serial_lock(bool degraded) {
  // kDegradedEgl is the lowest lock level: it is taken before any bridge
  // work, so everything the serialized section acquires nests above it.
  static util::OrderedMutex* mutex = new util::OrderedMutex(
      util::LockLevel::kDegradedEgl, "ios_gl.degraded-egl");
  if (!degraded) {
    return std::unique_lock<util::OrderedMutex>(*mutex, std::defer_lock);
  }
  return std::unique_lock<util::OrderedMutex>(*mutex);
}

core::DiplomatHooks graphics_hooks() {
  core::DiplomatHooks hooks;
  hooks.prelude = [] {
    core::GraphicsTlsTracker::instance().enter_graphics_diplomat();
  };
  hooks.postlude = [] {
    core::GraphicsTlsTracker::instance().exit_graphics_diplomat();
  };
  return hooks;
}

StatusOr<BridgeConnection> aegl_bridge_init(int gles_version, int width,
                                            int height) {
  static core::DiplomatEntry& entry = bridge_entry("aegl_bridge_init");
  // Coalesces EGL initialize + replica acquisition + context/surface setup
  // under one crossing.
  return core::diplomat_call(
      entry, graphics_hooks(), [&]() -> StatusOr<BridgeConnection> {
        android_gl::AndroidEgl* egl = android_gl::open_android_egl();
        if (egl == nullptr || egl->eglInitialize() != android_gl::EGL_TRUE) {
          return Status::internal("EGL initialization failed");
        }
        // Rungs 1-2 of the degradation ladder: a fresh (or warm-pooled)
        // replica, retried with backoff since injected and transient
        // failures are expected to clear. When the watchdog has the kEgl
        // domain degraded (repeated stalled/failed persona work during
        // init), skip straight to the shared fallback instead of burning
        // more stalled attempts — the shared copy needs no dlforce and no
        // fresh vendor init.
        StatusOr<BridgeConnection> attempt =
            util::Watchdog::instance().degraded(util::WatchdogDomain::kEgl)
                ? StatusOr<BridgeConnection>(Status::resource_exhausted(
                      "watchdog: egl init degraded, using shared fallback"))
                : util::retry_with_backoff(
                      3, [&]() -> StatusOr<BridgeConnection> {
                        WATCHDOG_SCOPE(util::WatchdogDomain::kEgl,
                                       util::kWatchdogEglBudgetMs);
                        const int connection_id = egl->eglReInitializeMC();
                        if (connection_id <= 0) {
                          return Status::resource_exhausted(
                              "eglReInitializeMC failed");
                        }
                        android_gl::UiWrapper* wrapper =
                            egl->connection_by_id(connection_id)->ui_wrapper;
                        const Status init =
                            wrapper->reinitialize(gles_version, width, height);
                        if (!init.is_ok()) {
                          // Park the half-built replica back in the pool
                          // machinery before the next attempt (reuse tears
                          // it down again).
                          (void)egl->eglReleaseMC(connection_id);
                          return init;
                        }
                        return BridgeConnection{connection_id, wrapper, false};
                      });
        if (attempt.is_ok()) return attempt;
        if (util::Watchdog::instance().degraded(util::WatchdogDomain::kEgl)) {
          static trace::Counter& shared_forced =
              trace::MetricsRegistry::instance().counter(
                  "watchdog.egl.shared_forced");
          shared_forced.add();
        }
        // Rung 3: the refcounted shared connection. Degraded but alive —
        // and deliberately outside fault injection: the last rung of the
        // ladder must not itself be injectable.
        util::FaultSuppressionScope no_faults;
        android_gl::EglConnection* shared = egl->eglAcquireSharedMC();
        if (shared == nullptr) return attempt.status();
        android_gl::UiWrapper* wrapper = shared->ui_wrapper;
        std::unique_lock<util::OrderedMutex> serial = degraded_serial_lock(true);
        // The first degraded context initializes the shared layer; later
        // ones reuse it (their GL work is serialized through the same lock).
        const Status init =
            wrapper->context_id() == glcore::kNoContext
                ? wrapper->initialize(gles_version, width, height)
                : wrapper->make_current();
        if (!init.is_ok()) {
          serial.unlock();
          (void)egl->eglReleaseSharedMC();
          return init;
        }
        static trace::Counter& fallbacks =
            trace::MetricsRegistry::instance().counter(
                "degrade.shared_fallback");
        fallbacks.add();
        return BridgeConnection{shared->id, wrapper, true};
      });
}

Status aegl_bridge_destroy(const BridgeConnection& connection) {
  static core::DiplomatEntry& entry = bridge_entry("aegl_bridge_destroy");
  // Coalesces unbind-if-current + connection release.
  return core::diplomat_call(entry, graphics_hooks(), [&]() -> Status {
    android_gl::AndroidEgl* egl = android_gl::open_android_egl();
    if (egl == nullptr) return Status::internal("no EGL wrapper");
    // Clear this thread's binding if it points into the connection.
    if (egl->current_connection() != nullptr &&
        egl->current_connection()->id == connection.connection_id) {
      (void)egl->eglSwitchMC(0);
    }
    if (connection.degraded) {
      // Shared connection: the context was only ever a reference on it.
      std::unique_lock<util::OrderedMutex> serial = degraded_serial_lock(true);
      if (connection.wrapper != nullptr) {
        (void)connection.wrapper->clear_current();
      }
      serial.unlock();
      return egl->eglReleaseSharedMC() == android_gl::EGL_TRUE
                 ? Status::ok()
                 : Status::internal("eglReleaseSharedMC failed");
    }
    if (connection.wrapper != nullptr) {
      (void)connection.wrapper->clear_current();
    }
    // The replica returns to the warm pool (or is evicted, LRU) instead of
    // staying resident forever — the bounded-memory half of this ladder.
    return egl->eglReleaseMC(connection.connection_id) == android_gl::EGL_TRUE
               ? Status::ok()
               : Status::internal("eglReleaseMC failed");
  });
}

Status aegl_bridge_make_current(android_gl::UiWrapper* wrapper) {
  static core::DiplomatEntry& entry = bridge_entry("aegl_bridge_make_current");
  // Coalesces context bind + surface bind.
  return core::diplomat_call(entry, graphics_hooks(), [&]() -> Status {
    if (wrapper == nullptr) return Status::invalid_argument("null wrapper");
    return wrapper->make_current();
  });
}

StatusOr<gmem::BufferId> aegl_bridge_create_drawable(
    android_gl::UiWrapper* wrapper, int width, int height) {
  static core::DiplomatEntry& entry =
      bridge_entry("aegl_bridge_create_drawable");
  // Coalesces gralloc allocation + drawable registration.
  return core::diplomat_call(entry, graphics_hooks(),
                             [&]() -> StatusOr<gmem::BufferId> {
                               if (wrapper == nullptr) {
                                 return Status::invalid_argument("null wrapper");
                               }
                               return wrapper->create_drawable_buffer(width,
                                                                      height);
                             });
}

Status aegl_bridge_bind_renderbuffer(android_gl::UiWrapper* wrapper,
                                     glcore::GLuint rb,
                                     gmem::BufferId buffer) {
  static core::DiplomatEntry& entry =
      bridge_entry("aegl_bridge_bind_renderbuffer");
  // Coalesces renderbuffer bind + storage attach.
  return core::diplomat_call(entry, graphics_hooks(), [&]() -> Status {
    if (wrapper == nullptr) return Status::invalid_argument("null wrapper");
    return wrapper->bind_renderbuffer(rb, buffer);
  });
}

Status aegl_bridge_draw_fbo_tex(android_gl::UiWrapper* wrapper,
                                gmem::BufferId content) {
  static core::DiplomatEntry& entry = bridge_entry("aegl_bridge_draw_fbo_tex");
  // Coalesces FBO bind + texture bind + quad setup + draw under one
  // crossing.
  return core::diplomat_call(entry, graphics_hooks(), [&]() -> Status {
    if (wrapper == nullptr) return Status::invalid_argument("null wrapper");
    return wrapper->draw_fbo_tex(content);
  });
}

Status egl_swap_buffers(android_gl::UiWrapper* wrapper) {
  static core::DiplomatEntry& entry = core::DiplomatRegistry::instance().entry(
      "eglSwapBuffers", core::DiplomatPattern::kMulti);
  // Coalesces back-buffer flip + composition handoff.
  return core::diplomat_call(entry, graphics_hooks(), [&]() -> Status {
    if (wrapper == nullptr) return Status::invalid_argument("null wrapper");
    return wrapper->swap_buffers();
  });
}

Status aegl_bridge_copy_tex_buf(android_gl::UiWrapper* wrapper,
                                glcore::GLuint texture, gmem::BufferId dst) {
  static core::DiplomatEntry& entry = bridge_entry("aegl_bridge_copy_tex_buf");
  // Coalesces texture source bind + readback + buffer write.
  return core::diplomat_call(entry, graphics_hooks(), [&]() -> Status {
    if (wrapper == nullptr) return Status::invalid_argument("null wrapper");
    return wrapper->copy_tex_buf(texture, dst);
  });
}

Status aegl_bridge_set_tls(android_gl::UiWrapper* wrapper,
                           const core::ContextTls& tls) {
  static core::DiplomatEntry& entry = bridge_entry("aegl_bridge_set_tls");
  return core::diplomat_call(entry, graphics_hooks(), [&]() -> Status {
    if (wrapper == nullptr) return Status::invalid_argument("null wrapper");
    return wrapper->set_tls(tls);
  });
}

}  // namespace cycada::ios_gl::eglbridge
