// libEGLbridge (paper §5, §8.2): the diplomatic library behind Cycada's
// EAGL implementation. Each aegl_bridge_* function is ONE multi diplomat
// that crosses into libui_wrapper, "paying the overhead of one diplomat
// which calls into a custom Android API". These are exactly the aegl_*
// names that appear in the paper's Figure 7-10 profiles.
#pragma once

#include <mutex>

#include "android_gl/egl.h"
#include "android_gl/ui_wrapper.h"
#include "core/diplomat.h"
#include "core/impersonation.h"
#include "util/lock_order.h"
#include "util/status.h"

namespace cycada::ios_gl::eglbridge {

struct BridgeConnection {
  int connection_id = 0;
  android_gl::UiWrapper* wrapper = nullptr;
  // True when this context lost the replica lottery and runs on the shared
  // fallback connection: still correct, but its GL work is serialized
  // through degraded_serial_lock().
  bool degraded = false;
};

// Serializes every degraded context's GL work: they all share one vendor
// context, so only one may touch it at a time. Returns a locked lock when
// `degraded`, an unlocked (defer_lock) one otherwise — callers hold the
// result for the duration of the bridge call either way.
std::unique_lock<util::OrderedMutex> degraded_serial_lock(bool degraded);

// Creates a fresh vendor-stack replica (dlforce via eglReInitializeMC,
// warm-pool reuse when available) and initializes its layer + GLES context.
// Replica creation is retried with backoff; when every attempt fails —
// injected dlforce faults, replica-pool exhaustion — the call degrades to
// the refcounted shared connection instead of failing, marking the result
// `degraded`. The EAGLContext constructor's diplomat.
StatusOr<BridgeConnection> aegl_bridge_init(int gles_version, int width,
                                            int height);
// Tears the connection down (EAGLContext dealloc): replicas return to the
// EGL warm pool (or are evicted, LRU), degraded connections drop their
// shared-connection reference.
Status aegl_bridge_destroy(const BridgeConnection& connection);

// Binds the replica's context to the calling thread (creator-affinity
// applies; non-creators go through the per-call TLS migration instead).
Status aegl_bridge_make_current(android_gl::UiWrapper* wrapper);

// Allocates a drawable backing store and returns its GraphicBuffer id.
StatusOr<gmem::BufferId> aegl_bridge_create_drawable(
    android_gl::UiWrapper* wrapper, int width, int height);

// Points a renderbuffer at a drawable's GraphicBuffer.
Status aegl_bridge_bind_renderbuffer(android_gl::UiWrapper* wrapper,
                                     glcore::GLuint rb, gmem::BufferId buffer);

// The present path: draws the drawable's contents into the default
// framebuffer with a textured quad and swaps (paper §5).
Status aegl_bridge_draw_fbo_tex(android_gl::UiWrapper* wrapper,
                                gmem::BufferId content);

// The eglSwapBuffers step of the present path (its own multi diplomat, as
// in the paper's Figure 7 profile).
Status egl_swap_buffers(android_gl::UiWrapper* wrapper);

// Texture -> buffer copy (tile readbacks and IOSurface interop).
Status aegl_bridge_copy_tex_buf(android_gl::UiWrapper* wrapper,
                                glcore::GLuint texture, gmem::BufferId dst);

// Binds the replica on a thread that did not create it, from the context's
// TLS (eglSetTLSMC through one diplomat).
Status aegl_bridge_set_tls(android_gl::UiWrapper* wrapper,
                           const core::ContextTls& tls);

// The shared graphics prelude/postlude used by every GLES diplomat: gates
// the graphics-TLS-key tracker (paper §7.1).
core::DiplomatHooks graphics_hooks();

}  // namespace cycada::ios_gl::eglbridge
