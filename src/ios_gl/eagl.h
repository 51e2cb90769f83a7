// EAGL: Apple's proprietary display/window management API (paper §5),
// reimplemented from scratch. The API has 17 methods; under Cycada six are
// backed by multi diplomats coalesced in libEGLbridge, ten are trivial
// from-scratch implementations, and one (swapRenderbuffer) is never called
// by real apps and returns UNIMPLEMENTED — matching the paper's breakdown.
//
// On the native-iOS platform the same API lands directly on the Apple
// vendor engine with a hardware-style present path (a direct buffer flip
// instead of the textured-quad copy).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/impersonation.h"
#include "glcore/engine.h"
#include "ios_gl/egl_bridge.h"
#include "ios_gl/platform.h"
#include "iosurface/iosurface.h"
#include "util/image.h"

namespace cycada::ios_gl {

enum class EAGLRenderingAPI {
  kOpenGLES1 = 1,
  kOpenGLES2 = 2,
};

// The CoreAnimation layer an EAGL drawable renders into.
struct CAEAGLLayer {
  int width = 0;
  int height = 0;
};

// Share groups are opaque; contexts created into the same group share the
// flag only (resource sharing is not modeled, as in the paper's prototype).
class EAGLSharegroup {};

class EAGLContext {
 public:
  using Ref = std::shared_ptr<EAGLContext>;

  // (1) initWithAPI: — multi diplomat (replica creation via
  // aegl_bridge_init on Cycada).
  static StatusOr<Ref> init_with_api(EAGLRenderingAPI api,
                                     int drawable_width = 320,
                                     int drawable_height = 240);
  // (2) initWithAPI:sharegroup: — from scratch (delegates to (1)).
  static StatusOr<Ref> init_with_api_sharegroup(
      EAGLRenderingAPI api, std::shared_ptr<EAGLSharegroup> group,
      int drawable_width = 320, int drawable_height = 240);
  // (3) +setCurrentContext: — multi diplomat.
  static bool set_current_context(Ref context);
  // (4) +currentContext — from scratch.
  static Ref current_context();
  // (5) +clearCurrentContext — from scratch.
  static void clear_current_context();

  // (10) dealloc — multi diplomat (replica teardown).
  ~EAGLContext();

  // (6) API — from scratch.
  EAGLRenderingAPI api() const { return api_; }
  // (7) sharegroup — from scratch.
  std::shared_ptr<EAGLSharegroup> sharegroup() const { return sharegroup_; }
  // (8,9) isMultiThreaded / setMultiThreaded: — from scratch.
  bool is_multithreaded() const { return multithreaded_; }
  void set_multithreaded(bool value) { multithreaded_ = value; }
  // (11,12) debugLabel / setDebugLabel: — from scratch.
  const std::string& debug_label() const { return debug_label_; }
  void set_debug_label(std::string label) { debug_label_ = std::move(label); }

  // (13) renderbufferStorage:fromDrawable: — multi diplomat.
  Status renderbuffer_storage_from_drawable(glcore::GLuint renderbuffer,
                                            const CAEAGLLayer& layer);
  // (14) presentRenderbuffer: — multi diplomat (aegl_bridge_draw_fbo_tex).
  Status present_renderbuffer(glcore::GLuint renderbuffer);
  // (15) texImageIOSurface:target: — multi diplomat (the private API WebKit
  // uses to bind IOSurfaces as textures).
  Status tex_image_io_surface(const iosurface::IOSurfaceRef& surface,
                              glcore::GLuint texture);
  // (16) drawableSize — from scratch.
  StatusOr<std::pair<int, int>> drawable_size(glcore::GLuint renderbuffer) const;
  // (17) swapRenderbuffer: — not implemented; never called by real apps.
  Status swap_renderbuffer(glcore::GLuint renderbuffer);

  // --- Cycada internals (not part of the Apple API) -----------------------
  android_gl::UiWrapper* wrapper() const { return connection_.wrapper; }
  // True when replica creation failed past all retries and this context
  // runs on the shared fallback connection (GL work serialized, see
  // eglbridge::degraded_serial_lock).
  bool degraded() const { return connection_.degraded; }
  // The engine GL calls land in (replica engine on Cycada, Apple engine on
  // native iOS).
  glcore::GlesEngine* engine() const;
  // The graphics TLS associated with this context (paper §7.1 step 2),
  // captured on the creator after bridge init; every GL call from another
  // thread impersonates the creator with it.
  core::ContextTls& tls() { return tls_; }
  // APPLE_row_bytes state (paper §4.1): maintained on the iOS side under
  // Cycada because the Android library does not know the extension; the
  // data-dependent pixel-path diplomats consult it.
  int apple_pack_row_bytes() const { return apple_pack_row_bytes_; }
  int apple_unpack_row_bytes() const { return apple_unpack_row_bytes_; }
  void set_apple_pack_row_bytes(int value) { apple_pack_row_bytes_ = value; }
  void set_apple_unpack_row_bytes(int value) {
    apple_unpack_row_bytes_ = value;
  }
  // What the screen shows (front buffer on Cycada, native screen on iOS).
  Image screen_snapshot() const;

 private:
  EAGLContext() = default;

  EAGLRenderingAPI api_ = EAGLRenderingAPI::kOpenGLES2;
  std::shared_ptr<EAGLSharegroup> sharegroup_;
  bool multithreaded_ = false;
  std::string debug_label_;

  // Cycada backend.
  eglbridge::BridgeConnection connection_;
  core::ContextTls tls_;
  int apple_pack_row_bytes_ = 0;
  int apple_unpack_row_bytes_ = 0;

  // Native-iOS backend.
  glcore::ContextId native_context_ = glcore::kNoContext;
  std::shared_ptr<gmem::GraphicBuffer> native_screen_;
  gpu::RenderTargetHandle native_screen_target_ = gpu::kNoHandle;
  int native_width_ = 0;
  int native_height_ = 0;

  // Drawable bookkeeping: renderbuffer name -> backing buffer + size.
  struct Drawable {
    gmem::BufferId buffer = 0;
    std::shared_ptr<gmem::GraphicBuffer> owned;  // native path owns directly
    int width = 0;
    int height = 0;
  };
  std::map<glcore::GLuint, Drawable> drawables_;
};

}  // namespace cycada::ios_gl
