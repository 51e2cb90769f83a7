#include "ios_gl/eagl.h"

#include <cstring>

#include "core/diplomat.h"
#include "gpu/device.h"
#include "kernel/kernel.h"
#include "trace/cyt.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace cycada::ios_gl {

namespace {
// The per-thread current EAGL context (kept by the iOS-side library, like
// Apple's implementation).
thread_local EAGLContext::Ref t_current_context;

core::DiplomatEntry& eagl_entry(std::string_view name,
                                core::DiplomatPattern pattern) {
  return core::DiplomatRegistry::instance().entry(name, pattern);
}
}  // namespace

glcore::GlesEngine* EAGLContext::engine() const {
  if (platform() == Platform::kNativeIos) return apple_engine();
  return connection_.wrapper != nullptr ? connection_.wrapper->engine()
                                        : nullptr;
}

StatusOr<EAGLContext::Ref> EAGLContext::init_with_api(EAGLRenderingAPI api,
                                                      int drawable_width,
                                                      int drawable_height) {
  TRACE_SCOPE("gl", "EAGLContext.initWithAPI");
  auto context = Ref(new EAGLContext());
  context->api_ = api;
  context->sharegroup_ = std::make_shared<EAGLSharegroup>();
  const int version = api == EAGLRenderingAPI::kOpenGLES1 ? 1 : 2;

  if (platform() == Platform::kNativeIos) {
    glcore::GlesEngine* engine = apple_engine();
    context->native_context_ = engine->create_context(version);
    if (context->native_context_ == glcore::kNoContext) {
      return Status::invalid_argument("unsupported GLES version");
    }
    context->native_width_ = drawable_width;
    context->native_height_ = drawable_height;
    auto screen = gmem::GrallocAllocator::instance().allocate(
        drawable_width, drawable_height, PixelFormat::kRgba8888,
        gmem::kUsageGpuRenderTarget | gmem::kUsageComposer |
            gmem::kUsageCpuRead);
    CYCADA_RETURN_IF_ERROR(screen.status());
    context->native_screen_ = std::move(screen.value());
    context->native_screen_target_ =
        gpu::GpuDevice::instance().create_target_external(
            context->native_screen_->pixels32(), drawable_width,
            drawable_height, context->native_screen_->stride_px(),
            /*with_depth=*/true);
    return context;
  }

  // Cycada: one vendor-stack replica per EAGLContext (paper §8.2).
  auto connection = eglbridge::aegl_bridge_init(version, drawable_width,
                                                drawable_height);
  CYCADA_RETURN_IF_ERROR(connection.status());
  context->connection_ = connection.value();
  // Tie the creator's graphics TLS, the replica's fresh binding included,
  // to this context (paper §7.1 step 2).
  context->tls_ = core::ContextTls::capture();
  return context;
}

StatusOr<EAGLContext::Ref> EAGLContext::init_with_api_sharegroup(
    EAGLRenderingAPI api, std::shared_ptr<EAGLSharegroup> group,
    int drawable_width, int drawable_height) {
  auto context = init_with_api(api, drawable_width, drawable_height);
  if (context.is_ok() && group != nullptr) {
    context.value()->sharegroup_ = std::move(group);
  }
  return context;
}

bool EAGLContext::set_current_context(Ref context) {
  TRACE_SCOPE("gl", "EAGLContext.setCurrentContext");
  t_current_context = context;
  trace::capture_set_context(reinterpret_cast<std::uint64_t>(
      static_cast<const void*>(context.get())));
  if (context == nullptr) return true;
  if (platform() == Platform::kNativeIos) {
    // Apple GLES allows any thread to use any context (paper §7).
    return apple_engine()
        ->make_current(context->native_context_,
                       context->native_screen_target_)
        .is_ok();
  }
  // Creator threads bind eagerly; other threads receive the replica's
  // binding from the context's TLS via aegl_bridge_set_tls (the TLS
  // migration of paper §8.1.1 — each of their GLES calls still
  // impersonates the creator with the whole store).
  auto serial = eglbridge::degraded_serial_lock(context->degraded());
  if (kernel::sys_gettid() == context->tls_.creator()) {
    return eglbridge::aegl_bridge_make_current(context->connection_.wrapper)
        .is_ok();
  }
  return eglbridge::aegl_bridge_set_tls(context->connection_.wrapper,
                                        context->tls_)
      .is_ok();
}

EAGLContext::Ref EAGLContext::current_context() { return t_current_context; }

void EAGLContext::clear_current_context() {
  set_current_context(nullptr);
}

EAGLContext::~EAGLContext() {
  if (platform() == Platform::kNativeIos) {
    if (native_context_ != glcore::kNoContext) {
      (void)apple_engine()->destroy_context(native_context_);
    }
    if (native_screen_target_ != gpu::kNoHandle) {
      (void)gpu::GpuDevice::instance().destroy_target(native_screen_target_);
    }
    return;
  }
  if (connection_.wrapper != nullptr) {
    (void)eglbridge::aegl_bridge_destroy(connection_);
  }
}

Status EAGLContext::renderbuffer_storage_from_drawable(
    glcore::GLuint renderbuffer, const CAEAGLLayer& layer) {
  if (layer.width <= 0 || layer.height <= 0) {
    return Status::invalid_argument("bad layer size");
  }
  Drawable drawable;
  drawable.width = layer.width;
  drawable.height = layer.height;

  if (platform() == Platform::kNativeIos) {
    auto buffer = gmem::GrallocAllocator::instance().allocate(
        layer.width, layer.height, PixelFormat::kRgba8888,
        gmem::kUsageGpuRenderTarget | gmem::kUsageGpuTexture |
            gmem::kUsageCpuRead | gmem::kUsageCpuWrite);
    CYCADA_RETURN_IF_ERROR(buffer.status());
    drawable.owned = buffer.value();
    drawable.buffer = buffer.value()->id();
    CYCADA_RETURN_IF_ERROR(apple_engine()->renderbuffer_storage_from_buffer(
        renderbuffer, drawable.owned));
  } else {
    auto serial = eglbridge::degraded_serial_lock(degraded());
    auto buffer = eglbridge::aegl_bridge_create_drawable(
        connection_.wrapper, layer.width, layer.height);
    CYCADA_RETURN_IF_ERROR(buffer.status());
    drawable.buffer = buffer.value();
    CYCADA_RETURN_IF_ERROR(eglbridge::aegl_bridge_bind_renderbuffer(
        connection_.wrapper, renderbuffer, drawable.buffer));
  }
  drawables_[renderbuffer] = std::move(drawable);
  return Status::ok();
}

Status EAGLContext::present_renderbuffer(glcore::GLuint renderbuffer) {
  TRACE_SCOPE("gl", "EAGLContext.presentRenderbuffer");
  static trace::Counter& presents =
      trace::MetricsRegistry::instance().counter("gl.eagl_presents");
  presents.add();
  auto it = drawables_.find(renderbuffer);
  if (it == drawables_.end()) {
    return Status::failed_precondition(
        "renderbuffer has no drawable storage");
  }
  if (platform() == Platform::kNativeIos) {
    // The hardware path: retire rendering, then flip the drawable onto the
    // display (IOMobileFramebuffer-style) — a straight row copy.
    gpu::GpuDevice::instance().flush();
    auto buffer = it->second.owned;
    if (buffer == nullptr || native_screen_ == nullptr) {
      return Status::internal("missing native drawable");
    }
    const int rows = std::min(native_height_, buffer->height());
    const int cols = std::min(native_width_, buffer->width());
    for (int y = 0; y < rows; ++y) {
      std::memcpy(
          native_screen_->pixels32() +
              static_cast<std::size_t>(y) * native_screen_->stride_px(),
          buffer->pixels32() + static_cast<std::size_t>(y) * buffer->stride_px(),
          static_cast<std::size_t>(cols) * sizeof(std::uint32_t));
    }
    return Status::ok();
  }
  auto serial = eglbridge::degraded_serial_lock(degraded());
  CYCADA_RETURN_IF_ERROR(eglbridge::aegl_bridge_draw_fbo_tex(
      connection_.wrapper, it->second.buffer));
  return eglbridge::egl_swap_buffers(connection_.wrapper);
}

Status EAGLContext::tex_image_io_surface(
    const iosurface::IOSurfaceRef& surface, glcore::GLuint texture) {
  if (surface == nullptr) return Status::invalid_argument("null surface");
  if (platform() == Platform::kNativeIos) {
    // Direct zero-copy binding on the Apple engine.
    glcore::GlesEngine& gl = *apple_engine();
    glcore::EglImage image;
    image.buffer = surface->backing();
    glcore::GLint saved = 0;
    gl.glGetIntegerv(glcore::GL_TEXTURE_BINDING_2D, &saved);
    gl.glBindTexture(glcore::GL_TEXTURE_2D, texture);
    gl.glEGLImageTargetTexture2DOES(glcore::GL_TEXTURE_2D, &image);
    gl.glBindTexture(glcore::GL_TEXTURE_2D,
                     static_cast<glcore::GLuint>(saved));
    return gl.glGetError() == glcore::GL_NO_ERROR
               ? Status::ok()
               : Status::internal("texture binding failed");
  }
  static core::DiplomatEntry& entry =
      eagl_entry("aegl_bridge_tex_image_iosurface",
                 core::DiplomatPattern::kMulti);
  android_gl::UiWrapper* wrapper = connection_.wrapper;
  auto serial = eglbridge::degraded_serial_lock(degraded());
  // Coalesces save-binding + bind + EGLImage target + restore-binding under
  // one crossing.
  return core::diplomat_call(entry, eglbridge::graphics_hooks(), [&] {
    return iosurface::LinuxCoreSurface::instance().bind_gles_texture(
        surface, wrapper, texture);
  });
}

StatusOr<std::pair<int, int>> EAGLContext::drawable_size(
    glcore::GLuint renderbuffer) const {
  auto it = drawables_.find(renderbuffer);
  if (it == drawables_.end()) {
    return Status::not_found("renderbuffer has no drawable storage");
  }
  return std::make_pair(it->second.width, it->second.height);
}

Status EAGLContext::swap_renderbuffer(glcore::GLuint renderbuffer) {
  (void)renderbuffer;
  // Registered for completeness; no real app ever calls it (the paper's
  // "1 was not implemented as it was never called").
  (void)eagl_entry("EAGLContext.swapRenderbuffer",
                   core::DiplomatPattern::kUnimplemented);
  return Status::unimplemented("swapRenderbuffer is never called by apps");
}

Image EAGLContext::screen_snapshot() const {
  if (platform() == Platform::kNativeIos) {
    gpu::GpuDevice::instance().flush();
    Image image(native_width_, native_height_);
    if (native_screen_ != nullptr) {
      for (int y = 0; y < native_height_; ++y) {
        std::memcpy(&image.at(0, y),
                    const_cast<gmem::GraphicBuffer&>(*native_screen_)
                            .pixels32() +
                        static_cast<std::size_t>(y) *
                            native_screen_->stride_px(),
                    static_cast<std::size_t>(native_width_) *
                        sizeof(std::uint32_t));
      }
    }
    return image;
  }
  const android_gl::EglSurface* layer =
      connection_.wrapper != nullptr ? connection_.wrapper->layer() : nullptr;
  return layer != nullptr ? layer->front_image() : Image();
}

}  // namespace cycada::ios_gl
