#include "iosurface/iosurface.h"

#include "core/diplomat.h"
#include "core/impersonation.h"
#include "core/session.h"
#include "glcore/gl_types.h"
#include "gpu/device.h"
#include "util/faultpoint.h"

namespace cycada::iosurface {

namespace {

// The library-wide GLES prelude/postlude (paper §3): gate the TLS-key
// tracker so keys reserved during graphics calls are classified as
// graphics-related.
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

}  // namespace

LinuxCoreSurface& LinuxCoreSurface::instance() {
  // Per-session surface registry facet. Default-session facets are
  // immortal.
  return core::Session::current().facet<LinuxCoreSurface>(+[] {
    LinuxCoreSurface* module = new LinuxCoreSurface();
    module->owner_ = core::Session::constructing_owner();
    return module;
  });
}

void LinuxCoreSurface::reset() {
  std::lock_guard lock(mutex_);
  registry_.clear();
  next_id_ = 1;
}

StatusOr<IOSurfaceRef> LinuxCoreSurface::create(const IOSurfaceProps& props) {
  core::Session::check_access(owner_, core::SessionLayer::kIoSurface);
  if (props.width <= 0 || props.height <= 0) {
    return Status::invalid_argument("bad IOSurface dimensions");
  }
  // The GraphicBuffer backing (paper §6.1): allocated with full CPU+GPU
  // usage so both 2D (CPU) and 3D (GPU) APIs can share it.
  auto backing = gmem::GrallocAllocator::instance().allocate(
      props.width, props.height, props.format,
      gmem::kUsageCpuRead | gmem::kUsageCpuWrite | gmem::kUsageGpuTexture |
          gmem::kUsageGpuRenderTarget);
  CYCADA_RETURN_IF_ERROR(backing.status());
  std::lock_guard lock(mutex_);
  const IOSurfaceId id = next_id_++;
  auto surface =
      std::make_shared<IOSurface>(id, props, std::move(backing.value()));
  registry_[id] = surface;
  return surface;
}

IOSurfaceRef LinuxCoreSurface::lookup(IOSurfaceId id) {
  std::lock_guard lock(mutex_);
  auto it = registry_.find(id);
  if (it == registry_.end()) return nullptr;
  auto surface = it->second.lock();
  if (surface == nullptr) registry_.erase(it);
  return surface;
}

Status LinuxCoreSurface::lock(const IOSurfaceRef& surface, bool read_only) {
  if (surface == nullptr) return Status::invalid_argument("null surface");
  // The §6.2 disassociation dance below is a transactional GL sequence; an
  // injected failure here models the GraphicBuffer refusing the CPU lock.
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("iosurface.lock");
  if (fault.should_fail()) {
    return Status::resource_exhausted("injected iosurface.lock fault");
  }
  std::lock_guard lock(mutex_);
  if (surface->locked_) {
    return Status::failed_precondition("surface already locked");
  }
  // Native iOS: the hardware allows concurrent CPU mapping; no dance. The
  // lock still synchronizes with the GPU (only kIOSurfaceLockAvoidSync
  // skips that), so draws recorded before it sample the pre-lock contents.
  if (native_lock_) {
    gpu::GpuDevice::instance().flush();
    auto base = surface->backing_->lock(
        read_only ? gmem::kUsageCpuRead
                  : gmem::kUsageCpuRead | gmem::kUsageCpuWrite,
        /*bypass_gles_association=*/true);
    CYCADA_RETURN_IF_ERROR(base.status());
    surface->locked_ = true;
    surface->base_address_ = base.value();
    return Status::ok();
  }
  // The §6.2 dance: while the surface backs a GLES texture the
  // GraphicBuffer cannot be CPU-locked, so (1) rebind the texture to a
  // single-pixel buffer allocated by glTexImage2D (a texture must always
  // have some storage), which implicitly drops the external binding, then
  // (2) destroy the EGLImage, disassociating the GraphicBuffer.
  if (surface->wrapper_ != nullptr && surface->bound_texture_ != 0) {
    glcore::GlesEngine& gl = *surface->wrapper_->engine();
    glcore::GLint saved_binding = 0;
    gl.glGetIntegerv(glcore::GL_TEXTURE_BINDING_2D, &saved_binding);
    gl.glBindTexture(glcore::GL_TEXTURE_2D, surface->bound_texture_);
    const std::uint32_t single_pixel = 0;
    gl.glTexImage2D(glcore::GL_TEXTURE_2D, 0, glcore::GL_RGBA, 1, 1, 0,
                    glcore::GL_RGBA, glcore::GL_UNSIGNED_BYTE, &single_pixel);
    gl.glBindTexture(glcore::GL_TEXTURE_2D,
                     static_cast<glcore::GLuint>(saved_binding));
    surface->egl_image_.reset();
  }
  auto base = surface->backing_->lock(
      read_only ? gmem::kUsageCpuRead
                : gmem::kUsageCpuRead | gmem::kUsageCpuWrite);
  CYCADA_RETURN_IF_ERROR(base.status());
  surface->locked_ = true;
  surface->base_address_ = base.value();
  return Status::ok();
}

Status LinuxCoreSurface::unlock(const IOSurfaceRef& surface) {
  if (surface == nullptr) return Status::invalid_argument("null surface");
  // Unlock failure leaves the surface CPU-locked (still consistent): the
  // caller can retry, which is what the Robustness suite exercises.
  static util::FaultPoint& fault =
      util::FaultRegistry::instance().point("iosurface.unlock");
  if (fault.should_fail()) {
    return Status::resource_exhausted("injected iosurface.unlock fault");
  }
  std::lock_guard lock(mutex_);
  if (!surface->locked_) {
    return Status::failed_precondition("surface is not locked");
  }
  CYCADA_RETURN_IF_ERROR(surface->backing_->unlock());
  surface->locked_ = false;
  surface->base_address_ = nullptr;
  // Re-associate: a new EGLImage is created and rebound to the texture.
  // GLES had no access to the surface while locked, so the round trip is
  // transparent to it (paper §6.2).
  if (surface->wrapper_ != nullptr && surface->bound_texture_ != 0) {
    glcore::GlesEngine& gl = *surface->wrapper_->engine();
    surface->egl_image_ = std::make_unique<glcore::EglImage>();
    surface->egl_image_->buffer = surface->backing_;
    glcore::GLint saved_binding = 0;
    gl.glGetIntegerv(glcore::GL_TEXTURE_BINDING_2D, &saved_binding);
    gl.glBindTexture(glcore::GL_TEXTURE_2D, surface->bound_texture_);
    gl.glEGLImageTargetTexture2DOES(glcore::GL_TEXTURE_2D,
                                    surface->egl_image_.get());
    gl.glBindTexture(glcore::GL_TEXTURE_2D,
                     static_cast<glcore::GLuint>(saved_binding));
  }
  return Status::ok();
}

Status LinuxCoreSurface::bind_gles_texture(const IOSurfaceRef& surface,
                                           android_gl::UiWrapper* wrapper,
                                           glcore::GLuint texture) {
  if (surface == nullptr || wrapper == nullptr || texture == 0) {
    return Status::invalid_argument("bad texture binding");
  }
  std::lock_guard lock(mutex_);
  if (surface->locked_) {
    return Status::failed_precondition("cannot bind a locked surface");
  }
  glcore::GlesEngine& gl = *wrapper->engine();
  surface->egl_image_ = std::make_unique<glcore::EglImage>();
  surface->egl_image_->buffer = surface->backing_;
  glcore::GLint saved_binding = 0;
  gl.glGetIntegerv(glcore::GL_TEXTURE_BINDING_2D, &saved_binding);
  gl.glBindTexture(glcore::GL_TEXTURE_2D, texture);
  gl.glEGLImageTargetTexture2DOES(glcore::GL_TEXTURE_2D,
                                  surface->egl_image_.get());
  const bool ok = gl.glGetError() == glcore::GL_NO_ERROR;
  gl.glBindTexture(glcore::GL_TEXTURE_2D,
                   static_cast<glcore::GLuint>(saved_binding));
  if (!ok) {
    surface->egl_image_.reset();
    return Status::internal("EGLImage texture binding failed");
  }
  surface->wrapper_ = wrapper;
  surface->bound_texture_ = texture;
  return Status::ok();
}

Status LinuxCoreSurface::unbind_gles_texture(const IOSurfaceRef& surface) {
  if (surface == nullptr) return Status::invalid_argument("null surface");
  std::lock_guard lock(mutex_);
  surface->wrapper_ = nullptr;
  surface->bound_texture_ = 0;
  surface->egl_image_.reset();
  return Status::ok();
}

IOSurfaceRef LinuxCoreSurface::surface_for_texture(
    android_gl::UiWrapper* wrapper, glcore::GLuint texture) {
  std::lock_guard lock(mutex_);
  for (auto it = registry_.begin(); it != registry_.end();) {
    auto surface = it->second.lock();
    if (surface == nullptr) {
      it = registry_.erase(it);
      continue;
    }
    if (surface->wrapper_ == wrapper && surface->bound_texture_ == texture) {
      return surface;
    }
    ++it;
  }
  return nullptr;
}

std::size_t LinuxCoreSurface::live_surfaces() const {
  std::lock_guard lock(mutex_);
  std::size_t count = 0;
  for (const auto& [id, weak] : registry_) count += !weak.expired();
  return count;
}

// --- iOS-facing API ---------------------------------------------------------

IOSurfaceRef IOSurfaceCreate(const IOSurfaceProps& props) {
  static core::DiplomatEntry& entry = core::DiplomatRegistry::instance().entry(
      "IOSurfaceCreate", core::DiplomatPattern::kIndirect);
  return core::diplomat_call(entry, graphics_hooks(), [&] {
    auto surface = LinuxCoreSurface::instance().create(props);
    return surface.is_ok() ? surface.value() : nullptr;
  });
}

IOSurfaceRef IOSurfaceLookupFromID(IOSurfaceId id) {
  static core::DiplomatEntry& entry = core::DiplomatRegistry::instance().entry(
      "IOSurfaceLookupFromID", core::DiplomatPattern::kDirect);
  return core::diplomat_call(
      entry, graphics_hooks(),
      [&] { return LinuxCoreSurface::instance().lookup(id); });
}

IOSurfaceId IOSurfaceGetID(const IOSurfaceRef& surface) {
  return surface == nullptr ? 0 : surface->id();
}

void* IOSurfaceGetBaseAddress(const IOSurfaceRef& surface) {
  if (surface == nullptr || !surface->locked()) return nullptr;
  return surface->backing()->bytes();
}

std::size_t IOSurfaceGetBytesPerRow(const IOSurfaceRef& surface) {
  return surface == nullptr ? 0 : surface->bytes_per_row();
}

int IOSurfaceGetWidth(const IOSurfaceRef& surface) {
  return surface == nullptr ? 0 : surface->width();
}

int IOSurfaceGetHeight(const IOSurfaceRef& surface) {
  return surface == nullptr ? 0 : surface->height();
}

Status IOSurfaceLock(const IOSurfaceRef& surface, std::uint32_t options) {
  static core::DiplomatEntry& entry = core::DiplomatRegistry::instance().entry(
      "IOSurfaceLock", core::DiplomatPattern::kMulti);
  // Coalesces the §6.2 disassociation dance (save binding + rebind to the
  // single-pixel buffer + restore + EGLImage teardown) plus the CPU lock.
  return core::diplomat_call(entry, graphics_hooks(), [&] {
    return LinuxCoreSurface::instance().lock(
        surface, (options & kIOSurfaceLockReadOnly) != 0);
  });
}

Status IOSurfaceUnlock(const IOSurfaceRef& surface) {
  static core::DiplomatEntry& entry = core::DiplomatRegistry::instance().entry(
      "IOSurfaceUnlock", core::DiplomatPattern::kMulti);
  // Coalesces the CPU unlock plus the §6.2 re-association (new EGLImage +
  // save binding + rebind + restore).
  return core::diplomat_call(
      entry, graphics_hooks(),
      [&] { return LinuxCoreSurface::instance().unlock(surface); });
}

}  // namespace cycada::iosurface
