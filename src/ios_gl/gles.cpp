#include "ios_gl/gles.h"

#include <cstring>
#include <optional>
#include <vector>

#include "core/classification.h"
#include "glcore/api_registry.h"
#include "core/diplomat.h"
#include "core/impersonation.h"
#include "ios_gl/eagl.h"
#include "ios_gl/egl_bridge.h"
#include "ios_gl/platform.h"
#include "iosurface/iosurface.h"
#include "kernel/kernel.h"

namespace cycada::ios_gl {

namespace {

core::DiplomatId gl_diplomat_id(std::string_view name) {
  return core::DiplomatRegistry::instance().resolve(
      name, core::classify_ios_gl_function(name));
}

// Dispatches one iOS GLES call: direct on native iOS, a diplomat into the
// current EAGLContext's replica engine on Cycada.
template <typename Fn>
std::invoke_result_t<Fn, glcore::GlesEngine&> dispatch(
    core::DiplomatEntry& entry, Fn&& fn) {
  using Result = std::invoke_result_t<Fn, glcore::GlesEngine&>;
  if (platform() == Platform::kNativeIos) {
    return fn(*apple_engine());
  }
  EAGLContext::Ref eagl = EAGLContext::current_context();
  if (eagl == nullptr || eagl->wrapper() == nullptr) {
    if constexpr (!std::is_void_v<Result>) return Result{};
    else return;
  }
  // A thread that did not create the context impersonates its creator for
  // the call (paper §7.1 steps 3-5), in the Android persona.
  const bool foreign = kernel::sys_gettid() != eagl->tls().creator();
  android_gl::UiWrapper* wrapper = eagl->wrapper();
  return core::diplomat_call(entry, eglbridge::graphics_hooks(),
                             [&]() -> Result {
                               std::optional<core::ThreadImpersonation> scope;
                               if (foreign) scope.emplace(eagl->tls());
                               return fn(*wrapper->engine());
                             });
}

// The fast-path dispatch protocol (docs/DISPATCH.md): resolve the dense
// DiplomatId once per call site, then index the registry's immortal id
// segments on every call — two acquire loads and an array index, no
// registry mutex and no name lookup.
#define IOS_GL(name)                                           \
  static const core::DiplomatId diplomat_id =                  \
      gl_diplomat_id(#name);                                   \
  core::DiplomatEntry& entry =                                 \
      core::DiplomatRegistry::instance().entry_by_id(diplomat_id)

// Data-dependent uploads (paper §4.1): Android has no APPLE_row_bytes, so
// under Cycada an upload whose rows sit at the unpack pitch is gathered into
// tight rows on the iOS side before it crosses. On native iOS the Apple
// engine reads the pitch itself.
const void* unpack_rows(GLenum format, GLenum type, GLsizei width,
                        GLsizei height, const void* pixels,
                        std::vector<std::uint8_t>& tight) {
  int row_bytes = 0;
  if (platform() == Platform::kCycada) {
    EAGLContext::Ref eagl = EAGLContext::current_context();
    if (eagl != nullptr) row_bytes = eagl->apple_unpack_row_bytes();
  }
  return glcore::gather_apple_unpack_rows(row_bytes, format, type, width,
                                          height, pixels, tight);
}

}  // namespace

// Every forwarding row of gles_table.h becomes one diplomat that returns
// the engine call the row names.
#define GLES_FORWARD(ret, name, params, call, args)                      \
  ret name params {                                                      \
    IOS_GL(name);                                                        \
    return dispatch(entry,                                               \
                    [&](glcore::GlesEngine& gl) { return gl.call args; }); \
  }
#define GLES_CUSTOM(ret, name, params)
#include "ios_gl/gles_table.h"
#undef GLES_FORWARD
#undef GLES_CUSTOM

std::span<const core::DispatchSite> dispatch_sites() {
  static constexpr core::DispatchSite kSites[] = {
#define GLES_FORWARD(ret, name, params, call, args) {#name, #call},
#define GLES_CUSTOM(ret, name, params) {#name, nullptr},
#include "ios_gl/gles_table.h"
#undef GLES_FORWARD
#undef GLES_CUSTOM
  };
  return kSites;
}

// --- Custom rows: bodies that do more than forward one call ---------------

const GLubyte* glGetString(GLenum name) {
  IOS_GL(glGetString);
  // Data-dependent diplomat (paper §4.1): Apple modified glGetString to
  // accept a non-standard parameter returning Apple-proprietary extensions.
  if (name == glcore::GL_APPLE_PROPRIETARY_EXTENSIONS) {
    if (platform() == Platform::kNativeIos) {
      static const std::string* apple = new std::string(
          glcore::extension_string(glcore::ios_registry()));
      return reinterpret_cast<const GLubyte*>(apple->c_str());
    }
    // Cycada interprets the input and answers without calling Android: no
    // Apple-proprietary extensions are available on this device.
    core::diplomat_skip(entry);
    return reinterpret_cast<const GLubyte*>("");
  }
  return dispatch(entry,
                  [&](glcore::GlesEngine& gl) { return gl.glGetString(name); });
}

void glPixelStorei(GLenum pname, GLint param) {
  IOS_GL(glPixelStorei);
  // Data-dependent diplomat: the APPLE_row_bytes parameters are unknown to
  // Android — Cycada keeps that state itself and never forwards them.
  if (platform() == Platform::kCycada &&
      (pname == glcore::GL_PACK_ROW_BYTES_APPLE ||
       pname == glcore::GL_UNPACK_ROW_BYTES_APPLE)) {
    EAGLContext::Ref eagl = EAGLContext::current_context();
    if (eagl != nullptr) {
      if (pname == glcore::GL_PACK_ROW_BYTES_APPLE) {
        eagl->set_apple_pack_row_bytes(param);
      } else {
        eagl->set_apple_unpack_row_bytes(param);
      }
      core::diplomat_skip(entry);
    }
    return;
  }
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glPixelStorei(pname, param); });
}

void glReadPixels(GLint x, GLint y, GLsizei width, GLsizei height,
                  GLenum format, GLenum type, void* pixels) {
  IOS_GL(glReadPixels);
  // Data-dependent diplomat: when APPLE_row_bytes packing is active under
  // Cycada, read tight rows from Android and write out the packed data
  // manually (paper §4.1).
  EAGLContext::Ref eagl = EAGLContext::current_context();
  const int row_bytes = (platform() == Platform::kCycada && eagl != nullptr)
                            ? eagl->apple_pack_row_bytes()
                            : 0;
  if (row_bytes > 0 && format == glcore::GL_RGBA &&
      type == glcore::GL_UNSIGNED_BYTE) {
    std::vector<std::uint32_t> tight(static_cast<std::size_t>(width) * height);
    dispatch(entry, [&](glcore::GlesEngine& gl) {
      gl.glReadPixels(x, y, width, height, format, type, tight.data());
    });
    auto* dst = static_cast<std::uint8_t*>(pixels);
    for (GLsizei row = 0; row < height; ++row) {
      std::memcpy(dst + static_cast<std::size_t>(row) * row_bytes,
                  tight.data() + static_cast<std::size_t>(row) * width,
                  static_cast<std::size_t>(width) * 4);
    }
    return;
  }
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glReadPixels(x, y, width, height, format, type, pixels);
  });
}

void glDeleteTextures(GLsizei n, const GLuint* names) {
  IOS_GL(glDeleteTextures);
  // Multi diplomat (paper §6.1): sever any IOSurface/GraphicBuffer
  // association before the Android delete.
  EAGLContext::Ref eagl = EAGLContext::current_context();
  if (platform() == Platform::kCycada && eagl != nullptr &&
      eagl->wrapper() != nullptr && names != nullptr) {
    auto& surfaces = iosurface::LinuxCoreSurface::instance();
    for (GLsizei i = 0; i < n; ++i) {
      if (auto surface = surfaces.surface_for_texture(eagl->wrapper(),
                                                      names[i])) {
        (void)surfaces.unbind_gles_texture(surface);
      }
    }
  }
  dispatch(entry,
           [&](glcore::GlesEngine& gl) { gl.glDeleteTextures(n, names); });
}

void glTexImage2D(GLenum target, GLint level, GLint internal_format,
                  GLsizei width, GLsizei height, GLint border, GLenum format,
                  GLenum type, const void* pixels) {
  IOS_GL(glTexImage2D);
  // Data-dependent diplomat: APPLE_row_bytes unpacking (unpack_rows).
  std::vector<std::uint8_t> tight;
  const void* rows = unpack_rows(format, type, width, height, pixels, tight);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glTexImage2D(target, level, internal_format, width, height, border,
                    format, type, rows);
  });
}

void glTexSubImage2D(GLenum target, GLint level, GLint x, GLint y,
                     GLsizei width, GLsizei height, GLenum format, GLenum type,
                     const void* pixels) {
  IOS_GL(glTexSubImage2D);
  // Data-dependent diplomat: APPLE_row_bytes unpacking (unpack_rows).
  std::vector<std::uint8_t> tight;
  const void* rows = unpack_rows(format, type, width, height, pixels, tight);
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glTexSubImage2D(target, level, x, y, width, height, format, type,
                       rows);
  });
}

GLboolean glTestObjectAPPLE(GLenum object, GLuint name) {
  IOS_GL(glTestObjectAPPLE);
  if (object != GL_FENCE_APPLE) return glcore::GL_TRUE;
  // Input re-arranging: the object form degenerates to the fence form.
  return dispatch(
      entry, [&](glcore::GlesEngine& gl) { return gl.glTestFenceNV(name); });
}

void glFinishObjectAPPLE(GLenum object, GLint name) {
  IOS_GL(glFinishObjectAPPLE);
  if (object != GL_FENCE_APPLE) return;
  dispatch(entry, [&](glcore::GlesEngine& gl) {
    gl.glFinishFenceNV(static_cast<GLuint>(name));
  });
}

}  // namespace cycada::ios_gl
