// The foreign (iOS) OpenGL ES API surface — what unmodified iOS app code
// calls. On Cycada every entry point is a diplomat into the Android GLES
// library of the current EAGLContext's vendor-stack replica, classified per
// Table 2 (direct / indirect / data-dependent / multi); on the native-iOS
// platform the same calls land directly on the Apple vendor engine.
//
// GLES calls made by a thread that did not create the current EAGLContext
// transparently migrate the context's TLS binding in and out per call
// (thread impersonation, paper §7.1).
//
// The entry points are the rows of gles_table.h.
#pragma once

#include <span>

#include "core/classification.h"
#include "glcore/gl_types.h"

namespace cycada::ios_gl {

using glcore::GLbitfield;
using glcore::GLboolean;
using glcore::GLclampf;
using glcore::GLenum;
using glcore::GLfloat;
using glcore::GLint;
using glcore::GLintptr;
using glcore::GLsizei;
using glcore::GLsizeiptr;
using glcore::GLubyte;
using glcore::GLuint;

// APPLE_fence object kinds (glTestObjectAPPLE / glFinishObjectAPPLE).
inline constexpr GLenum GL_FENCE_APPLE = 0x8A0B;
inline constexpr GLenum GL_BUFFER_OBJECT_APPLE = 0x85B3;

#define GLES_FORWARD(ret, name, params, call, args) ret name params;
#define GLES_CUSTOM(ret, name, params) ret name params;
#include "ios_gl/gles_table.h"
#undef GLES_FORWARD
#undef GLES_CUSTOM

// The rows of gles_table.h, in order: the callable iOS GLES surface.
std::span<const core::DispatchSite> dispatch_sites();

}  // namespace cycada::ios_gl
