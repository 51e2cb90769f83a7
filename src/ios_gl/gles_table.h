// The callable iOS OpenGL ES surface: one row per entry point an iOS app can
// call, 115 of the 344 names of Table 2's universe. gles.h declares every
// row, gles.cpp generates the body of every forwarding row, and
// ios_gl::dispatch_sites() lists the rows for the classification check
// (docs/ANALYZER.md).
//
// A row has one of two shapes:
//
//   GLES_FORWARD(ret, name, (params), engine_call, (args))
//       The body is generated: one diplomat that returns
//       GlesEngine::engine_call(args).
//   GLES_CUSTOM(ret, name, (params))
//       The body is written by hand in gles.cpp, because it does more than
//       forward one call.
//
// Rows carry no pattern. src/core/classification.cpp classifies every name,
// and the classification check compares it with the rows: a forwarding
// row whose engine call has another name is the shape of an indirect
// diplomat, so the check refuses it under kDirect.
//
// No include guard: each includer defines both macros, includes this file
// and undefines them.

// --- Common state ------------------------------------------------------------
GLES_FORWARD(void, glClear, (GLbitfield mask), glClear, (mask))
GLES_FORWARD(void, glClearColor,
             (GLclampf r, GLclampf g, GLclampf b, GLclampf a), glClearColor,
             (r, g, b, a))
GLES_FORWARD(void, glClearDepthf, (GLclampf depth), glClearDepthf, (depth))
GLES_FORWARD(void, glEnable, (GLenum cap), glEnable, (cap))
GLES_FORWARD(void, glDisable, (GLenum cap), glDisable, (cap))
GLES_FORWARD(void, glBlendFunc, (GLenum sfactor, GLenum dfactor),
             glBlendFunc, (sfactor, dfactor))
GLES_FORWARD(void, glDepthFunc, (GLenum func), glDepthFunc, (func))
GLES_FORWARD(void, glDepthMask, (GLboolean flag), glDepthMask, (flag))
GLES_FORWARD(void, glCullFace, (GLenum mode), glCullFace, (mode))
GLES_FORWARD(void, glViewport,
             (GLint x, GLint y, GLsizei width, GLsizei height), glViewport,
             (x, y, width, height))
GLES_FORWARD(void, glScissor,
             (GLint x, GLint y, GLsizei width, GLsizei height), glScissor,
             (x, y, width, height))
GLES_FORWARD(void, glFlush, (), glFlush, ())
GLES_FORWARD(void, glFinish, (), glFinish, ())
GLES_FORWARD(GLenum, glGetError, (), glGetError, ())
// Data-dependent: understands Apple's non-standard parameter name.
GLES_CUSTOM(const GLubyte*, glGetString, (GLenum name))
GLES_FORWARD(GLboolean, glIsEnabled, (GLenum cap), glIsEnabled, (cap))
GLES_FORWARD(void, glGetBooleanv, (GLenum pname, GLboolean* params),
             glGetBooleanv, (pname, params))
GLES_FORWARD(void, glGetIntegerv, (GLenum pname, GLint* params),
             glGetIntegerv, (pname, params))
// Data-dependent: accepts the APPLE_row_bytes parameters.
GLES_CUSTOM(void, glPixelStorei, (GLenum pname, GLint param))
// Data-dependent: honors APPLE_row_bytes packing manually.
GLES_CUSTOM(void, glReadPixels,
            (GLint x, GLint y, GLsizei width, GLsizei height, GLenum format,
             GLenum type, void* pixels))
GLES_FORWARD(void, glPointSize, (GLfloat size), glPointSize, (size))
GLES_FORWARD(void, glGetFloatv, (GLenum pname, GLfloat* params), glGetFloatv,
             (pname, params))
GLES_FORWARD(void, glColorMask,
             (GLboolean r, GLboolean g, GLboolean b, GLboolean a),
             glColorMask, (r, g, b, a))
GLES_FORWARD(void, glFrontFace, (GLenum mode), glFrontFace, (mode))
GLES_FORWARD(void, glLineWidth, (GLfloat width), glLineWidth, (width))
GLES_FORWARD(void, glDepthRangef, (GLclampf near_val, GLclampf far_val),
             glDepthRangef, (near_val, far_val))
GLES_FORWARD(void, glBlendEquation, (GLenum mode), glBlendEquation, (mode))
GLES_FORWARD(void, glHint, (GLenum target, GLenum mode), glHint,
             (target, mode))
GLES_FORWARD(void, glStencilFunc, (GLenum func, GLint ref, GLuint mask),
             glStencilFunc, (func, ref, mask))
GLES_FORWARD(void, glStencilMask, (GLuint mask), glStencilMask, (mask))
GLES_FORWARD(void, glStencilOp, (GLenum sfail, GLenum dpfail, GLenum dppass),
             glStencilOp, (sfail, dpfail, dppass))
GLES_FORWARD(void, glPolygonOffset, (GLfloat factor, GLfloat units),
             glPolygonOffset, (factor, units))
GLES_FORWARD(void, glBlendColor,
             (GLclampf r, GLclampf g, GLclampf b, GLclampf a), glBlendColor,
             (r, g, b, a))
GLES_FORWARD(void, glSampleCoverage, (GLclampf value, GLboolean invert),
             glSampleCoverage, (value, invert))

// --- Textures ----------------------------------------------------------------
GLES_FORWARD(void, glGenTextures, (GLsizei n, GLuint* out), glGenTextures,
             (n, out))
// Multi: also severs IOSurface associations (paper §6.1).
GLES_CUSTOM(void, glDeleteTextures, (GLsizei n, const GLuint* names))
GLES_FORWARD(void, glBindTexture, (GLenum target, GLuint name),
             glBindTexture, (target, name))
GLES_FORWARD(void, glActiveTexture, (GLenum unit), glActiveTexture, (unit))
GLES_FORWARD(void, glTexParameteri,
             (GLenum target, GLenum pname, GLint param), glTexParameteri,
             (target, pname, param))
// Data-dependent: honors APPLE_row_bytes unpacking manually.
GLES_CUSTOM(void, glTexImage2D,
            (GLenum target, GLint level, GLint internal_format, GLsizei width,
             GLsizei height, GLint border, GLenum format, GLenum type,
             const void* pixels))
// Data-dependent: honors APPLE_row_bytes unpacking manually.
GLES_CUSTOM(void, glTexSubImage2D,
            (GLenum target, GLint level, GLint x, GLint y, GLsizei width,
             GLsizei height, GLenum format, GLenum type, const void* pixels))
GLES_FORWARD(GLboolean, glIsTexture, (GLuint name), glIsTexture, (name))
GLES_FORWARD(void, glCopyTexImage2D,
             (GLenum target, GLint level, GLenum internal_format, GLint x,
              GLint y, GLsizei width, GLsizei height, GLint border),
             glCopyTexImage2D,
             (target, level, internal_format, x, y, width, height, border))
GLES_FORWARD(void, glCopyTexSubImage2D,
             (GLenum target, GLint level, GLint xoffset, GLint yoffset,
              GLint x, GLint y, GLsizei width, GLsizei height),
             glCopyTexSubImage2D,
             (target, level, xoffset, yoffset, x, y, width, height))
GLES_FORWARD(void, glGenerateMipmap, (GLenum target), glGenerateMipmap,
             (target))

// --- Buffers -----------------------------------------------------------------
GLES_FORWARD(void, glGenBuffers, (GLsizei n, GLuint* out), glGenBuffers,
             (n, out))
GLES_FORWARD(void, glDeleteBuffers, (GLsizei n, const GLuint* names),
             glDeleteBuffers, (n, names))
GLES_FORWARD(void, glBindBuffer, (GLenum target, GLuint name), glBindBuffer,
             (target, name))
GLES_FORWARD(void, glBufferData,
             (GLenum target, GLsizeiptr size, const void* data, GLenum usage),
             glBufferData, (target, size, data, usage))
GLES_FORWARD(void, glBufferSubData,
             (GLenum target, GLintptr offset, GLsizeiptr size,
              const void* data),
             glBufferSubData, (target, offset, size, data))
GLES_FORWARD(GLboolean, glIsBuffer, (GLuint name), glIsBuffer, (name))
GLES_FORWARD(void, glGetBufferParameteriv,
             (GLenum target, GLenum pname, GLint* params),
             glGetBufferParameteriv, (target, pname, params))

// --- Framebuffers / renderbuffers --------------------------------------------
GLES_FORWARD(void, glGenFramebuffers, (GLsizei n, GLuint* out),
             glGenFramebuffers, (n, out))
GLES_FORWARD(void, glDeleteFramebuffers, (GLsizei n, const GLuint* names),
             glDeleteFramebuffers, (n, names))
GLES_FORWARD(void, glBindFramebuffer, (GLenum target, GLuint name),
             glBindFramebuffer, (target, name))
GLES_FORWARD(void, glGenRenderbuffers, (GLsizei n, GLuint* out),
             glGenRenderbuffers, (n, out))
GLES_FORWARD(void, glDeleteRenderbuffers, (GLsizei n, const GLuint* names),
             glDeleteRenderbuffers, (n, names))
GLES_FORWARD(void, glBindRenderbuffer, (GLenum target, GLuint name),
             glBindRenderbuffer, (target, name))
// Multi: interacts with EAGL drawable management (paper §5).
GLES_FORWARD(void, glRenderbufferStorage,
             (GLenum target, GLenum internal_format, GLsizei width,
              GLsizei height),
             glRenderbufferStorage, (target, internal_format, width, height))
GLES_FORWARD(void, glFramebufferRenderbuffer,
             (GLenum target, GLenum attachment, GLenum rb_target,
              GLuint renderbuffer),
             glFramebufferRenderbuffer,
             (target, attachment, rb_target, renderbuffer))
GLES_FORWARD(void, glFramebufferTexture2D,
             (GLenum target, GLenum attachment, GLenum tex_target,
              GLuint texture, GLint level),
             glFramebufferTexture2D,
             (target, attachment, tex_target, texture, level))
GLES_FORWARD(GLenum, glCheckFramebufferStatus, (GLenum target),
             glCheckFramebufferStatus, (target))
GLES_FORWARD(void, glGetRenderbufferParameteriv,
             (GLenum target, GLenum pname, GLint* out),
             glGetRenderbufferParameteriv, (target, pname, out))

// --- Shaders / programs ------------------------------------------------------
GLES_FORWARD(GLuint, glCreateShader, (GLenum type), glCreateShader, (type))
GLES_FORWARD(void, glDeleteShader, (GLuint shader), glDeleteShader,
             (shader))
GLES_FORWARD(void, glShaderSource,
             (GLuint shader, GLsizei count, const char* const* strings,
              const GLint* lengths),
             glShaderSource, (shader, count, strings, lengths))
GLES_FORWARD(void, glCompileShader, (GLuint shader), glCompileShader,
             (shader))
GLES_FORWARD(void, glGetShaderiv,
             (GLuint shader, GLenum pname, GLint* params), glGetShaderiv,
             (shader, pname, params))
GLES_FORWARD(GLuint, glCreateProgram, (), glCreateProgram, ())
GLES_FORWARD(void, glDeleteProgram, (GLuint program), glDeleteProgram,
             (program))
GLES_FORWARD(void, glAttachShader, (GLuint program, GLuint shader),
             glAttachShader, (program, shader))
GLES_FORWARD(void, glDetachShader, (GLuint program, GLuint shader),
             glDetachShader, (program, shader))
GLES_FORWARD(void, glLinkProgram, (GLuint program), glLinkProgram,
             (program))
GLES_FORWARD(void, glGetProgramiv,
             (GLuint program, GLenum pname, GLint* params), glGetProgramiv,
             (program, pname, params))
GLES_FORWARD(void, glUseProgram, (GLuint program), glUseProgram, (program))
GLES_FORWARD(GLint, glGetAttribLocation, (GLuint program, const char* name),
             glGetAttribLocation, (program, name))
GLES_FORWARD(GLint, glGetUniformLocation, (GLuint program, const char* name),
             glGetUniformLocation, (program, name))
GLES_FORWARD(void, glUniformMatrix4fv,
             (GLint location, GLsizei count, GLboolean transpose,
              const GLfloat* value),
             glUniformMatrix4fv, (location, count, transpose, value))
GLES_FORWARD(void, glUniform4f,
             (GLint location, GLfloat x, GLfloat y, GLfloat z, GLfloat w),
             glUniform4f, (location, x, y, z, w))
GLES_FORWARD(void, glUniform4fv,
             (GLint location, GLsizei count, const GLfloat* value),
             glUniform4fv, (location, count, value))
GLES_FORWARD(void, glUniform1i, (GLint location, GLint value), glUniform1i,
             (location, value))
GLES_FORWARD(void, glUniform1f, (GLint location, GLfloat value), glUniform1f,
             (location, value))

// --- Vertex attributes / draws -----------------------------------------------
GLES_FORWARD(void, glEnableVertexAttribArray, (GLuint index),
             glEnableVertexAttribArray, (index))
GLES_FORWARD(void, glDisableVertexAttribArray, (GLuint index),
             glDisableVertexAttribArray, (index))
GLES_FORWARD(void, glVertexAttribPointer,
             (GLuint index, GLint size, GLenum type, GLboolean normalized,
              GLsizei stride, const void* pointer),
             glVertexAttribPointer,
             (index, size, type, normalized, stride, pointer))
GLES_FORWARD(void, glVertexAttrib4f,
             (GLuint index, GLfloat x, GLfloat y, GLfloat z, GLfloat w),
             glVertexAttrib4f, (index, x, y, z, w))
GLES_FORWARD(void, glDrawArrays, (GLenum mode, GLint first, GLsizei count),
             glDrawArrays, (mode, first, count))
GLES_FORWARD(void, glDrawElements,
             (GLenum mode, GLsizei count, GLenum type, const void* indices),
             glDrawElements, (mode, count, type, indices))

// --- GLES1 fixed function ----------------------------------------------------
GLES_FORWARD(void, glMatrixMode, (GLenum mode), glMatrixMode, (mode))
GLES_FORWARD(void, glLoadIdentity, (), glLoadIdentity, ())
GLES_FORWARD(void, glLoadMatrixf, (const GLfloat* m), glLoadMatrixf, (m))
GLES_FORWARD(void, glMultMatrixf, (const GLfloat* m), glMultMatrixf, (m))
GLES_FORWARD(void, glPushMatrix, (), glPushMatrix, ())
GLES_FORWARD(void, glPopMatrix, (), glPopMatrix, ())
GLES_FORWARD(void, glTranslatef, (GLfloat x, GLfloat y, GLfloat z),
             glTranslatef, (x, y, z))
GLES_FORWARD(void, glRotatef, (GLfloat angle, GLfloat x, GLfloat y, GLfloat z),
             glRotatef, (angle, x, y, z))
GLES_FORWARD(void, glScalef, (GLfloat x, GLfloat y, GLfloat z), glScalef,
             (x, y, z))
GLES_FORWARD(void, glOrthof,
             (GLfloat l, GLfloat r, GLfloat b, GLfloat t, GLfloat n,
              GLfloat f),
             glOrthof, (l, r, b, t, n, f))
GLES_FORWARD(void, glFrustumf,
             (GLfloat l, GLfloat r, GLfloat b, GLfloat t, GLfloat n,
              GLfloat f),
             glFrustumf, (l, r, b, t, n, f))
GLES_FORWARD(void, glColor4f,
             (GLfloat r, GLfloat g, GLfloat b, GLfloat a), glColor4f,
             (r, g, b, a))
GLES_FORWARD(void, glEnableClientState, (GLenum array), glEnableClientState,
             (array))
GLES_FORWARD(void, glDisableClientState, (GLenum array),
             glDisableClientState, (array))
GLES_FORWARD(void, glVertexPointer,
             (GLint size, GLenum type, GLsizei stride, const void* pointer),
             glVertexPointer, (size, type, stride, pointer))
GLES_FORWARD(void, glColorPointer,
             (GLint size, GLenum type, GLsizei stride, const void* pointer),
             glColorPointer, (size, type, stride, pointer))
GLES_FORWARD(void, glTexCoordPointer,
             (GLint size, GLenum type, GLsizei stride, const void* pointer),
             glTexCoordPointer, (size, type, stride, pointer))
GLES_FORWARD(void, glNormalPointer,
             (GLenum type, GLsizei stride, const void* pointer),
             glNormalPointer, (type, stride, pointer))
GLES_FORWARD(void, glTexEnvi, (GLenum target, GLenum pname, GLint param),
             glTexEnvi, (target, pname, param))

// --- APPLE_fence (indirect diplomats onto NV_fence, paper §4.1) --------------
// Each APPLE_fence call runs as the corresponding NV_fence entry point.
GLES_FORWARD(void, glGenFencesAPPLE, (GLsizei n, GLuint* fences),
             glGenFencesNV, (n, fences))
GLES_FORWARD(void, glDeleteFencesAPPLE, (GLsizei n, const GLuint* fences),
             glDeleteFencesNV, (n, fences))
// APPLE_fence's set takes no condition; NV_fence wants ALL_COMPLETED.
GLES_FORWARD(void, glSetFenceAPPLE, (GLuint fence), glSetFenceNV,
             (fence, glcore::GL_ALL_COMPLETED_NV))
GLES_FORWARD(GLboolean, glIsFenceAPPLE, (GLuint fence), glIsFenceNV,
             (fence))
GLES_FORWARD(GLboolean, glTestFenceAPPLE, (GLuint fence), glTestFenceNV,
             (fence))
GLES_FORWARD(void, glFinishFenceAPPLE, (GLuint fence), glFinishFenceNV,
             (fence))
// The object forms re-arrange their inputs onto the fence forms.
GLES_CUSTOM(GLboolean, glTestObjectAPPLE, (GLenum object, GLuint name))
GLES_CUSTOM(void, glFinishObjectAPPLE, (GLenum object, GLint name))
