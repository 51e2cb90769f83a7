// OpenGL ES scalar types and the token values the engine implements. Token
// values match the Khronos registry so traces read like real GLES.
#pragma once

#include <cstdint>

namespace cycada::glcore {

using GLenum = std::uint32_t;
using GLboolean = std::uint8_t;
using GLbitfield = std::uint32_t;
using GLbyte = std::int8_t;
using GLshort = std::int16_t;
using GLint = std::int32_t;
using GLsizei = std::int32_t;
using GLubyte = std::uint8_t;
using GLushort = std::uint16_t;
using GLuint = std::uint32_t;
using GLfloat = float;
using GLclampf = float;
using GLintptr = std::intptr_t;
using GLsizeiptr = std::intptr_t;
using GLvoid = void;

// Booleans
inline constexpr GLboolean GL_FALSE = 0;
inline constexpr GLboolean GL_TRUE = 1;

// Errors
inline constexpr GLenum GL_NO_ERROR = 0;
inline constexpr GLenum GL_INVALID_ENUM = 0x0500;
inline constexpr GLenum GL_INVALID_VALUE = 0x0501;
inline constexpr GLenum GL_INVALID_OPERATION = 0x0502;
inline constexpr GLenum GL_OUT_OF_MEMORY = 0x0505;
inline constexpr GLenum GL_INVALID_FRAMEBUFFER_OPERATION = 0x0506;

// Primitives
inline constexpr GLenum GL_POINTS = 0x0000;
inline constexpr GLenum GL_LINES = 0x0001;
inline constexpr GLenum GL_LINE_LOOP = 0x0002;
inline constexpr GLenum GL_LINE_STRIP = 0x0003;
inline constexpr GLenum GL_TRIANGLES = 0x0004;
inline constexpr GLenum GL_TRIANGLE_STRIP = 0x0005;
inline constexpr GLenum GL_TRIANGLE_FAN = 0x0006;

// Clear bits
inline constexpr GLbitfield GL_DEPTH_BUFFER_BIT = 0x00000100;
inline constexpr GLbitfield GL_STENCIL_BUFFER_BIT = 0x00000400;
inline constexpr GLbitfield GL_COLOR_BUFFER_BIT = 0x00004000;

// Capabilities
inline constexpr GLenum GL_CULL_FACE = 0x0B44;
inline constexpr GLenum GL_DEPTH_TEST = 0x0B71;
inline constexpr GLenum GL_STENCIL_TEST = 0x0B90;
inline constexpr GLenum GL_BLEND = 0x0BE2;
inline constexpr GLenum GL_SCISSOR_TEST = 0x0C11;
inline constexpr GLenum GL_TEXTURE_2D = 0x0DE1;
inline constexpr GLenum GL_LIGHTING = 0x0B50;      // GLES1
inline constexpr GLenum GL_ALPHA_TEST = 0x0BC0;    // GLES1

// Depth funcs
inline constexpr GLenum GL_NEVER = 0x0200;
inline constexpr GLenum GL_LESS = 0x0201;
inline constexpr GLenum GL_EQUAL = 0x0202;
inline constexpr GLenum GL_LEQUAL = 0x0203;
inline constexpr GLenum GL_GREATER = 0x0204;
inline constexpr GLenum GL_NOTEQUAL = 0x0205;
inline constexpr GLenum GL_GEQUAL = 0x0206;
inline constexpr GLenum GL_ALWAYS = 0x0207;

// Blend factors
inline constexpr GLenum GL_ZERO = 0;
inline constexpr GLenum GL_ONE = 1;
inline constexpr GLenum GL_SRC_COLOR = 0x0300;
inline constexpr GLenum GL_ONE_MINUS_SRC_COLOR = 0x0301;
inline constexpr GLenum GL_SRC_ALPHA = 0x0302;
inline constexpr GLenum GL_ONE_MINUS_SRC_ALPHA = 0x0303;
inline constexpr GLenum GL_DST_ALPHA = 0x0304;
inline constexpr GLenum GL_ONE_MINUS_DST_ALPHA = 0x0305;

// Winding / cull
inline constexpr GLenum GL_CW = 0x0900;
inline constexpr GLenum GL_CCW = 0x0901;
// Cull
inline constexpr GLenum GL_FRONT = 0x0404;
inline constexpr GLenum GL_BACK = 0x0405;
inline constexpr GLenum GL_FRONT_AND_BACK = 0x0408;

// Data types
inline constexpr GLenum GL_BYTE = 0x1400;
inline constexpr GLenum GL_UNSIGNED_BYTE = 0x1401;
inline constexpr GLenum GL_SHORT = 0x1402;
inline constexpr GLenum GL_UNSIGNED_SHORT = 0x1403;
inline constexpr GLenum GL_INT = 0x1404;
inline constexpr GLenum GL_UNSIGNED_INT = 0x1405;
inline constexpr GLenum GL_FLOAT = 0x1406;
inline constexpr GLenum GL_FIXED = 0x140C;

// Pixel formats
inline constexpr GLenum GL_ALPHA = 0x1906;
inline constexpr GLenum GL_RGB = 0x1907;
inline constexpr GLenum GL_RGBA = 0x1908;
inline constexpr GLenum GL_LUMINANCE = 0x1909;
inline constexpr GLenum GL_UNSIGNED_SHORT_5_6_5 = 0x8363;
inline constexpr GLenum GL_UNSIGNED_SHORT_4_4_4_4 = 0x8033;

// Strings
inline constexpr GLenum GL_VENDOR = 0x1F00;
inline constexpr GLenum GL_RENDERER = 0x1F01;
inline constexpr GLenum GL_VERSION = 0x1F02;
inline constexpr GLenum GL_EXTENSIONS = 0x1F03;
inline constexpr GLenum GL_SHADING_LANGUAGE_VERSION = 0x8B8C;
// Apple's non-standard glGetString parameter returning Apple-proprietary
// extensions (paper §4.1, the data-dependent glGetString diplomat).
inline constexpr GLenum GL_APPLE_PROPRIETARY_EXTENSIONS = 0x6FAE;

// Texture params / env
inline constexpr GLenum GL_TEXTURE_MAG_FILTER = 0x2800;
inline constexpr GLenum GL_TEXTURE_MIN_FILTER = 0x2801;
inline constexpr GLenum GL_TEXTURE_WRAP_S = 0x2802;
inline constexpr GLenum GL_TEXTURE_WRAP_T = 0x2803;
inline constexpr GLenum GL_NEAREST = 0x2600;
inline constexpr GLenum GL_LINEAR = 0x2601;
inline constexpr GLenum GL_LINEAR_MIPMAP_LINEAR = 0x2703;
inline constexpr GLenum GL_REPEAT = 0x2901;
inline constexpr GLenum GL_CLAMP_TO_EDGE = 0x812F;
inline constexpr GLenum GL_TEXTURE_ENV = 0x2300;
inline constexpr GLenum GL_TEXTURE_ENV_MODE = 0x2200;
inline constexpr GLenum GL_MODULATE = 0x2100;
inline constexpr GLenum GL_REPLACE = 0x1E01;
inline constexpr GLenum GL_TEXTURE0 = 0x84C0;

// Buffers
inline constexpr GLenum GL_ARRAY_BUFFER = 0x8892;
inline constexpr GLenum GL_ELEMENT_ARRAY_BUFFER = 0x8893;
inline constexpr GLenum GL_STATIC_DRAW = 0x88E4;
inline constexpr GLenum GL_DYNAMIC_DRAW = 0x88E8;
inline constexpr GLenum GL_STREAM_DRAW = 0x88E0;

// Framebuffers / renderbuffers
inline constexpr GLenum GL_FRAMEBUFFER = 0x8D40;
inline constexpr GLenum GL_RENDERBUFFER = 0x8D41;
inline constexpr GLenum GL_COLOR_ATTACHMENT0 = 0x8CE0;
inline constexpr GLenum GL_DEPTH_ATTACHMENT = 0x8D00;
inline constexpr GLenum GL_STENCIL_ATTACHMENT = 0x8D20;
inline constexpr GLenum GL_FRAMEBUFFER_COMPLETE = 0x8CD5;
inline constexpr GLenum GL_FRAMEBUFFER_INCOMPLETE_ATTACHMENT = 0x8CD6;
inline constexpr GLenum GL_FRAMEBUFFER_UNSUPPORTED = 0x8CDD;
inline constexpr GLenum GL_RGBA8_OES = 0x8058;
inline constexpr GLenum GL_RGB565 = 0x8D62;
inline constexpr GLenum GL_DEPTH_COMPONENT16 = 0x81A5;
inline constexpr GLenum GL_RENDERBUFFER_WIDTH = 0x8D42;
inline constexpr GLenum GL_RENDERBUFFER_HEIGHT = 0x8D43;

// Shaders / programs
inline constexpr GLenum GL_FRAGMENT_SHADER = 0x8B30;
inline constexpr GLenum GL_VERTEX_SHADER = 0x8B31;
inline constexpr GLenum GL_COMPILE_STATUS = 0x8B81;
inline constexpr GLenum GL_LINK_STATUS = 0x8B82;
inline constexpr GLenum GL_INFO_LOG_LENGTH = 0x8B84;

// glGetIntegerv queries
inline constexpr GLenum GL_MAX_TEXTURE_SIZE = 0x0D33;
inline constexpr GLenum GL_MAX_VERTEX_ATTRIBS = 0x8869;
inline constexpr GLenum GL_FRAMEBUFFER_BINDING = 0x8CA6;
inline constexpr GLenum GL_RENDERBUFFER_BINDING = 0x8CA7;
inline constexpr GLenum GL_TEXTURE_BINDING_2D = 0x8069;
inline constexpr GLenum GL_ACTIVE_TEXTURE = 0x84E0;
inline constexpr GLenum GL_ARRAY_BUFFER_BINDING = 0x8894;
inline constexpr GLenum GL_CURRENT_PROGRAM = 0x8B8D;
inline constexpr GLenum GL_VIEWPORT = 0x0BA2;
inline constexpr GLenum GL_COLOR_CLEAR_VALUE = 0x0C22;
inline constexpr GLenum GL_LINE_WIDTH = 0x0B21;
inline constexpr GLenum GL_DEPTH_RANGE = 0x0B70;
inline constexpr GLenum GL_COLOR_WRITEMASK = 0x0C23;
inline constexpr GLenum GL_DEPTH_WRITEMASK = 0x0B72;
inline constexpr GLenum GL_FRONT_FACE = 0x0B46;
inline constexpr GLenum GL_MODELVIEW_MATRIX = 0x0BA6;
inline constexpr GLenum GL_PROJECTION_MATRIX = 0x0BA7;
inline constexpr GLenum GL_BUFFER_SIZE = 0x8764;
inline constexpr GLenum GL_BUFFER_USAGE = 0x8765;
inline constexpr GLenum GL_FUNC_ADD = 0x8006;
inline constexpr GLenum GL_FASTEST = 0x1101;
inline constexpr GLenum GL_NICEST = 0x1102;
inline constexpr GLenum GL_DONT_CARE = 0x1100;
inline constexpr GLenum GL_GENERATE_MIPMAP_HINT = 0x8192;
inline constexpr GLenum GL_MATRIX_MODE = 0x0BA0;

// glGetVertexAttribiv / glGetVertexAttribPointerv queries
inline constexpr GLenum GL_VERTEX_ATTRIB_ARRAY_ENABLED = 0x8622;
inline constexpr GLenum GL_VERTEX_ATTRIB_ARRAY_SIZE = 0x8623;
inline constexpr GLenum GL_VERTEX_ATTRIB_ARRAY_STRIDE = 0x8624;
inline constexpr GLenum GL_VERTEX_ATTRIB_ARRAY_TYPE = 0x8625;
inline constexpr GLenum GL_VERTEX_ATTRIB_ARRAY_NORMALIZED = 0x886A;
inline constexpr GLenum GL_VERTEX_ATTRIB_ARRAY_BUFFER_BINDING = 0x889F;
inline constexpr GLenum GL_VERTEX_ATTRIB_ARRAY_POINTER = 0x8645;

// GLES1 matrix modes
inline constexpr GLenum GL_MODELVIEW = 0x1700;
inline constexpr GLenum GL_PROJECTION = 0x1701;
inline constexpr GLenum GL_TEXTURE = 0x1702;

// GLES1 client arrays
inline constexpr GLenum GL_VERTEX_ARRAY = 0x8074;
inline constexpr GLenum GL_NORMAL_ARRAY = 0x8075;
inline constexpr GLenum GL_COLOR_ARRAY = 0x8076;
inline constexpr GLenum GL_TEXTURE_COORD_ARRAY = 0x8078;

// glPixelStorei
inline constexpr GLenum GL_UNPACK_ALIGNMENT = 0x0CF5;
inline constexpr GLenum GL_PACK_ALIGNMENT = 0x0D05;
// APPLE_row_bytes (paper §4.1): row-pitch control for packed pixel I/O.
inline constexpr GLenum GL_PACK_ROW_BYTES_APPLE = 0x8A15;
inline constexpr GLenum GL_UNPACK_ROW_BYTES_APPLE = 0x8A16;

// NV_fence / APPLE_fence
inline constexpr GLenum GL_ALL_COMPLETED_NV = 0x84F2;

}  // namespace cycada::glcore
