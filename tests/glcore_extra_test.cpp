// Tests for the extended GLES surface: write masks, winding, copy-tex
// paths, queries and object predicates.
#include <gtest/gtest.h>

#include <cstdint>

#include "glcore/engine.h"
#include "gpu/device.h"
#include "kernel/kernel.h"

namespace cycada::glcore {
namespace {

class GlExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel::Kernel::instance().reset();
    gpu::GpuDevice::instance().reset();
    engine_ = std::make_unique<GlesEngine>(GlesEngineConfig{});
    target_ = gpu::GpuDevice::instance().create_target(16, 16, true);
    context_ = engine_->create_context(2);
    ASSERT_TRUE(engine_->make_current(context_, target_).is_ok());
    engine_->glViewport(0, 0, 16, 16);
  }

  void draw_solid_quad(float r, float g, float b, float a = 1.f) {
    const char* vs =
        "attribute vec4 a_position; uniform mat4 u_mvp;"
        "void main() { gl_Position = u_mvp * a_position; }";
    const char* fs =
        "uniform vec4 u_color; void main() { gl_FragColor = u_color; }";
    if (program_ == 0) {
      const GLuint vsh = engine_->glCreateShader(GL_VERTEX_SHADER);
      const GLuint fsh = engine_->glCreateShader(GL_FRAGMENT_SHADER);
      engine_->glShaderSource(vsh, 1, &vs, nullptr);
      engine_->glShaderSource(fsh, 1, &fs, nullptr);
      engine_->glCompileShader(vsh);
      engine_->glCompileShader(fsh);
      program_ = engine_->glCreateProgram();
      engine_->glAttachShader(program_, vsh);
      engine_->glAttachShader(program_, fsh);
      engine_->glLinkProgram(program_);
    }
    engine_->glUseProgram(program_);
    const float identity[16] = {1, 0, 0, 0, 0, 1, 0, 0,
                                0, 0, 1, 0, 0, 0, 0, 1};
    engine_->glUniformMatrix4fv(0, 1, GL_FALSE, identity);
    engine_->glUniform4f(1, r, g, b, a);
    static const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
    engine_->glEnableVertexAttribArray(0);
    engine_->glVertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 0, quad);
    engine_->glDrawArrays(GL_TRIANGLES, 0, 6);
  }

  std::uint32_t pixel(int x, int y) {
    std::uint32_t value = 0;
    engine_->glReadPixels(x, y, 1, 1, GL_RGBA, GL_UNSIGNED_BYTE, &value);
    return value;
  }

  std::unique_ptr<GlesEngine> engine_;
  ContextId context_ = kNoContext;
  gpu::RenderTargetHandle target_ = gpu::kNoHandle;
  GLuint program_ = 0;
};

TEST_F(GlExtraTest, ColorMaskBlocksChannels) {
  engine_->glClearColor(0, 0, 0, 1);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  // Only the green channel may be written.
  engine_->glColorMask(GL_FALSE, GL_TRUE, GL_FALSE, GL_TRUE);
  draw_solid_quad(1.f, 1.f, 1.f);
  EXPECT_EQ(pixel(8, 8), 0xff00ff00u);
  engine_->glColorMask(GL_TRUE, GL_TRUE, GL_TRUE, GL_TRUE);
  draw_solid_quad(1.f, 0.f, 0.f);
  EXPECT_EQ(pixel(8, 8), 0xff0000ffu);
}

TEST_F(GlExtraTest, FrontFaceFlipsCulling) {
  engine_->glClearColor(0, 0, 0, 1);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  engine_->glEnable(GL_CULL_FACE);
  engine_->glCullFace(GL_BACK);
  draw_solid_quad(0.f, 0.f, 1.f);
  const std::uint32_t with_ccw = pixel(8, 8);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  engine_->glFrontFace(GL_CW);  // same geometry now counts as back-facing
  draw_solid_quad(0.f, 0.f, 1.f);
  const std::uint32_t with_cw = pixel(8, 8);
  // Exactly one of the two passes culls the quad.
  EXPECT_NE(with_ccw == 0xffff0000u, with_cw == 0xffff0000u);
  engine_->glFrontFace(0x1234);
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_ENUM);
}

TEST_F(GlExtraTest, CopyTexImageRoundTrips) {
  engine_->glClearColor(1.f, 0.5f, 0.f, 1.f);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  GLuint texture = 0;
  engine_->glGenTextures(1, &texture);
  engine_->glBindTexture(GL_TEXTURE_2D, texture);
  engine_->glCopyTexImage2D(GL_TEXTURE_2D, 0, GL_RGBA, 0, 0, 8, 8, 0);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);

  // Overwrite a corner from the (re-cleared) target.
  engine_->glClearColor(0.f, 0.f, 1.f, 1.f);
  engine_->glClear(GL_COLOR_BUFFER_BIT);
  engine_->glCopyTexSubImage2D(GL_TEXTURE_2D, 0, 0, 0, 0, 0, 2, 2);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);

  // Check the texture contents via the GPU view.
  auto view = gpu::GpuDevice::instance().texture_view(
      /* handle from the engine is private; sample via draw instead */ 0);
  (void)view;
  // Draw the texture and verify both regions.
  const char* vs =
      "attribute vec4 a_position; attribute vec2 a_texcoord; uniform mat4 "
      "u_mvp; varying vec2 v_uv;"
      "void main() { gl_Position = u_mvp * a_position; v_uv = a_texcoord; }";
  const char* fs =
      "uniform sampler2D u_tex; varying vec2 v_uv;"
      "void main() { gl_FragColor = texture2D(u_tex, v_uv); }";
  const GLuint vsh = engine_->glCreateShader(GL_VERTEX_SHADER);
  const GLuint fsh = engine_->glCreateShader(GL_FRAGMENT_SHADER);
  engine_->glShaderSource(vsh, 1, &vs, nullptr);
  engine_->glShaderSource(fsh, 1, &fs, nullptr);
  engine_->glCompileShader(vsh);
  engine_->glCompileShader(fsh);
  const GLuint prog = engine_->glCreateProgram();
  engine_->glAttachShader(prog, vsh);
  engine_->glAttachShader(prog, fsh);
  engine_->glLinkProgram(prog);
  engine_->glUseProgram(prog);
  const float identity[16] = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1};
  engine_->glUniformMatrix4fv(0, 1, GL_FALSE, identity);
  engine_->glTexParameteri(GL_TEXTURE_2D, GL_TEXTURE_MAG_FILTER, GL_NEAREST);
  static const float quad[] = {-1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, 1};
  static const float uvs[] = {0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0};
  engine_->glEnableVertexAttribArray(0);
  engine_->glEnableVertexAttribArray(2);
  engine_->glVertexAttribPointer(0, 2, GL_FLOAT, GL_FALSE, 0, quad);
  engine_->glVertexAttribPointer(2, 2, GL_FLOAT, GL_FALSE, 0, uvs);
  engine_->glDrawArrays(GL_TRIANGLES, 0, 6);
  // Texel (0,0) region was overwritten blue (drawn at the screen top-left
  // with these uvs); the rest is the orange clear.
  EXPECT_EQ(pixel(1, 1), 0xffff0000u);    // blue corner
  EXPECT_EQ(pixel(14, 2), 0xff0080ffu);   // orange elsewhere
}

TEST_F(GlExtraTest, GetFloatvQueries) {
  engine_->glClearColor(0.25f, 0.5f, 0.75f, 1.f);
  float clear_color[4] = {};
  engine_->glGetFloatv(GL_COLOR_CLEAR_VALUE, clear_color);
  EXPECT_FLOAT_EQ(clear_color[0], 0.25f);
  EXPECT_FLOAT_EQ(clear_color[2], 0.75f);
  engine_->glLineWidth(3.f);
  float width = 0;
  engine_->glGetFloatv(GL_LINE_WIDTH, &width);
  EXPECT_FLOAT_EQ(width, 3.f);
  engine_->glDepthRangef(0.1f, 0.9f);
  float range[2] = {};
  engine_->glGetFloatv(GL_DEPTH_RANGE, range);
  EXPECT_FLOAT_EQ(range[0], 0.1f);
  EXPECT_FLOAT_EQ(range[1], 0.9f);
  engine_->glLineWidth(-1.f);
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_VALUE);
}

TEST_F(GlExtraTest, IsEnabledAndGetBooleanvReportState) {
  EXPECT_EQ(engine_->glIsEnabled(GL_BLEND), GL_FALSE);
  engine_->glEnable(GL_BLEND);
  engine_->glEnable(GL_STENCIL_TEST);  // accepted, unmodeled, still reported
  EXPECT_EQ(engine_->glIsEnabled(GL_BLEND), GL_TRUE);
  EXPECT_EQ(engine_->glIsEnabled(GL_STENCIL_TEST), GL_TRUE);
  EXPECT_EQ(engine_->glIsEnabled(GL_SCISSOR_TEST), GL_FALSE);
  engine_->glDisable(GL_BLEND);
  EXPECT_EQ(engine_->glIsEnabled(GL_BLEND), GL_FALSE);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
  EXPECT_EQ(engine_->glIsEnabled(GL_VIEWPORT), GL_FALSE);
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_ENUM);

  engine_->glColorMask(GL_FALSE, GL_TRUE, GL_FALSE, GL_TRUE);
  engine_->glDepthMask(GL_FALSE);
  engine_->glEnable(GL_CULL_FACE);
  GLboolean mask[4] = {};
  GLboolean depth_mask = GL_TRUE;
  GLboolean cull = GL_FALSE;
  engine_->glGetBooleanv(GL_COLOR_WRITEMASK, mask);
  engine_->glGetBooleanv(GL_DEPTH_WRITEMASK, &depth_mask);
  engine_->glGetBooleanv(GL_CULL_FACE, &cull);
  EXPECT_EQ(mask[0], GL_FALSE);
  EXPECT_EQ(mask[1], GL_TRUE);
  EXPECT_EQ(mask[2], GL_FALSE);
  EXPECT_EQ(mask[3], GL_TRUE);
  EXPECT_EQ(depth_mask, GL_FALSE);
  EXPECT_EQ(cull, GL_TRUE);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
}

TEST_F(GlExtraTest, BindingAndVertexAttribQueries) {
  draw_solid_quad(1.f, 0.f, 0.f);
  GLint program = 0;
  engine_->glGetIntegerv(GL_CURRENT_PROGRAM, &program);
  EXPECT_EQ(static_cast<GLuint>(program), program_);
  engine_->glActiveTexture(GL_TEXTURE0 + 1);
  GLint unit = 0;
  engine_->glGetIntegerv(GL_ACTIVE_TEXTURE, &unit);
  EXPECT_EQ(unit, static_cast<GLint>(GL_TEXTURE0 + 1));

  GLuint buffer = 0;
  engine_->glGenBuffers(1, &buffer);
  engine_->glBindBuffer(GL_ARRAY_BUFFER, buffer);
  GLint bound = 0;
  engine_->glGetIntegerv(GL_ARRAY_BUFFER_BINDING, &bound);
  EXPECT_EQ(static_cast<GLuint>(bound), buffer);
  const auto* offset = reinterpret_cast<const void*>(std::uintptr_t{8});
  engine_->glVertexAttribPointer(2, 3, GL_UNSIGNED_BYTE, GL_TRUE, 12, offset);
  GLint enabled = 1, size = 0, type = 0, normalized = 0, stride = 0;
  GLint attrib_buffer = 0;
  engine_->glGetVertexAttribiv(2, GL_VERTEX_ATTRIB_ARRAY_ENABLED, &enabled);
  engine_->glGetVertexAttribiv(2, GL_VERTEX_ATTRIB_ARRAY_SIZE, &size);
  engine_->glGetVertexAttribiv(2, GL_VERTEX_ATTRIB_ARRAY_TYPE, &type);
  engine_->glGetVertexAttribiv(2, GL_VERTEX_ATTRIB_ARRAY_NORMALIZED,
                               &normalized);
  engine_->glGetVertexAttribiv(2, GL_VERTEX_ATTRIB_ARRAY_STRIDE, &stride);
  engine_->glGetVertexAttribiv(2, GL_VERTEX_ATTRIB_ARRAY_BUFFER_BINDING,
                               &attrib_buffer);
  void* pointer = nullptr;
  engine_->glGetVertexAttribPointerv(2, GL_VERTEX_ATTRIB_ARRAY_POINTER,
                                     &pointer);
  EXPECT_EQ(enabled, 0);
  EXPECT_EQ(size, 3);
  EXPECT_EQ(type, static_cast<GLint>(GL_UNSIGNED_BYTE));
  EXPECT_EQ(normalized, 1);
  EXPECT_EQ(stride, 12);
  EXPECT_EQ(static_cast<GLuint>(attrib_buffer), buffer);
  EXPECT_EQ(pointer, offset);
  engine_->glGetVertexAttribiv(0, GL_VERTEX_ATTRIB_ARRAY_ENABLED, &enabled);
  EXPECT_EQ(enabled, 1);  // draw_solid_quad's position array
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
  engine_->glGetVertexAttribiv(kMaxVertexAttribs,
                               GL_VERTEX_ATTRIB_ARRAY_ENABLED, &enabled);
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_VALUE);
}

TEST_F(GlExtraTest, ObjectPredicates) {
  GLuint buffer = 0, texture = 0, fbo = 0, rbo = 0;
  engine_->glGenBuffers(1, &buffer);
  engine_->glGenTextures(1, &texture);
  engine_->glGenFramebuffers(1, &fbo);
  engine_->glGenRenderbuffers(1, &rbo);
  const GLuint shader = engine_->glCreateShader(GL_VERTEX_SHADER);
  const GLuint program = engine_->glCreateProgram();
  EXPECT_EQ(engine_->glIsBuffer(buffer), GL_TRUE);
  EXPECT_EQ(engine_->glIsTexture(texture), GL_TRUE);
  EXPECT_EQ(engine_->glIsFramebuffer(fbo), GL_TRUE);
  EXPECT_EQ(engine_->glIsRenderbuffer(rbo), GL_TRUE);
  EXPECT_EQ(engine_->glIsShader(shader), GL_TRUE);
  EXPECT_EQ(engine_->glIsProgram(program), GL_TRUE);
  EXPECT_EQ(engine_->glIsBuffer(9999), GL_FALSE);
  EXPECT_EQ(engine_->glIsProgram(shader), GL_FALSE);
}

TEST_F(GlExtraTest, BufferParameterQueries) {
  GLuint buffer = 0;
  engine_->glGenBuffers(1, &buffer);
  engine_->glBindBuffer(GL_ARRAY_BUFFER, buffer);
  const float data[12] = {};
  engine_->glBufferData(GL_ARRAY_BUFFER, sizeof(data), data, GL_DYNAMIC_DRAW);
  GLint size = 0, usage = 0;
  engine_->glGetBufferParameteriv(GL_ARRAY_BUFFER, GL_BUFFER_SIZE, &size);
  engine_->glGetBufferParameteriv(GL_ARRAY_BUFFER, GL_BUFFER_USAGE, &usage);
  EXPECT_EQ(size, 48);
  EXPECT_EQ(usage, static_cast<GLint>(GL_DYNAMIC_DRAW));
}

TEST_F(GlExtraTest, DetachAndValidate) {
  const GLuint vsh = engine_->glCreateShader(GL_VERTEX_SHADER);
  const GLuint program = engine_->glCreateProgram();
  engine_->glAttachShader(program, vsh);
  engine_->glDetachShader(program, vsh);
  engine_->glDetachShader(program, vsh);  // already detached
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_OPERATION);
  engine_->glValidateProgram(program);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
  engine_->glValidateProgram(999);
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_VALUE);
}

TEST_F(GlExtraTest, AcceptedButUnmodeledStateIsHarmless) {
  engine_->glHint(GL_GENERATE_MIPMAP_HINT, GL_FASTEST);
  engine_->glSampleCoverage(0.5f, GL_TRUE);
  engine_->glPolygonOffset(1.f, 2.f);
  engine_->glStencilFunc(GL_ALWAYS, 0, 0xff);
  engine_->glStencilMask(0xff);
  engine_->glStencilOp(GL_REPLACE, GL_REPLACE, GL_REPLACE);
  engine_->glBlendColor(0.1f, 0.2f, 0.3f, 0.4f);
  engine_->glBlendEquation(GL_FUNC_ADD);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
  engine_->glBlendEquation(0x8007);  // FUNC_SUBTRACT: not modeled
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_ENUM);
  engine_->glHint(GL_GENERATE_MIPMAP_HINT, 0x9999);
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_ENUM);
}

TEST_F(GlExtraTest, GenerateMipmapRequiresBoundTexture) {
  engine_->glGenerateMipmap(GL_TEXTURE_2D);
  EXPECT_EQ(engine_->glGetError(), GL_INVALID_OPERATION);
  GLuint texture = 0;
  engine_->glGenTextures(1, &texture);
  engine_->glBindTexture(GL_TEXTURE_2D, texture);
  engine_->glGenerateMipmap(GL_TEXTURE_2D);
  EXPECT_EQ(engine_->glGetError(), GL_NO_ERROR);
}

}  // namespace
}  // namespace cycada::glcore
