// libui_wrapper (paper §8.1.1, §8.2): the Android-side support library that
// "contains all of the logic that links against Android graphics
// libraries". One replica of this library — and, through its dependency
// edge, of the whole vendor GLES stack — is created per iOS EAGLContext.
// Every method here executes in the Android persona; the iOS side reaches
// each through a single (multi) diplomat, paying one persona round-trip per
// aegl_bridge_* call exactly as the paper's Figure 7/8 profiles show.
#pragma once

#include <memory>
#include <vector>

#include "android_gl/egl.h"
#include "glcore/engine.h"
#include "gmem/graphic_buffer.h"
#include "linker/linker.h"
#include "util/status.h"

namespace cycada::core {
class ContextTls;
}  // namespace cycada::core

namespace cycada::android_gl {

// Android's GLES thread-affinity rule (paper §7): a context may be used by
// the thread that created it, or by the thread-group leader.
bool android_thread_affinity_ok(kernel::Tid creator);

class UiWrapper : public linker::LibraryInstance {
 public:
  explicit UiWrapper(linker::LoadContext& context);
  ~UiWrapper() override;
  void* symbol(std::string_view name) override;
  std::vector<std::string> exported_symbols() const override;

  glcore::GlesEngine* engine() { return engine_; }
  glcore::ContextId context_id() const { return context_; }
  kernel::Tid context_creator() const { return creator_; }

  // Creates this replica's GLES connection: a window "layer" of the given
  // size (an EglSurface), a GLES context of the requested version, and
  // makes it current on the calling thread. On failure the wrapper stays
  // uninitialized.
  Status initialize(int gles_version, int width, int height);

  // Warm-pool reuse path: tears down any previous layer/context state and
  // initializes afresh (new dimensions, new creator thread). A no-op
  // teardown on a never-initialized wrapper, so the bridge may call this
  // unconditionally for both fresh and pooled replicas.
  Status reinitialize(int gles_version, int width, int height);

  // Binds this replica's context (and back buffer) to the calling thread.
  // Enforces the Android affinity rule — iOS threads must impersonate.
  Status make_current();
  Status clear_current();

  // Allocates a GraphicBuffer suitable as an EAGL drawable backing store.
  StatusOr<gmem::BufferId> create_drawable_buffer(int width, int height);

  // Points renderbuffer `rb` of this replica's context at `buffer`'s memory
  // (the storage behind EAGL renderbufferStorageFromDrawable).
  Status bind_renderbuffer(glcore::GLuint rb, gmem::BufferId buffer);

  // The EAGL present path, part 1 (paper §5): records a textured quad that
  // draws `content`'s pixels into the default framebuffer. The quad runs
  // with blend, depth test, culling and scissor off and every colour
  // channel written; the app state it changes is read back through GL
  // queries first and restored after. Nothing here waits for raster.
  Status draw_fbo_tex(gmem::BufferId content);
  // Part 2: the eglSwapBuffers step — the layer's swap, which fences and
  // submits the frame (the quad included), flips its buffers and re-points
  // the default framebuffer.
  Status swap_buffers();

  // Copies a texture's texels into a GraphicBuffer (CPU path; the other
  // expensive aegl_bridge_* function in the paper's profiles).
  Status copy_tex_buf(glcore::GLuint texture, gmem::BufferId dst);

  // The eglSetTLSMC surface (Figure 4): binds this replica on the calling
  // thread to the value its slot holds in `tls`, a context's store.
  Status set_tls(const core::ContextTls& tls);

  // The window layer the present path draws into (nullptr until
  // initialized); its front_image() is what the screen shows.
  const EglSurface* layer() const { return layer_.get(); }

 private:
  Status ensure_present_program();
  void teardown();

  glcore::GlesEngine* engine_ = nullptr;
  glcore::ContextId context_ = glcore::kNoContext;
  kernel::Tid creator_ = kernel::kInvalidTid;
  std::unique_ptr<EglSurface> layer_;
  std::vector<std::shared_ptr<gmem::GraphicBuffer>> drawable_buffers_;
  // Present-path objects (lazily built in this replica's context).
  glcore::GLuint present_program_ = 0;
  glcore::GLuint present_texture_ = 0;
  std::unique_ptr<glcore::EglImage> present_image_;
  gmem::BufferId present_image_buffer_ = 0;
  int replica_global_ = 0;  // exported for DLR address-uniqueness tests
};

}  // namespace cycada::android_gl
