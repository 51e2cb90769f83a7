// The software GPU device: resource tables, a queued command processor and
// fences. Everything above this layer (both platforms' vendor GLES
// libraries) talks to the "hardware" exclusively through this interface, so
// driver-level behaviors — deferred execution until flush, fence signaling,
// zero-copy render targets aliasing externally-owned graphics memory — are
// exercised just as on the device the paper used.
//
// Since PR 8 the device is double-buffered (docs/PIPELINE.md): commands
// record into a queue of handle-based entries, and submit_frame() resolves
// them into a FrameBatch of plain views and hands it to the tile worker
// pool. With >= 2 workers the batch executes asynchronously — the app
// thread records the next frame while the pool rasterizes the previous one,
// with at most one frame in flight per device; other devices' frames run
// alongside it. One settle rule keeps GL order: every method that reads or
// changes texture or target memory (views, readback, texture definition,
// upload, external binding and destroy, target destroy) first waits out the
// in-flight frame and then executes the recorded commands, so a draw
// recorded before a texture write samples the texture as it was. reset()
// drains and discards instead. With one worker every path executes inline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "gpu/pipeline.h"
#include "gpu/raster.h"
#include "gpu/types.h"
#include "util/status.h"

namespace cycada::core {
class Session;
}  // namespace cycada::core

namespace cycada::gpu {

class GpuDevice {
 public:
  // The SoC has one GPU; vendor libraries acquire it here.
  static GpuDevice& instance();

  GpuDevice() = default;
  // Per-session facet teardown: drain any frame in flight (the shared tile
  // pool's retire callback captures `this`) before the storage goes away.
  ~GpuDevice() { reset(); }
  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;

  // The owning session (nullptr for directly constructed devices).
  core::Session* owner() const { return owner_; }

  // Drops all resources and queued work (test support). Drains any frame in
  // flight first.
  void reset();

  // --- Textures ----------------------------------------------------------
  // Creates an empty texture object; storage is defined later.
  TextureHandle create_texture();
  // (Re)allocates owned RGBA8888 storage, dropping any external binding —
  // the glTexImage2D path.
  Status define_texture(TextureHandle handle, int width, int height);
  // Points the texture at externally-owned memory (EGLImage zero-copy).
  Status bind_texture_external(TextureHandle handle, std::uint32_t* texels,
                               int width, int height, int stride_px);
  Status upload_texture(TextureHandle handle, int x, int y, int width,
                        int height, const std::uint32_t* pixels,
                        int src_stride_px);
  Status destroy_texture(TextureHandle handle);
  bool texture_valid(TextureHandle handle) const;
  StatusOr<TextureView> texture_view(TextureHandle handle);

  // --- Render targets ----------------------------------------------------
  RenderTargetHandle create_target(int width, int height, bool with_depth);
  // Target aliasing external memory (window surfaces, GraphicBuffers).
  RenderTargetHandle create_target_external(std::uint32_t* color, int width,
                                            int height, int stride_px,
                                            bool with_depth);
  Status destroy_target(RenderTargetHandle handle);
  StatusOr<TargetView> target_view(RenderTargetHandle handle);

  // --- Command submission (queued until flush) ----------------------------
  void submit_clear(RenderTargetHandle target,
                    std::optional<ScissorRect> scissor, bool clear_color,
                    Color color, bool clear_depth, float depth_value);
  void submit_draw(RenderTargetHandle target, RasterState state,
                   PrimitiveKind kind, std::vector<ShadedVertex> vertices);

  // Inserts a fence after the currently queued commands.
  FenceHandle submit_fence();
  bool fence_signaled(FenceHandle fence);
  // Blocks until the fence has signaled: waits out an in-flight frame that
  // contains it, then executes any still-recorded work. With a budget it
  // waits at most budget_ms for the in-flight frame and returns false on
  // timeout, counting watchdog.present.timeouts; the fence stays
  // unsignaled and the caller force-retires (scans out the stale front
  // buffer, drops the frame).
  bool wait_fence(FenceHandle fence,
                  std::optional<std::int64_t> budget_ms = std::nullopt);

  // Closes the recording queue as one frame and executes it — async on the
  // tile worker pool when it has >= 2 workers (one frame per device in
  // flight; a second submit waits for the first to retire), inline
  // otherwise. The swap (both present paths) and glFlush call this; pair
  // it with submit_fence() to learn when the frame's buffers are safe to
  // read.
  void submit_frame();

  // Waits for any in-flight frame and executes all queued commands: the
  // device is idle on return (glFinish).
  void flush();

  // Reads back pixels. `out_stride_px` is the row pitch of `out`.
  Status read_pixels(RenderTargetHandle target, int x, int y, int width,
                     int height, std::uint32_t* out, int out_stride_px);

  GpuStats stats() const;
  // Commands recorded but not yet handed to the executor. An in-flight
  // async frame no longer counts — it is executing, not pending.
  std::size_t pending_commands() const;

  // Driver kick batching: once this many commands are queued, submission
  // kicks the batch, as a GPU's command buffers are kicked. When the pool
  // is async-capable and this device has no frame in flight, the kick
  // dispatches the partial batch to the pool, so raster of a long frame
  // starts while the app still records it; with a frame in flight the
  // queue keeps growing until the swap or glFlush submits it. With one
  // worker the kick executes the batch on the recording thread.
  static constexpr std::size_t kKickBatchSize = 8;

 private:
  struct Texture {
    int width = 0;
    int height = 0;
    int stride_px = 0;
    std::uint32_t* texels = nullptr;  // points into `owned` or external memory
    std::vector<std::uint32_t> owned;
  };

  struct Target {
    int width = 0;
    int height = 0;
    int stride_px = 0;
    std::uint32_t* color = nullptr;
    std::vector<std::uint32_t> owned_color;
    std::vector<float> depth;  // empty when no depth buffer
  };

  struct ClearCommand {
    RenderTargetHandle target;
    std::optional<ScissorRect> scissor;
    bool clear_color;
    Color color;
    bool clear_depth;
    float depth_value;
  };
  struct DrawCommand {
    RenderTargetHandle target;
    RasterState state;
    PrimitiveKind kind;
    std::vector<ShadedVertex> vertices;
  };
  struct FenceCommand {
    FenceHandle fence;
  };
  using Command = std::variant<ClearCommand, DrawCommand, FenceCommand>;

  // Blocks until this device has no async frame in flight (releases the
  // lock while waiting); with a budget, gives up after budget_ms and
  // returns false.
  bool drain_in_flight_locked(
      std::unique_lock<std::mutex>& lock,
      std::optional<std::int64_t> budget_ms = std::nullopt);
  // The settle rule: drains the in-flight frame, then executes the record
  // queue on the calling thread if it holds commands. Every method that
  // reads or changes texture or target memory calls this first.
  void settle_locked(std::unique_lock<std::mutex>& lock);
  // Appends a command and applies the kick policy (kKickBatchSize).
  void record_locked(std::unique_lock<std::mutex>& lock, Command command);
  // Resolves the record queue into plain-view steps, clearing it. Commands
  // naming destroyed targets are dropped, destroyed textures sample as
  // untextured.
  std::unique_ptr<FrameBatch> resolve_batch_locked();
  // Folds an executed batch's results into stats_ and signals its fences.
  void apply_result_locked(const FrameResult& result);
  // Async dispatch of the record queue; settles inline when the pool
  // cannot overlap.
  void submit_frame_locked(std::unique_lock<std::mutex>& lock);
  TargetView target_view_locked(const Target& target);

  core::Session* owner_ = nullptr;  // set in instance()'s facet thunk
  mutable std::mutex mutex_;
  std::condition_variable retire_cv_;  // signaled when a frame retires
  std::unordered_map<TextureHandle, Texture> textures_;
  std::unordered_map<RenderTargetHandle, Target> targets_;
  std::unordered_map<FenceHandle, bool> fences_;
  std::vector<Command> queue_;
  bool in_flight_ = false;  // this device's one async frame, queued or running
  GpuStats stats_;  // triangles: post-clip total since the device was made
  std::uint32_t next_handle_ = 1;
};

}  // namespace cycada::gpu
