// The tile-parallel frame pipeline (docs/PIPELINE.md).
//
// GpuDevice records commands into a per-frame batch; this module executes a
// batch in two stages modeled on glSoftPipe's DrawEngine, whose stage
// objects are "triggered in any thread without lock protection":
//
//   bin    — single-threaded: the fragment loop of each draw
//            (prepare_draw), vertex post-processing (build_screen_prims)
//            and binning of every primitive/clear into the 64x64 screen
//            tiles its bounding box intersects, in command order.
//   raster — tile-parallel: a fixed worker pool claims tiles from a
//            lock-free per-participant range queue with work stealing and
//            rasterizes each tile's op list in command order.
//
// Determinism is structural, not incidental: a tile's op list preserves
// submission order, tiles are disjoint pixel rects, and every fragment is a
// pure function of its own inputs — so the framebuffer produced at N
// workers is byte-identical to N=1 regardless of tile completion order.
// The one exception a software GPU can detect is framebuffer feedback (a
// draw sampling memory aliased by its own render target, undefined in GL);
// the binner detects the overlap and forces that batch serial.
//
// Pool threads run under util::ThreadRole::kTileWorker and execute only
// pre-resolved raster work: no GL, no diplomats, no persona crossings.
// The analyzer's pipeline.worker-crossing rule enforces this. A worker
// binds to the session whose frame or phase it runs, so that session's
// watchdog ladder and fault filter apply; it still resolves no facets.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "gpu/raster.h"
#include "gpu/types.h"

namespace cycada::core {
class Session;
}  // namespace cycada::core

namespace cycada::gpu {

inline constexpr int kTileSize = 64;

// One recorded command with all device-table lookups already resolved (the
// pool never touches GpuDevice state).
struct FrameStep {
  enum class Kind : std::uint8_t { kClear, kDraw, kFence };
  Kind kind = Kind::kDraw;
  TargetView target;

  // kClear
  std::optional<ScissorRect> scissor;
  bool clear_color = false;
  Color color;
  bool clear_depth = false;
  float depth_value = 1.f;

  // kDraw
  RasterState state;
  PrimitiveKind prim_kind = PrimitiveKind::kTriangles;
  std::vector<ShadedVertex> vertices;
  TextureView texture;
  DrawProgram program;  // chosen by the bin stage (prepare_draw)

  // kFence
  FenceHandle fence = kNoHandle;
};

// Execution results the device folds back into GpuStats at retire.
struct FrameResult {
  std::uint64_t draw_commands = 0;
  std::uint64_t clear_commands = 0;
  std::uint64_t triangles = 0;
  std::uint64_t fragments_shaded = 0;
  std::vector<FenceHandle> signaled_fences;
};

// A double-buffered command queue generation: the device swaps its record
// queue into one of these and hands it to the pipeline.
struct FrameBatch {
  std::vector<FrameStep> steps;
  FrameResult result;
};

// Executes `batch` to completion on the calling thread plus any idle pool
// workers. Deterministic for any worker count.
void execute_frame(FrameBatch& batch);

// The fixed raster worker pool. Worker count comes from CYCADA_GPU_WORKERS
// (clamped to [1, 16]) or set_worker_count(); the default is
// min(4, hardware_concurrency). One worker means no threads are spawned and
// every batch executes inline on the submitting thread.
//
// N >= 2 workers are N identical threads sharing a FIFO of queued frames
// and a list of published tile phases. An idle worker first helps a
// published phase that still has unclaimed tiles (round-robin across
// phases), otherwise takes the next queued frame, coordinates its phases
// and runs its retire callback. Each device keeps at most one frame of its
// own in flight; frames of different devices run side by side.
class TileWorkerPool {
 public:
  static TileWorkerPool& instance();

  // (Re)configures the pool. Blocks until queued frames retire. n < 1 is
  // clamped to 1.
  void set_worker_count(int n);
  int worker_count();

  // Queues a batch for the next idle worker and returns immediately.
  // Requires worker_count() >= 2 (the device falls back to execute_frame
  // inline otherwise). The worker runs the batch bound to `session`, the
  // app that submitted it; `retire` runs on that worker, in that binding,
  // once the batch has executed, between frames, never during raster.
  void submit_async(core::Session& session, std::unique_ptr<FrameBatch> batch,
                    std::function<void(std::unique_ptr<FrameBatch>)> retire);
  bool async_capable();  // worker_count() >= 2

  // Test support: tears every thread down (drains first). The next use
  // respawns from the configured count.
  void shutdown();

 private:
  friend void execute_frame(FrameBatch& batch);
  struct Phase;
  struct QueuedFrame {
    core::Session* session;
    std::unique_ptr<FrameBatch> batch;
    std::function<void(std::unique_ptr<FrameBatch>)> retire;
  };

  TileWorkerPool() = default;
  void ensure_started_locked();
  void stop_threads_locked(std::unique_lock<std::mutex>& lock);
  void worker_main();
  // The next published phase with unclaimed tiles, round-robin; null when
  // there is none.
  Phase* next_open_phase_locked();

  // Runs one phase's tiles on the caller plus any idle workers.
  void run_phase(Phase& phase);

  // Deadline-sliced wait until every submitted frame has retired
  // (supervised by the kGpuPhase watchdog domain; a queued frame always
  // terminates).
  void wait_idle_locked(std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable work_cv_;   // idle workers wait here
  std::condition_variable idle_cv_;   // set_worker_count()/shutdown() wait here
  int configured_workers_ = 0;        // 0 = not yet resolved from env
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::thread> threads_;

  std::deque<QueuedFrame> frames_;  // submitted, not yet taken by a worker
  int unretired_frames_ = 0;        // submitted, not yet retired
  std::vector<Phase*> phases_;      // published, not yet retracted
  std::size_t next_phase_ = 0;      // round-robin cursor into phases_
};

}  // namespace cycada::gpu
