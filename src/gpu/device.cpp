#include "gpu/device.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "core/session.h"
#include "trace/metrics.h"
#include "util/clock.h"
#include "util/log.h"

namespace cycada::gpu {

GpuDevice& GpuDevice::instance() {
  // Per-session device facet: each session records and submits its own
  // frames, one in flight at a time (the TileWorkerPool underneath stays
  // process-global — one physical GPU's worth of workers — and runs the
  // sessions' frames side by side). Default-session facets are immortal.
  return core::Session::current().facet<GpuDevice>(+[] {
    GpuDevice* device = new GpuDevice();
    device->owner_ = core::Session::constructing_owner();
    return device;
  });
}

void GpuDevice::reset() {
  std::unique_lock lock(mutex_);
  drain_in_flight_locked(lock);
  textures_.clear();
  targets_.clear();
  fences_.clear();
  queue_.clear();
  // The triangle total survives: tests grew to rely on it being cumulative.
  stats_ = {.triangles = stats_.triangles};
  next_handle_ = 1;
}

TextureHandle GpuDevice::create_texture() {
  std::lock_guard lock(mutex_);
  const TextureHandle handle = next_handle_++;
  textures_.emplace(handle, Texture{});
  return handle;
}

Status GpuDevice::define_texture(TextureHandle handle, int width, int height) {
  std::unique_lock lock(mutex_);
  settle_locked(lock);
  auto it = textures_.find(handle);
  if (it == textures_.end()) return Status::not_found("no such texture");
  if (width < 0 || height < 0 || width > 16384 || height > 16384) {
    return Status::invalid_argument("bad texture dimensions");
  }
  Texture& texture = it->second;
  texture.owned.assign(static_cast<std::size_t>(width) * height, 0);
  texture.texels = texture.owned.data();
  texture.width = width;
  texture.height = height;
  texture.stride_px = width;
  return Status::ok();
}

Status GpuDevice::bind_texture_external(TextureHandle handle,
                                        std::uint32_t* texels, int width,
                                        int height, int stride_px) {
  std::unique_lock lock(mutex_);
  settle_locked(lock);
  auto it = textures_.find(handle);
  if (it == textures_.end()) return Status::not_found("no such texture");
  if (texels == nullptr || width <= 0 || height <= 0 || stride_px < width) {
    return Status::invalid_argument("bad external texture binding");
  }
  Texture& texture = it->second;
  texture.owned.clear();
  texture.texels = texels;
  texture.width = width;
  texture.height = height;
  texture.stride_px = stride_px;
  return Status::ok();
}

Status GpuDevice::upload_texture(TextureHandle handle, int x, int y, int width,
                                 int height, const std::uint32_t* pixels,
                                 int src_stride_px) {
  std::unique_lock lock(mutex_);
  settle_locked(lock);
  auto it = textures_.find(handle);
  if (it == textures_.end()) return Status::not_found("no such texture");
  Texture& texture = it->second;
  if (texture.texels == nullptr) {
    return Status::failed_precondition("texture has no storage");
  }
  if (pixels == nullptr || x < 0 || y < 0 || width < 0 || height < 0 ||
      x + width > texture.width || y + height > texture.height) {
    return Status::out_of_range("upload region outside texture");
  }
  for (int row = 0; row < height; ++row) {
    std::memcpy(
        texture.texels + static_cast<std::size_t>(y + row) * texture.stride_px +
            x,
        pixels + static_cast<std::size_t>(row) * src_stride_px,
        static_cast<std::size_t>(width) * sizeof(std::uint32_t));
  }
  return Status::ok();
}

Status GpuDevice::destroy_texture(TextureHandle handle) {
  std::unique_lock lock(mutex_);
  settle_locked(lock);
  return textures_.erase(handle) > 0
             ? Status::ok()
             : Status::not_found("no such texture");
}

bool GpuDevice::texture_valid(TextureHandle handle) const {
  std::lock_guard lock(mutex_);
  return textures_.find(handle) != textures_.end();
}

StatusOr<TextureView> GpuDevice::texture_view(TextureHandle handle) {
  std::unique_lock lock(mutex_);
  settle_locked(lock);
  auto it = textures_.find(handle);
  if (it == textures_.end()) return Status::not_found("no such texture");
  const Texture& texture = it->second;
  return TextureView{texture.texels, texture.width, texture.height,
                     texture.stride_px};
}

RenderTargetHandle GpuDevice::create_target(int width, int height,
                                            bool with_depth) {
  core::Session::check_access(owner_, core::SessionLayer::kGpu);
  std::lock_guard lock(mutex_);
  const RenderTargetHandle handle = next_handle_++;
  Target target;
  target.width = width;
  target.height = height;
  target.stride_px = width;
  target.owned_color.assign(static_cast<std::size_t>(width) * height,
                            0xff000000u);
  target.color = target.owned_color.data();
  if (with_depth) {
    target.depth.assign(static_cast<std::size_t>(width) * height, 1.f);
  }
  targets_.emplace(handle, std::move(target));
  return handle;
}

RenderTargetHandle GpuDevice::create_target_external(std::uint32_t* color,
                                                     int width, int height,
                                                     int stride_px,
                                                     bool with_depth) {
  std::lock_guard lock(mutex_);
  const RenderTargetHandle handle = next_handle_++;
  Target target;
  target.width = width;
  target.height = height;
  target.stride_px = stride_px;
  target.color = color;
  if (with_depth) {
    target.depth.assign(static_cast<std::size_t>(width) * height, 1.f);
  }
  targets_.emplace(handle, std::move(target));
  return handle;
}

Status GpuDevice::destroy_target(RenderTargetHandle handle) {
  std::unique_lock lock(mutex_);
  settle_locked(lock);
  return targets_.erase(handle) > 0 ? Status::ok()
                                    : Status::not_found("no such target");
}

TargetView GpuDevice::target_view_locked(const Target& target) {
  TargetView view;
  view.color = target.color;
  view.depth = target.depth.empty()
                   ? nullptr
                   : const_cast<float*>(target.depth.data());
  view.width = target.width;
  view.height = target.height;
  view.stride_px = target.stride_px;
  return view;
}

StatusOr<TargetView> GpuDevice::target_view(RenderTargetHandle handle) {
  std::unique_lock lock(mutex_);
  settle_locked(lock);
  auto it = targets_.find(handle);
  if (it == targets_.end()) return Status::not_found("no such target");
  return target_view_locked(it->second);
}

void GpuDevice::submit_clear(RenderTargetHandle target,
                             std::optional<ScissorRect> scissor,
                             bool clear_color, Color color, bool clear_depth,
                             float depth_value) {
  std::unique_lock lock(mutex_);
  record_locked(lock, ClearCommand{target, scissor, clear_color, color,
                                   clear_depth, depth_value});
}

void GpuDevice::submit_draw(RenderTargetHandle target, RasterState state,
                            PrimitiveKind kind,
                            std::vector<ShadedVertex> vertices) {
  std::unique_lock lock(mutex_);
  record_locked(lock, DrawCommand{target, std::move(state), kind,
                                  std::move(vertices)});
}

void GpuDevice::record_locked(std::unique_lock<std::mutex>& lock,
                              Command command) {
  queue_.push_back(std::move(command));
  if (queue_.size() < kKickBatchSize) return;
  if (!TileWorkerPool::instance().async_capable()) {
    settle_locked(lock);
  } else if (!in_flight_) {
    // Kick the partial batch to the pool; with a frame in flight keep
    // recording instead (the queue is the second buffer of the
    // double-buffered pair).
    submit_frame_locked(lock);
  }
}

FenceHandle GpuDevice::submit_fence() {
  std::lock_guard lock(mutex_);
  const FenceHandle fence = next_handle_++;
  fences_.emplace(fence, false);
  queue_.push_back(FenceCommand{fence});
  return fence;
}

bool GpuDevice::fence_signaled(FenceHandle fence) {
  std::lock_guard lock(mutex_);
  auto it = fences_.find(fence);
  return it != fences_.end() && it->second;
}

bool GpuDevice::wait_fence(FenceHandle fence,
                           std::optional<std::int64_t> budget_ms) {
  static trace::Counter& timeouts = trace::MetricsRegistry::instance().counter(
      "watchdog.present.timeouts");
  std::unique_lock lock(mutex_);
  auto it = fences_.find(fence);
  if (it == fences_.end() || it->second) return true;
  // The fence is either in the in-flight frame or still in the record
  // queue; waiting out the former may already signal it. The deadline is
  // this wait's only supervision: past it the frame is still in flight,
  // and the caller scans out the stale front buffer and drops this frame.
  if (!drain_in_flight_locked(lock, budget_ms)) {
    timeouts.add();
    return false;
  }
  it = fences_.find(fence);
  if (it == fences_.end() || it->second) return true;
  // The fence is still in the record queue; synchronous execution on this
  // thread always terminates, so it does not need its own deadline.
  settle_locked(lock);
  return true;
}

void GpuDevice::submit_frame() {
  core::Session::check_access(owner_, core::SessionLayer::kGpu);
  std::unique_lock lock(mutex_);
  submit_frame_locked(lock);
}

void GpuDevice::flush() {
  std::unique_lock lock(mutex_);
  settle_locked(lock);
}

bool GpuDevice::drain_in_flight_locked(std::unique_lock<std::mutex>& lock,
                                       std::optional<std::int64_t> budget_ms) {
  // Sliced rather than indefinite: the in-flight frame always terminates
  // (bounded polls in the pool, finite injected stalls), so the slices are
  // about staying inspectable — a missed notify can delay retire detection
  // by one slice, never hang it.
  const std::int64_t deadline =
      budget_ms ? now_ns() + *budget_ms * 1000000 : 0;
  while (in_flight_) {
    if (budget_ms && now_ns() >= deadline) return false;
    retire_cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
  return true;
}

void GpuDevice::settle_locked(std::unique_lock<std::mutex>& lock) {
  drain_in_flight_locked(lock);
  if (queue_.empty()) return;
  std::unique_ptr<FrameBatch> batch = resolve_batch_locked();
  // Execute on this thread while holding the device lock; the pool's
  // helpers may still join tile phases.
  execute_frame(*batch);
  apply_result_locked(batch->result);
}

std::unique_ptr<FrameBatch> GpuDevice::resolve_batch_locked() {
  auto batch = std::make_unique<FrameBatch>();
  batch->steps.reserve(queue_.size());
  for (Command& command : queue_) {
    if (auto* clear = std::get_if<ClearCommand>(&command)) {
      auto it = targets_.find(clear->target);
      if (it == targets_.end()) continue;
      FrameStep step;
      step.kind = FrameStep::Kind::kClear;
      step.target = target_view_locked(it->second);
      step.scissor = clear->scissor;
      step.clear_color = clear->clear_color;
      step.color = clear->color;
      step.clear_depth = clear->clear_depth;
      step.depth_value = clear->depth_value;
      batch->steps.push_back(std::move(step));
    } else if (auto* draw = std::get_if<DrawCommand>(&command)) {
      auto it = targets_.find(draw->target);
      if (it == targets_.end()) continue;
      FrameStep step;
      step.kind = FrameStep::Kind::kDraw;
      step.target = target_view_locked(it->second);
      step.state = std::move(draw->state);
      step.prim_kind = draw->kind;
      step.vertices = std::move(draw->vertices);
      if (step.state.texture != kNoHandle) {
        auto texture_it = textures_.find(step.state.texture);
        if (texture_it != textures_.end()) {
          const Texture& t = texture_it->second;
          step.texture = TextureView{t.texels, t.width, t.height, t.stride_px};
        }
      }
      batch->steps.push_back(std::move(step));
    } else if (auto* fence = std::get_if<FenceCommand>(&command)) {
      FrameStep step;
      step.kind = FrameStep::Kind::kFence;
      step.fence = fence->fence;
      batch->steps.push_back(std::move(step));
    }
  }
  queue_.clear();
  return batch;
}

void GpuDevice::apply_result_locked(const FrameResult& result) {
  stats_.draw_commands += result.draw_commands;
  stats_.clear_commands += result.clear_commands;
  stats_.fragments_shaded += result.fragments_shaded;
  stats_.triangles += result.triangles;
  for (const FenceHandle fence : result.signaled_fences) {
    fences_[fence] = true;
    ++stats_.fences_signaled;
  }
}

void GpuDevice::submit_frame_locked(std::unique_lock<std::mutex>& lock) {
  TileWorkerPool& pool = TileWorkerPool::instance();
  if (!pool.async_capable()) {
    settle_locked(lock);
    return;
  }
  // Double buffering: at most one frame of this device in flight; the
  // record queue is the second buffer. A second submit while one is
  // executing waits for retire, never for other devices' frames.
  drain_in_flight_locked(lock);
  if (queue_.empty()) return;
  std::unique_ptr<FrameBatch> batch = resolve_batch_locked();
  in_flight_ = true;
  // The frame runs under its app's session; a directly constructed device
  // has no owner, so its frames run under the submitter's.
  pool.submit_async(owner_ != nullptr ? *owner_ : core::Session::current(),
                    std::move(batch),
                    [this](std::unique_ptr<FrameBatch> done) {
                      std::lock_guard retire_lock(mutex_);
                      apply_result_locked(done->result);
                      in_flight_ = false;
                      retire_cv_.notify_all();
                    });
}

Status GpuDevice::read_pixels(RenderTargetHandle target, int x, int y,
                              int width, int height, std::uint32_t* out,
                              int out_stride_px) {
  std::unique_lock lock(mutex_);
  settle_locked(lock);
  auto it = targets_.find(target);
  if (it == targets_.end()) return Status::not_found("no such target");
  const Target& t = it->second;
  if (out == nullptr || x < 0 || y < 0 || width < 0 || height < 0 ||
      x + width > t.width || y + height > t.height) {
    return Status::out_of_range("read region outside target");
  }
  for (int row = 0; row < height; ++row) {
    std::memcpy(out + static_cast<std::size_t>(row) * out_stride_px,
                t.color + static_cast<std::size_t>(y + row) * t.stride_px + x,
                static_cast<std::size_t>(width) * sizeof(std::uint32_t));
  }
  return Status::ok();
}

GpuStats GpuDevice::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t GpuDevice::pending_commands() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace cycada::gpu
