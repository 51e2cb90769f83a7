#include "android_gl/surface_flinger.h"

#include "core/session.h"

#include <algorithm>
#include <vector>

#include "trace/metrics.h"
#include "trace/trace.h"
#include "util/clock.h"

namespace cycada::android_gl {

namespace {
// 60 Hz display budget; a composition that exceeds it counts as a dropped
// frame (the scanout would have missed its vsync).
constexpr std::int64_t kFrameBudgetNs = 16'666'667;
}  // namespace

SurfaceFlinger& SurfaceFlinger::instance() {
  // Per-session compositor facet: each session composes its own layer set.
  // Default-session facets are immortal.
  return core::Session::current().facet<SurfaceFlinger>(+[] {
    SurfaceFlinger* flinger = new SurfaceFlinger();
    flinger->owner_ = core::Session::constructing_owner();
    return flinger;
  });
}

void SurfaceFlinger::reset() {
  std::lock_guard lock(mutex_);
  layers_.clear();
  next_id_ = 1;
}

SurfaceFlinger::LayerId SurfaceFlinger::add_layer(EglSurface* surface, int x,
                                                  int y, int z_order,
                                                  float alpha) {
  core::Session::check_access(owner_, core::SessionLayer::kSurface);
  std::lock_guard lock(mutex_);
  const LayerId id = next_id_++;
  layers_[id] = Layer{surface, x, y, z_order, std::clamp(alpha, 0.f, 1.f)};
  return id;
}

Status SurfaceFlinger::remove_layer(LayerId id) {
  std::lock_guard lock(mutex_);
  return layers_.erase(id) > 0 ? Status::ok()
                               : Status::not_found("no such layer");
}

Status SurfaceFlinger::set_layer_position(LayerId id, int x, int y) {
  std::lock_guard lock(mutex_);
  auto it = layers_.find(id);
  if (it == layers_.end()) return Status::not_found("no such layer");
  it->second.x = x;
  it->second.y = y;
  return Status::ok();
}

Status SurfaceFlinger::set_layer_alpha(LayerId id, float alpha) {
  std::lock_guard lock(mutex_);
  auto it = layers_.find(id);
  if (it == layers_.end()) return Status::not_found("no such layer");
  it->second.alpha = std::clamp(alpha, 0.f, 1.f);
  return Status::ok();
}

std::size_t SurfaceFlinger::layer_count() const {
  std::lock_guard lock(mutex_);
  return layers_.size();
}

Image SurfaceFlinger::compose(int display_width, int display_height) {
  TRACE_SCOPE("frame", "SurfaceFlinger.compose");
  core::Session::check_access(owner_, core::SessionLayer::kSurface);
  const std::int64_t start_ns = now_ns();
  std::vector<Layer> ordered;
  {
    std::lock_guard lock(mutex_);
    ordered.reserve(layers_.size());
    for (const auto& [id, layer] : layers_) {
      if (layer.surface != nullptr) ordered.push_back(layer);
    }
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Layer& a, const Layer& b) {
                     return a.z_order < b.z_order;
                   });

  Image display(display_width, display_height, 0xff000000u);
  for (const Layer& layer : ordered) {
    // front_buffer() waits the layer's present fence: composition is gated
    // on the frame's raster work having retired, never on work still being
    // recorded — the pipeline's overlap never shows a half-rastered frame.
    const gmem::GraphicBuffer& front = layer.surface->front_buffer();
    auto* pixels = const_cast<gmem::GraphicBuffer&>(front).pixels32();
    const int width = layer.surface->width();
    const int height = layer.surface->height();
    for (int sy = 0; sy < height; ++sy) {
      const int dy = layer.y + sy;
      if (dy < 0 || dy >= display_height) continue;
      for (int sx = 0; sx < width; ++sx) {
        const int dx = layer.x + sx;
        if (dx < 0 || dx >= display_width) continue;
        const std::uint32_t src =
            pixels[static_cast<std::size_t>(sy) * front.stride_px() + sx];
        if (layer.alpha >= 1.f) {
          display.at(dx, dy) = src;
        } else {
          // Plane-alpha blend, HW Composer style.
          const Color s = unpack_rgba8888(src);
          const Color d = unpack_rgba8888(display.at(dx, dy));
          const float a = layer.alpha;
          display.at(dx, dy) = pack_rgba8888(
              Color{s.r * a + d.r * (1 - a), s.g * a + d.g * (1 - a),
                    s.b * a + d.b * (1 - a), 1.f});
        }
      }
    }
  }

  trace::MetricsRegistry& metrics = trace::MetricsRegistry::instance();
  static trace::Counter& frames = metrics.counter("frame.composed");
  static trace::Counter& dropped = metrics.counter("frame.dropped");
  static trace::Histogram& compose_ns = metrics.histogram("frame.compose_ns");
  static trace::Histogram& stage_compose_ns =
      metrics.histogram("pipeline.stage.compose_ns");
  const std::int64_t elapsed_ns = now_ns() - start_ns;
  frames.add();
  compose_ns.record(elapsed_ns);
  stage_compose_ns.record(elapsed_ns);
  if (elapsed_ns > kFrameBudgetNs) dropped.add();
  return display;
}

}  // namespace cycada::android_gl
