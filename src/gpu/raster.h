// The scan-line rasterizer at the bottom of the software GPU. Operates on
// raw color/depth buffer views; GpuDevice owns resource lookup and hands the
// rasterizer plain spans.
//
// The rasterizer is split into the two stages the tile pipeline needs
// (docs/PIPELINE.md). build_screen_prims() runs the vertex post-processing
// once per draw on the binning thread: near-plane clip, perspective divide,
// viewport transform, and for triangles the snap of each vertex to 1/256 px,
// the guard-band clip, culling on the snapped area's sign, orientation to
// positive area and the pixel bounding box. raster_screen_prim() shades one
// primitive clamped to an arbitrary pixel rect — a 64x64 tile in the
// parallel path, the whole target in the serial façade.
//
// Triangles are fixed point. Edge functions over the snapped vertices are
// exact int64 values (the guard band keeps them far from overflow), and a
// center exactly on an edge belongs to the one triangle whose positively
// oriented edge runs down the screen (or rightwards when horizontal), so
// triangles sharing an edge cover each pixel once. Each row's covered span
// [lo, hi) comes from three integer divisions; no pixel outside the triangle
// is evaluated. Attributes are plane equations built from the snapped
// positions: z is linear in screen space; color and texcoords are affine
// when the three 1/w are equal, otherwise perspective-correct through planes
// of f/w and 1/w with one reciprocal per pixel; an attribute equal at all
// three vertices is that exact value.
//
// Determinism: edge values are exact integers, and every per-pixel value is
// a pure function of (x, y) and the primitive — a per-row base plus
// dx * (x - xref), where xref is the primitive's own bounding-box corner,
// never accumulated across pixels or from a tile's origin. So rasterizing a
// primitive tile-by-tile produces bytes identical to scanning the whole
// target, which is what makes N-worker output byte-equal to single-threaded
// output.
//
// The fragment loop is chosen once per draw (prepare_draw, after
// glSoftPipe's validateState/prepareToDraw): a span function specialized on
// the depth test, the texture (none, nearest or linear; replace or
// modulate), affine or perspective varyings and the output (plain write,
// SrcAlpha/OneMinusSrcAlpha blend, or any blend and color mask). Lines and
// points keep their step walks and shade through the same specialization.
//
// The fragment stage shades a color's four channels at once, as four float
// lanes (SSE2 on x86-64). Each lane runs the operations of the per-channel
// scalar rules (pixel.h's unpack_rgba8888 and pack_rgba8888, and Color's
// arithmetic) in the same order, and the library compiles with
// -ffp-contract=off, so no multiply and add fuse on a target with FMA: the
// bytes are the scalar rules' bytes whatever -march says. A bilinear sample
// keeps the four texels it last unpacked, keyed by the texel (x0, y0) it
// starts at, for the rest of its span: the span's next pixels between the
// same four texels reuse them (three pixels of four at 4x magnification),
// still interpolating horizontally, then vertically. A span whose pixels
// the texture's memory may hold (framebuffer feedback) reads every
// sample's texels afresh.
//
// The affine replace-texture loops with a plain write and no depth test
// first test each span: when v is constant along the row and every pixel
// x provably samples texel (x + k, row) unchanged — nearest samples that
// stay inside their texels, or linear samples exactly on texel centers —
// and the source texels do not overlap the span's pixels, the span is one
// row copy of those texels. The bytes equal the per-pixel loop's, so the
// copy is also a pure function of the span. Any other span runs the loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gpu/types.h"

namespace cycada::gpu {

// A writable color target (RGBA8888) with an optional depth buffer. `color`
// may alias externally-owned memory (GraphicBuffer / IOSurface zero-copy).
struct TargetView {
  std::uint32_t* color = nullptr;
  float* depth = nullptr;  // null when the target has no depth buffer
  int width = 0;
  int height = 0;
  int stride_px = 0;  // row pitch of `color` in pixels
};

// A readable texture (RGBA8888 working format).
struct TextureView {
  const std::uint32_t* texels = nullptr;
  int width = 0;
  int height = 0;
  int stride_px = 0;
};

// A vertex after perspective divide and viewport transform.
struct ScreenVertex {
  float x, y, z;  // window coordinates
  float inv_w;    // 1/w for perspective-correct interpolation
  Color color;
  Vec2 texcoord;
};

// An inclusive-exclusive pixel rect (tile bounds, clip bounds, bboxes).
struct PixelRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  bool empty() const { return x0 >= x1 || y0 >= y1; }
};

inline PixelRect intersect(const PixelRect& a, const PixelRect& b) {
  return PixelRect{std::max(a.x0, b.x0), std::max(a.y0, b.y0),
                   std::min(a.x1, b.x1), std::min(a.y1, b.y1)};
}

// Triangle vertices snap to 1/2^kSubpixelBits px.
inline constexpr int kSubpixelBits = 8;
// Window coordinates a snapped triangle vertex may take, in px either side
// of the origin. Triangles reaching past it are clipped in clip space
// first, so edge products stay below 2^59.
inline constexpr float kGuardBandPx = 1 << 20;

// One post-transform primitive, ready to rasterize. `bbox` is the pixel
// footprint already clamped to the draw's viewport/scissor clip bounds; the
// binner intersects it with tile rects to decide coverage. A triangle's
// vertices are ordered to positive snapped area.
struct ScreenPrim {
  PrimitiveKind kind = PrimitiveKind::kTriangles;
  ScreenVertex v[3];  // triangles use 3, lines 2, points 1
  std::int32_t sx[3] = {}, sy[3] = {};  // triangles: snapped positions
  PixelRect bbox;
};

struct TriangleSetup;  // raster.cpp: edges and attribute planes

// What shading some primitives did.
struct RasterCounts {
  std::uint64_t fragments = 0;     // fragments shaded, copied ones included
  std::uint64_t spans_copied = 0;  // spans written as one texel row copy
  RasterCounts& operator+=(const RasterCounts& other) {
    fragments += other.fragments;
    spans_copied += other.spans_copied;
    return *this;
  }
};

// The fragment work of one draw, chosen once from its RasterState and
// texture. Triangles run one of the two span loops per row; lines and points
// call `fragment` per pixel.
struct DrawProgram {
  using SpanFn = RasterCounts (*)(const DrawProgram&, const TargetView&,
                                  const TriangleSetup&, int y, int x0, int x1);
  using FragmentFn = bool (*)(const DrawProgram&, const TargetView&, int x,
                              int y, float z, Color color, Vec2 uv);
  // A blend factor as constant + sa * src alpha + da * dst alpha + s * the
  // source component, so no pixel loop switches on BlendFactor.
  struct BlendTerm {
    float constant = 0.f, sa = 0.f, da = 0.f, s = 0.f;
  };

  SpanFn affine_span = nullptr;
  SpanFn perspective_span = nullptr;
  FragmentFn fragment = nullptr;
  TextureView texture;  // a 1x1 white texel stands in for an empty texture
  TextureWrap wrap = TextureWrap::kRepeat;
  bool depth_test = false;
  bool depth_write = true;
  std::uint8_t depth_pass = 0;  // outcomes of the depth compare that pass
  bool uses_color = true;       // the loops read interpolated color
  bool uses_uv = false;         // ... and texcoords
  BlendTerm src, dst;           // kGeneric output only
  bool keep_dst[4] = {};        // color-masked channels
  int point_half = 0;
};

// The viewport ∩ scissor ∩ target rect a draw may touch.
PixelRect clip_rect(const TargetView& target, const RasterState& state);

// Chooses the draw's fragment loops. A modulated texture under a vertex
// color that is exactly white at every vertex runs as replace.
DrawProgram prepare_draw(const RasterState& state, TextureView texture,
                         std::span<const ShadedVertex> vertices);

// Vertex post-processing for one draw call (see the header comment).
// Appends to `out`; returns the number of triangles the near-plane and
// guard-band clips emitted, culled and zero-area ones included (the device
// triangle counter). Primitives with a non-finite window position are
// dropped, and so are lines and points past the guard band.
std::uint64_t build_screen_prims(const TargetView& target,
                                 const RasterState& state, PrimitiveKind kind,
                                 std::span<const ShadedVertex> vertices,
                                 std::vector<ScreenPrim>& out);

// Shades one primitive restricted to `limit` (already intersected with the
// target; fragments outside it are not touched). Pure function of its
// arguments — safe to call concurrently for disjoint `limit` rects of the
// same target.
RasterCounts raster_screen_prim(const TargetView& target,
                                const DrawProgram& program,
                                const ScreenPrim& prim,
                                const PixelRect& limit);

// Clears color and/or depth inside scissor ∩ `limit`.
void clear_rect(const TargetView& target,
                const std::optional<ScissorRect>& scissor, bool clear_color,
                Color color, bool clear_depth, float depth_value,
                const PixelRect& limit);

// Serial façade over the two stages: the whole target as one limit, the
// reference the tiled path must match byte-for-byte.
class Rasterizer {
 public:
  // Draws vertices (grouped 3/2/1 per primitive by `kind`) under `state`.
  // `texture.texels == nullptr` means untextured. Returns fragments shaded.
  std::uint64_t draw(TargetView target, const RasterState& state,
                     PrimitiveKind kind, std::span<const ShadedVertex> vertices,
                     TextureView texture);

  // Clears color and/or depth, honoring the scissor.
  void clear(TargetView target, const std::optional<ScissorRect>& scissor,
             bool clear_color, Color color, bool clear_depth,
             float depth_value);

  std::uint64_t triangles_submitted() const { return triangles_; }
  std::uint64_t spans_copied() const { return spans_copied_; }

 private:
  std::uint64_t triangles_ = 0;
  std::uint64_t spans_copied_ = 0;
};

}  // namespace cycada::gpu
