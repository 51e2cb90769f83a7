#include "gpu/raster.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cycada::gpu {

namespace {

constexpr float kNearEpsilon = 1e-6f;
constexpr int kSubpixelScale = 1 << kSubpixelBits;
constexpr int kHalfSubpixel = kSubpixelScale / 2;  // a pixel center's offset
// A triangle reaching past the guard band is clipped to half of it, so
// clip-space rounding cannot carry a vertex back out.
constexpr float kGuardClipPx = kGuardBandPx / 2;
// A clipped triangle: 3 vertices plus at most one per clip plane (the near
// plane and the four guard planes).
constexpr int kMaxPolygon = 8;
// The smallest interpolated 1/w a perspective pixel divides by, so float
// rounding at a far edge never divides by zero or a negative.
constexpr float kMinInvW = std::numeric_limits<float>::min();
// Texel coordinates saturate here before conversion to int.
constexpr float kTexelCoordLimit = 1 << 30;
// The largest texture size and pixel offset from xref a span copy accepts.
// Up to them a nearest sample's three float roundings move it by under 1/64
// texel, and a linear sample's coordinates are exact floats.
constexpr int kCopyCoordLimit = 1 << 16;

std::int64_t floor_div(std::int64_t n, std::int64_t d) {  // d > 0
  const std::int64_t q = n / d;
  return (n % d != 0 && n < 0) ? q - 1 : q;
}

std::int64_t ceil_div(std::int64_t n, std::int64_t d) {  // d > 0
  const std::int64_t q = n / d;
  return (n % d != 0 && n > 0) ? q + 1 : q;
}

// Twice the signed area of a triangle's snapped vertices, in snapped units.
std::int64_t snapped_area(const ScreenPrim& prim) {
  return (std::int64_t{prim.sx[1]} - prim.sx[0]) *
             (std::int64_t{prim.sy[2]} - prim.sy[0]) -
         (std::int64_t{prim.sy[1]} - prim.sy[0]) *
             (std::int64_t{prim.sx[2]} - prim.sx[0]);
}

}  // namespace

// Per-triangle setup, built in the tile worker from the binned primitive.
struct TriangleSetup {
  // value(x, y) = row(y) + dx * (x - xref) for pixel (x, y)'s center.
  struct Plane {
    double at_row0 = 0.0;  // value at pixel (xref, 0)
    double dy = 0.0;
    float dx = 0.f;
    float row(int y) const { return static_cast<float>(at_row0 + dy * y); }
  };

  // Edge k runs from vertex k to k + 1. A pixel center P, in snapped units,
  // is covered when a * P.x + b * P.y + c >= 0 for all three; c carries the
  // fill rule's -1 on edges that do not own their boundary.
  std::int64_t a[3] = {}, b[3] = {}, c[3] = {};
  int xref = 0;
  bool perspective = false;  // attr planes hold f/w, w holds 1/w
  Plane z, w;
  Plane attr[6];           // r, g, b, a, u, v
  float constant[6] = {};  // perspective: a flat attribute's value

  // The covered pixels [lo, hi) of row y within [x0, x1); false if none.
  bool span(int y, int x0, int x1, int& lo, int& hi) const {
    const std::int64_t py =
        (static_cast<std::int64_t>(y) << kSubpixelBits) + kHalfSubpixel;
    std::int64_t first = x0;
    std::int64_t end = x1;
    for (int k = 0; k < 3; ++k) {
      // At pixel x the edge reads slope * x + at0.
      const std::int64_t slope = a[k] * kSubpixelScale;
      const std::int64_t at0 = a[k] * kHalfSubpixel + b[k] * py + c[k];
      if (slope > 0) {
        first = std::max(first, ceil_div(-at0, slope));
      } else if (slope < 0) {
        end = std::min(end, floor_div(at0, -slope) + 1);
      } else if (at0 < 0) {
        return false;
      }
    }
    if (first >= end) return false;
    lo = static_cast<int>(first);
    hi = static_cast<int>(end);
    return true;
  }
};

namespace {

// --- Fragment stage ----------------------------------------------------------

enum DepthOutcome : std::uint8_t {
  kDepthLess = 1,
  kDepthEqual = 2,
  kDepthGreater = 4,
  kDepthUnordered = 8,  // a NaN on either side
};

std::uint8_t depth_pass_mask(DepthFunc func) {
  switch (func) {
    case DepthFunc::kNever: return 0;
    case DepthFunc::kLess: return kDepthLess;
    case DepthFunc::kEqual: return kDepthEqual;
    case DepthFunc::kLessEqual: return kDepthLess | kDepthEqual;
    case DepthFunc::kGreater: return kDepthGreater;
    case DepthFunc::kNotEqual:
      return kDepthLess | kDepthGreater | kDepthUnordered;
    case DepthFunc::kGreaterEqual: return kDepthGreater | kDepthEqual;
    case DepthFunc::kAlways: break;
  }
  return kDepthLess | kDepthEqual | kDepthGreater | kDepthUnordered;
}

inline bool depth_test(const DrawProgram& p, float z, float* slot) {
  const float stored = *slot;
  const unsigned outcome = z < stored    ? kDepthLess
                           : z == stored ? kDepthEqual
                           : z > stored  ? kDepthGreater
                                         : kDepthUnordered;
  if ((outcome & p.depth_pass) == 0) return false;
  if (p.depth_write) *slot = z;
  return true;
}

DrawProgram::BlendTerm blend_term(BlendFactor factor) {
  switch (factor) {
    case BlendFactor::kZero: return {};
    case BlendFactor::kOne: return {1.f, 0.f, 0.f, 0.f};
    case BlendFactor::kSrcAlpha: return {0.f, 1.f, 0.f, 0.f};
    case BlendFactor::kOneMinusSrcAlpha: return {1.f, -1.f, 0.f, 0.f};
    case BlendFactor::kDstAlpha: return {0.f, 0.f, 1.f, 0.f};
    case BlendFactor::kOneMinusDstAlpha: return {1.f, 0.f, -1.f, 0.f};
    case BlendFactor::kSrcColor: return {0.f, 0.f, 0.f, 1.f};
    case BlendFactor::kOneMinusSrcColor: return {1.f, 0.f, 0.f, -1.f};
  }
  return {1.f, 0.f, 0.f, 0.f};
}

// floor(v) as an int for any float; NaN and far-out values saturate.
inline int floor_to_int(float v) {
  v = v > -kTexelCoordLimit ? v : -kTexelCoordLimit;
  v = v < kTexelCoordLimit ? v : kTexelCoordLimit;
  const int truncated = static_cast<int>(v);
  return static_cast<float>(truncated) > v ? truncated - 1 : truncated;
}

// Wraps a texel coordinate only when it is out of range.
inline int wrap_texel(int coord, int size, TextureWrap wrap) {
  if (static_cast<unsigned>(coord) < static_cast<unsigned>(size)) return coord;
  if (wrap == TextureWrap::kRepeat) {
    coord %= size;
    return coord < 0 ? coord + size : coord;
  }
  return coord < 0 ? 0 : size - 1;
}

inline std::uint32_t texel(const DrawProgram& p, int x, int y) {
  const TextureView& t = p.texture;
  x = wrap_texel(x, t.width, p.wrap);
  y = wrap_texel(y, t.height, p.wrap);
  return t.texels[static_cast<std::size_t>(y) * t.stride_px + x];
}

inline std::uint32_t sample_nearest(const DrawProgram& p, Vec2 uv) {
  return texel(p, floor_to_int(uv.x * p.texture.width),
               floor_to_int(uv.y * p.texture.height));
}

// A color as four float lanes: r, g, b, a in lanes 0 to 3. Its + and * are
// the compiler's lane-wise vector arithmetic. Every expression on it runs,
// in each lane, the scalar Color code's operations in that code's order,
// and the library builds with -ffp-contract=off, so no multiply and add
// fuse: each byte packed equals the scalar result. unpack and pack are
// pixel.h's unpack_rgba8888 and pack_rgba8888 in SSE2, which every x86-64
// compiler targets without a flag; a target without SSE2 runs them per lane.
using Rgba = float __attribute__((vector_size(16)));

inline Rgba splat(float v) { return Rgba{v, v, v, v}; }

inline Rgba unpack(std::uint32_t word) {
#if defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(word));
  const __m128i ints =
      _mm_unpacklo_epi16(_mm_unpacklo_epi8(bytes, zero), zero);
  return _mm_cvtepi32_ps(ints) * splat(1.f / 255.f);
#else
  const Color c = unpack_rgba8888(word);
  return Rgba{c.r, c.g, c.b, c.a};
#endif
}

inline std::uint32_t pack(Rgba c) {
#if defined(__SSE2__)
  // max(v, 0) is v > 0 ? v : 0, so a NaN lane packs as 0.
  const __m128 clamped =
      _mm_min_ps(_mm_max_ps(c, _mm_setzero_ps()), splat(1.f));
  const __m128i ints = _mm_cvttps_epi32(clamped * splat(255.f) + splat(0.5f));
  const __m128i words = _mm_packs_epi32(ints, ints);
  return static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm_packus_epi16(words, words)));
#else
  return pack_rgba8888({c[0], c[1], c[2], c[3]});
#endif
}

// a * (1 - t) + b * t.
inline Rgba lerp(Rgba a, Rgba b, float t) {
  return a * splat(1.f - t) + b * splat(t);
}

// The four texels a bilinear sample reads, unpacked, keyed by the texel
// (x0, y0) they start at. Neighbouring pixels of a magnified span read the
// same four, so a span loop keeps one and reuses its texels while the key
// repeats. A span whose pixels the texture's memory may hold (framebuffer
// feedback) never reuses them: a pixel it writes may be one of them.
struct BilinearTexels {
  int x0 = 0, y0 = 0;
  bool valid = false;
  bool reuse = true;
  Rgba c00{}, c10{}, c01{}, c11{};
};

// Interpolates horizontally, then vertically.
inline Rgba sample_linear(const DrawProgram& p, Vec2 uv,
                          BilinearTexels& texels) {
  const TextureView& t = p.texture;
  const float fx = uv.x * t.width - 0.5f;
  const float fy = uv.y * t.height - 0.5f;
  const int x0 = floor_to_int(fx);
  const int y0 = floor_to_int(fy);
  if (!(texels.valid && x0 == texels.x0 && y0 == texels.y0)) {
    const int left = wrap_texel(x0, t.width, p.wrap);
    const int right = wrap_texel(x0 + 1, t.width, p.wrap);
    const std::uint32_t* top =
        t.texels +
        static_cast<std::size_t>(wrap_texel(y0, t.height, p.wrap)) *
            t.stride_px;
    const std::uint32_t* bottom =
        t.texels +
        static_cast<std::size_t>(wrap_texel(y0 + 1, t.height, p.wrap)) *
            t.stride_px;
    texels.c00 = unpack(top[left]);
    texels.c10 = unpack(top[right]);
    texels.c01 = unpack(bottom[left]);
    texels.c11 = unpack(bottom[right]);
    texels.x0 = x0;
    texels.y0 = y0;
    texels.valid = texels.reuse;
  }
  const float tx = fx - static_cast<float>(x0);
  const float ty = fy - static_cast<float>(y0);
  return lerp(lerp(texels.c00, texels.c10, tx),
              lerp(texels.c01, texels.c11, tx), ty);
}

// Whether the texture's memory overlaps pixels [pixels, pixels + n).
bool samples_own_pixels(const TextureView& t, const std::uint32_t* pixels,
                        int n) {
  const std::uint32_t* end =
      t.texels + static_cast<std::size_t>(t.height - 1) * t.stride_px +
      t.width;
  return t.texels < pixels + n && pixels < end;
}

// What a draw samples and how the texel meets the vertex color.
enum class Tex : std::uint8_t {
  kNone,
  kNearestReplace,
  kNearestModulate,
  kLinearReplace,
  kLinearModulate,
};

// How the fragment reaches the framebuffer.
enum class Out : std::uint8_t {
  kWrite,       // no blend, no color mask
  kAlphaBlend,  // SrcAlpha / OneMinusSrcAlpha, no color mask
  kGeneric,     // any blend factors and/or a color mask
};

constexpr bool reads_color(Tex tex) {
  return tex == Tex::kNone || tex == Tex::kNearestModulate ||
         tex == Tex::kLinearModulate;
}

constexpr bool reads_uv(Tex tex) { return tex != Tex::kNone; }

constexpr bool filters_linear(Tex tex) {
  return tex == Tex::kLinearReplace || tex == Tex::kLinearModulate;
}

// Texturing, blending and write-back of one fragment that passed its depth
// test. Reads and writes only `pixel`, so concurrent calls on disjoint pixel
// rects of the same target never race.
template <Tex kTex, Out kOut>
inline void shade(const DrawProgram& p, std::uint32_t* pixel, Rgba color,
                  Vec2 uv, BilinearTexels& texels) {
  if constexpr (kTex == Tex::kNearestReplace && kOut == Out::kWrite) {
    // pack(unpack(t)) == t for every channel value: the texel word is the
    // result.
    *pixel = sample_nearest(p, uv);
  } else {
    Rgba src;
    if constexpr (kTex == Tex::kNone) {
      src = color;
    } else if constexpr (kTex == Tex::kNearestReplace) {
      src = unpack(sample_nearest(p, uv));
    } else if constexpr (kTex == Tex::kNearestModulate) {
      src = unpack(sample_nearest(p, uv)) * color;
    } else if constexpr (kTex == Tex::kLinearReplace) {
      src = sample_linear(p, uv, texels);
    } else {
      src = sample_linear(p, uv, texels) * color;
    }
    if constexpr (kOut == Out::kWrite) {
      *pixel = pack(src);
    } else if constexpr (kOut == Out::kAlphaBlend) {
      const float sa = src[3];
      *pixel = pack(src * splat(sa) + unpack(*pixel) * splat(1.f - sa));
    } else {
      const Rgba dst = unpack(*pixel);
      const float sa = src[3];
      const float da = dst[3];
      // constant + sa * src alpha + da * dst alpha + s * the source lane.
      const auto factor = [&](const DrawProgram::BlendTerm& term) {
        return splat(term.constant + term.sa * sa + term.da * da) +
               splat(term.s) * src;
      };
      Rgba out = src * factor(p.src) + dst * factor(p.dst);
      for (int i = 0; i < 4; ++i) {
        if (p.keep_dst[i]) out[i] = dst[i];
      }
      *pixel = pack(out);
    }
  }
}

// One fragment of a line or point, with its varyings already interpolated.
template <bool kDepth, Tex kTex, Out kOut>
bool shade_fragment(const DrawProgram& p, const TargetView& target, int x,
                    int y, float z, Color color, Vec2 uv) {
  if constexpr (kDepth) {
    if (!depth_test(p, z,
                    &target.depth[static_cast<std::size_t>(y) * target.width +
                                  x])) {
      return false;
    }
  }
  BilinearTexels texels;
  shade<kTex, kOut>(
      p, &target.color[static_cast<std::size_t>(y) * target.stride_px + x],
      Rgba{color.r, color.g, color.b, color.a}, uv, texels);
  return true;
}

// Replace texturing, a plain write, no depth test and affine varyings: each
// fragment is its sampled texel word, so a texel-exact span is a row copy.
constexpr bool copies_spans(bool depth, Tex tex, bool perspective, Out out) {
  return !depth && !perspective && out == Out::kWrite &&
         (tex == Tex::kNearestReplace || tex == Tex::kLinearReplace);
}

// When every pixel x of [lo, hi) provably samples, unchanged, the texel
// x - lo past the returned one, that is the texel pixel lo samples; null
// otherwise. `base` holds the row's planes at xref. v must be constant
// along the row, so every pixel samples one texel row (wrapped as the loop
// wraps it), and the columns must stay inside the texture, so no wrap
// applies to them.
template <Tex kTex>
const std::uint32_t* exact_texel_row(const DrawProgram& p,
                                     const TriangleSetup& s,
                                     const float* base, int lo, int hi) {
  const TextureView& t = p.texture;
  const float du = s.attr[4].dx;
  if (s.attr[5].dx != 0.f || t.width > kCopyCoordLimit ||
      t.height > kCopyCoordLimit || hi - s.xref > kCopyCoordLimit) {
    return nullptr;
  }
  const int n = hi - lo;
  const float v = base[5];  // dv is 0: every pixel's v up to the sign of 0
  double first = 0.0;  // the texel column pixel lo samples
  int row = 0;
  if constexpr (kTex == Tex::kNearestReplace) {
    // Each sample stays inside its texel: the fraction at lo is in
    // [1/4, 3/4], the scale drifts by at most 0.1 texel over the span, and
    // rounding moves each sample by under 1/64 texel.
    if (std::fabs(static_cast<double>(du) * t.width - 1.0) * n > 0.1) {
      return nullptr;
    }
    const float at_lo =
        (base[4] + du * static_cast<float>(lo - s.xref)) * t.width;
    first = std::floor(static_cast<double>(at_lo));
    const double fraction = at_lo - first;
    if (!(fraction >= 0.25 && fraction <= 0.75)) return nullptr;
    row = floor_to_int(v * t.height);
  } else {
    // Every sample on its texel center, so both weights are 0: with a
    // power-of-two width, du == 1/W and u * W - 1/2 an integer at xref,
    // each pixel's u and u * W - 1/2 are exact floats; likewise v.
    if ((t.width & (t.width - 1)) != 0 ||
        du != 1.f / static_cast<float>(t.width)) {
      return nullptr;
    }
    const double fx = static_cast<double>(base[4]) * t.width - 0.5;
    const double fy = static_cast<double>(v) * t.height - 0.5;
    if (fx != std::floor(fx) || fy != std::floor(fy) ||
        std::fabs(fy) >= kCopyCoordLimit) {
      return nullptr;
    }
    first = fx + (lo - s.xref);
    row = static_cast<int>(fy);
  }
  if (!(first >= 0.0 && first + n <= t.width)) return nullptr;
  row = wrap_texel(row, t.height, p.wrap);
  return t.texels + static_cast<std::size_t>(row) * t.stride_px +
         static_cast<int>(first);
}

// The covered pixels [x0, x1) of row y of a triangle. Only the planes the
// draw reads are evaluated, each as row base + dx * (x - xref).
template <bool kDepth, Tex kTex, bool kPerspective, Out kOut>
RasterCounts shade_span(const DrawProgram& p, const TargetView& target,
                        const TriangleSetup& s, int y, int x0, int x1) {
  std::uint32_t* colors =
      target.color + static_cast<std::size_t>(y) * target.stride_px;
  float* depths = nullptr;
  float z_row = 0.f;
  if constexpr (kDepth) {
    depths = target.depth + static_cast<std::size_t>(y) * target.width;
    z_row = s.z.row(y);
  }
  constexpr int kFirst = reads_color(kTex) ? 0 : 4;
  constexpr int kLast = reads_uv(kTex) ? 6 : 4;
  float base[6] = {};
  for (int k = kFirst; k < kLast; ++k) base[k] = s.attr[k].row(y);
  const float w_row = kPerspective ? s.w.row(y) : 0.f;

  if constexpr (copies_spans(kDepth, kTex, kPerspective, kOut)) {
    const std::uint32_t* src = exact_texel_row<kTex>(p, s, base, x0, x1);
    const int n = x1 - x0;
    std::uint32_t* dst = colors + x0;
    // Framebuffer feedback: a copy would not keep the loop's left-to-right
    // reads of pixels it has just written.
    if (src != nullptr && !(src < dst + n && dst < src + n)) {
      std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(*dst));
      return {static_cast<std::uint64_t>(n), 1};
    }
  }

  // Lane k of the color planes is attribute k, evaluated as `at` evaluates
  // u and v.
  Rgba color_row{}, color_dx{}, color_constant{};
  if constexpr (reads_color(kTex)) {
    color_row = Rgba{base[0], base[1], base[2], base[3]};
    color_dx = Rgba{s.attr[0].dx, s.attr[1].dx, s.attr[2].dx, s.attr[3].dx};
    color_constant =
        Rgba{s.constant[0], s.constant[1], s.constant[2], s.constant[3]};
  }
  BilinearTexels texels;
  if constexpr (filters_linear(kTex)) {
    texels.reuse = !samples_own_pixels(p.texture, colors + x0, x1 - x0);
  }
  std::uint64_t shaded = 0;
  for (int x = x0; x < x1; ++x) {
    const float dx = static_cast<float>(x - s.xref);
    if constexpr (kDepth) {
      if (!depth_test(p, z_row + s.z.dx * dx, depths + x)) continue;
    }
    float rcp = 1.f;
    if constexpr (kPerspective) {
      const float inv_w = w_row + s.w.dx * dx;
      rcp = 1.f / (inv_w > kMinInvW ? inv_w : kMinInvW);
    }
    const auto at = [&](int k) {
      const float value = base[k] + s.attr[k].dx * dx;
      if constexpr (kPerspective) {
        return s.constant[k] + value * rcp;
      } else {
        return value;
      }
    };
    Rgba color{};
    Vec2 uv;
    if constexpr (reads_color(kTex)) {
      color = color_row + color_dx * splat(dx);
      if constexpr (kPerspective) color = color_constant + color * splat(rcp);
    }
    if constexpr (reads_uv(kTex)) uv = {at(4), at(5)};
    shade<kTex, kOut>(p, colors + x, color, uv, texels);
    ++shaded;
  }
  return {shaded, 0};
}

template <bool kDepth, Tex kTex, Out kOut>
void choose_loops(DrawProgram& p) {
  p.affine_span = &shade_span<kDepth, kTex, false, kOut>;
  p.perspective_span = &shade_span<kDepth, kTex, true, kOut>;
  p.fragment = &shade_fragment<kDepth, kTex, kOut>;
}

template <bool kDepth, Tex kTex>
void choose_loops(DrawProgram& p, Out out) {
  switch (out) {
    case Out::kWrite: return choose_loops<kDepth, kTex, Out::kWrite>(p);
    case Out::kAlphaBlend:
      return choose_loops<kDepth, kTex, Out::kAlphaBlend>(p);
    case Out::kGeneric: return choose_loops<kDepth, kTex, Out::kGeneric>(p);
  }
}

template <bool kDepth>
void choose_loops(DrawProgram& p, Tex tex, Out out) {
  switch (tex) {
    case Tex::kNone: return choose_loops<kDepth, Tex::kNone>(p, out);
    case Tex::kNearestReplace:
      return choose_loops<kDepth, Tex::kNearestReplace>(p, out);
    case Tex::kNearestModulate:
      return choose_loops<kDepth, Tex::kNearestModulate>(p, out);
    case Tex::kLinearReplace:
      return choose_loops<kDepth, Tex::kLinearReplace>(p, out);
    case Tex::kLinearModulate:
      return choose_loops<kDepth, Tex::kLinearModulate>(p, out);
  }
}

// --- Triangles ---------------------------------------------------------------

void setup_triangle(const DrawProgram& p, const ScreenPrim& prim,
                    TriangleSetup& s) {
  for (int k = 0; k < 3; ++k) {
    const int j = (k + 1) % 3;
    const std::int64_t dx = std::int64_t{prim.sx[j]} - prim.sx[k];
    const std::int64_t dy = std::int64_t{prim.sy[j]} - prim.sy[k];
    // Fill rule: a center exactly on the edge belongs to this triangle when
    // the positively oriented edge runs down the screen, or rightwards when
    // horizontal. The neighbour across a shared edge sees it reversed.
    const bool owns_boundary = dy > 0 || (dy == 0 && dx > 0);
    s.a[k] = -dy;
    s.b[k] = dx;
    s.c[k] = dy * prim.sx[k] - dx * prim.sy[k] - (owns_boundary ? 0 : 1);
  }
  s.xref = prim.bbox.x0;

  const ScreenVertex* v = prim.v;
  const double x0 = static_cast<double>(prim.sx[0]) / kSubpixelScale;
  const double y0 = static_cast<double>(prim.sy[0]) / kSubpixelScale;
  const double dx1 = static_cast<double>(prim.sx[1] - prim.sx[0]) /
                     kSubpixelScale;
  const double dy1 = static_cast<double>(prim.sy[1] - prim.sy[0]) /
                     kSubpixelScale;
  const double dx2 = static_cast<double>(prim.sx[2] - prim.sx[0]) /
                     kSubpixelScale;
  const double dy2 = static_cast<double>(prim.sy[2] - prim.sy[0]) /
                     kSubpixelScale;
  // From the exact snapped area (> 0), so no rounding can flip a sliver.
  const double inv_area = static_cast<double>(kSubpixelScale) *
                          kSubpixelScale /
                          static_cast<double>(snapped_area(prim));
  // Offset from vertex 0 to pixel (xref, 0)'s center.
  const double ox = s.xref + 0.5 - x0;
  const double oy = 0.5 - y0;
  const auto plane = [&](double f0, double f1, double f2) {
    const double df1 = f1 - f0;
    const double df2 = f2 - f0;
    const double ddx = (df1 * dy2 - df2 * dy1) * inv_area;
    const double ddy = (df2 * dx1 - df1 * dx2) * inv_area;
    return TriangleSetup::Plane{f0 + ddx * ox + ddy * oy, ddy,
                                static_cast<float>(ddx)};
  };

  if (p.depth_test) s.z = plane(v[0].z, v[1].z, v[2].z);

  float f[3][6];  // r, g, b, a, u, v at each vertex
  for (int i = 0; i < 3; ++i) {
    f[i][0] = v[i].color.r;
    f[i][1] = v[i].color.g;
    f[i][2] = v[i].color.b;
    f[i][3] = v[i].color.a;
    f[i][4] = v[i].texcoord.x;
    f[i][5] = v[i].texcoord.y;
  }
  const int first = p.uses_color ? 0 : 4;
  const int last = p.uses_uv ? 6 : 4;
  bool flat[6] = {};
  bool varying = false;
  for (int k = first; k < last; ++k) {
    flat[k] = f[0][k] == f[1][k] && f[1][k] == f[2][k];
    varying = varying || !flat[k];
  }
  s.perspective =
      varying && !(v[0].inv_w == v[1].inv_w && v[1].inv_w == v[2].inv_w);
  for (int k = first; k < last; ++k) {
    if (!s.perspective) {
      s.attr[k] = plane(f[0][k], f[1][k], f[2][k]);
    } else if (flat[k]) {
      s.constant[k] = f[0][k];
    } else {
      s.attr[k] = plane(double{f[0][k]} * v[0].inv_w,
                        double{f[1][k]} * v[1].inv_w,
                        double{f[2][k]} * v[2].inv_w);
    }
  }
  if (s.perspective) s.w = plane(v[0].inv_w, v[1].inv_w, v[2].inv_w);
}

RasterCounts raster_triangle(const TargetView& target, const DrawProgram& p,
                             const ScreenPrim& prim, const PixelRect& limit) {
  TriangleSetup s;
  setup_triangle(p, prim, s);
  const DrawProgram::SpanFn span =
      s.perspective ? p.perspective_span : p.affine_span;
  RasterCounts counts;
  for (int y = limit.y0; y < limit.y1; ++y) {
    int lo = 0;
    int hi = 0;
    if (s.span(y, limit.x0, limit.x1, lo, hi)) {
      counts += span(p, target, s, y, lo, hi);
    }
  }
  return counts;
}

// --- Lines and points --------------------------------------------------------

// Narrows the steps [first, last] of a walk start + delta * i / steps to
// those that can round into [lo, hi) on this axis. A pixel and a step of
// margin cover the walk's float rounding; the walk still checks each step.
void narrow_steps(float start, float delta, int lo, int hi, int steps,
                  int& first, int& last) {
  if (delta == 0.f) return;
  const double scale = static_cast<double>(steps) / delta;
  double from = (lo - 1.5 - static_cast<double>(start)) * scale;
  double to = (hi + 0.5 - static_cast<double>(start)) * scale;
  if (from > to) std::swap(from, to);
  from = std::clamp(from - 1.0, 0.0, static_cast<double>(steps));
  to = std::clamp(to + 1.0, 0.0, static_cast<double>(steps));
  first = std::max(first, static_cast<int>(std::floor(from)));
  last = std::min(last, static_cast<int>(std::ceil(to)));
}

// A line walks the same step sequence whatever `limit` is; it evaluates only
// the steps that can land inside it, and skips fragments whose pixel falls
// outside, so the union over disjoint tiles equals the full-target walk.
std::uint64_t raster_line(const TargetView& target, const DrawProgram& p,
                          const ScreenVertex& a, const ScreenVertex& b,
                          const PixelRect& limit) {
  const float dx = b.x - a.x;
  const float dy = b.y - a.y;
  const int steps =
      std::max(1, static_cast<int>(std::ceil(std::max(std::fabs(dx),
                                                      std::fabs(dy)))));
  int first = 0;
  int last = steps;
  narrow_steps(a.x, dx, limit.x0, limit.x1, steps, first, last);
  narrow_steps(a.y, dy, limit.y0, limit.y1, steps, first, last);
  std::uint64_t fragments = 0;
  for (int i = first; i <= last; ++i) {
    const float t = static_cast<float>(i) / steps;
    const int x = static_cast<int>(std::round(a.x + dx * t));
    const int y = static_cast<int>(std::round(a.y + dy * t));
    if (x < limit.x0 || x >= limit.x1 || y < limit.y0 || y >= limit.y1) {
      continue;
    }
    const float z = a.z + (b.z - a.z) * t;
    const Color color = a.color * (1.f - t) + b.color * t;
    const Vec2 uv{a.texcoord.x + (b.texcoord.x - a.texcoord.x) * t,
                  a.texcoord.y + (b.texcoord.y - a.texcoord.y) * t};
    if (p.fragment(p, target, x, y, z, color, uv)) ++fragments;
  }
  return fragments;
}

std::uint64_t raster_point(const TargetView& target, const DrawProgram& p,
                           const ScreenVertex& v, const PixelRect& limit) {
  const int cx = static_cast<int>(std::round(v.x));
  const int cy = static_cast<int>(std::round(v.y));
  std::uint64_t fragments = 0;
  for (int y = cy - p.point_half; y <= cy + p.point_half; ++y) {
    for (int x = cx - p.point_half; x <= cx + p.point_half; ++x) {
      if (x < limit.x0 || x >= limit.x1 || y < limit.y0 || y >= limit.y1) {
        continue;
      }
      if (p.fragment(p, target, x, y, v.z, v.color, v.texcoord)) ++fragments;
    }
  }
  return fragments;
}

// --- Vertex post-processing --------------------------------------------------

int point_half_size(const RasterState& state) {
  return std::max(0, static_cast<int>(state.point_size / 2.f));
}

ShadedVertex lerp_vertex(const ShadedVertex& a, const ShadedVertex& b,
                         float t) {
  ShadedVertex mid;
  mid.clip_pos = a.clip_pos + (b.clip_pos - a.clip_pos) * t;
  mid.color = a.color + (b.color + a.color * -1.f) * t;
  mid.texcoord = {a.texcoord.x + (b.texcoord.x - a.texcoord.x) * t,
                  a.texcoord.y + (b.texcoord.y - a.texcoord.y) * t};
  return mid;
}

// One Sutherland-Hodgman step: keeps the part of the polygon where
// `distance` > 0. Writes at most n + 1 vertices to `out`.
template <typename Distance>
int clip_polygon(const ShadedVertex* in, int n, ShadedVertex* out,
                 Distance distance) {
  int count = 0;
  for (int e = 0; e < n; ++e) {
    const ShadedVertex& cur = in[e];
    const ShadedVertex& nxt = in[(e + 1) % n];
    const float d_cur = distance(cur);
    const float d_nxt = distance(nxt);
    if (d_cur > 0.f) out[count++] = cur;
    if ((d_cur > 0.f) != (d_nxt > 0.f)) {
      out[count++] = lerp_vertex(cur, nxt, d_cur / (d_cur - d_nxt));
    }
  }
  return count;
}

bool within_guard_band(const ScreenVertex& v) {
  return std::fabs(v.x) <= kGuardBandPx && std::fabs(v.y) <= kGuardBandPx;
}

bool finite_position(const ShadedVertex& v) {
  return std::isfinite(v.clip_pos.x) && std::isfinite(v.clip_pos.y) &&
         std::isfinite(v.clip_pos.z) && std::isfinite(v.clip_pos.w);
}

// Clips `poly` (w > 0 everywhere) in clip space to the window-space square
// |x|, |y| <= kGuardClipPx. Returns the new vertex count; 0 when a position
// is not finite.
int clip_to_guard_band(ShadedVertex* poly, int n, const Viewport& vp) {
  for (int i = 0; i < n; ++i) {
    if (!finite_position(poly[i])) return 0;
  }
  // Window x = ndc_x * hx + cx and window y = cy - ndc_y * hy, so each
  // bound is a plane ndc = k, i.e. clip = k * w.
  const float hx = 0.5f * static_cast<float>(vp.width);
  const float cx = static_cast<float>(vp.x) + hx;
  const float hy = 0.5f * static_cast<float>(vp.height);
  const float cy = static_cast<float>(vp.y) + hy;
  ShadedVertex scratch[kMaxPolygon];
  const auto pass = [&](auto distance) {
    n = clip_polygon(poly, n, scratch, distance);
    std::copy(scratch, scratch + n, poly);
  };
  if (hx > 0.f) {
    const float lo = (-kGuardClipPx - cx) / hx;
    const float hi = (kGuardClipPx - cx) / hx;
    pass([lo](const ShadedVertex& v) {
      return v.clip_pos.x - lo * v.clip_pos.w;
    });
    pass([hi](const ShadedVertex& v) {
      return hi * v.clip_pos.w - v.clip_pos.x;
    });
  }
  if (hy > 0.f) {
    const float lo = (cy - kGuardClipPx) / hy;
    const float hi = (cy + kGuardClipPx) / hy;
    pass([lo](const ShadedVertex& v) {
      return v.clip_pos.y - lo * v.clip_pos.w;
    });
    pass([hi](const ShadedVertex& v) {
      return hi * v.clip_pos.w - v.clip_pos.y;
    });
  }
  return n;
}

// |v| <= kGuardBandPx, so the product stays far inside int32.
std::int32_t snap(float v) {
  const double scaled = static_cast<double>(v) * kSubpixelScale;
  return static_cast<std::int32_t>(scaled < 0 ? scaled - 0.5 : scaled + 0.5);
}

// Snaps, culls and orients one triangle and appends it with its pixel
// bounding box (the pixel centers its snapped extent can cover, clipped).
void emit_triangle(const ScreenVertex& a, const ScreenVertex& b,
                   const ScreenVertex& c, CullMode cull, const PixelRect& clip,
                   std::vector<ScreenPrim>& out) {
  ScreenPrim prim;
  prim.kind = PrimitiveKind::kTriangles;
  prim.v[0] = a;
  prim.v[1] = b;
  prim.v[2] = c;
  for (int k = 0; k < 3; ++k) {
    prim.sx[k] = snap(prim.v[k].x);
    prim.sy[k] = snap(prim.v[k].y);
  }
  const std::int64_t area = snapped_area(prim);
  if (area == 0) return;
  if (cull == CullMode::kBack && area > 0) return;
  if (cull == CullMode::kFront && area < 0) return;
  if (area < 0) {
    std::swap(prim.v[1], prim.v[2]);
    std::swap(prim.sx[1], prim.sx[2]);
    std::swap(prim.sy[1], prim.sy[2]);
  }
  const auto [min_x, max_x] = std::minmax({prim.sx[0], prim.sx[1], prim.sx[2]});
  const auto [min_y, max_y] = std::minmax({prim.sy[0], prim.sy[1], prim.sy[2]});
  const auto first_center = [](std::int32_t v) {
    return (v - kHalfSubpixel + kSubpixelScale - 1) >> kSubpixelBits;
  };
  const auto last_center = [](std::int32_t v) {
    return (v - kHalfSubpixel) >> kSubpixelBits;
  };
  prim.bbox = intersect(PixelRect{first_center(min_x), first_center(min_y),
                                  last_center(max_x) + 1,
                                  last_center(max_y) + 1},
                        clip);
  if (!prim.bbox.empty()) out.push_back(prim);
}

}  // namespace

PixelRect clip_rect(const TargetView& target, const RasterState& state) {
  PixelRect b{0, 0, target.width, target.height};
  const Viewport& vp = state.viewport;
  if (vp.width > 0 && vp.height > 0) {
    b.x0 = std::max(b.x0, vp.x);
    b.y0 = std::max(b.y0, vp.y);
    b.x1 = std::min(b.x1, vp.x + vp.width);
    b.y1 = std::min(b.y1, vp.y + vp.height);
  }
  if (state.scissor.has_value()) {
    const ScissorRect& sc = *state.scissor;
    b.x0 = std::max(b.x0, sc.x);
    b.y0 = std::max(b.y0, sc.y);
    b.x1 = std::min(b.x1, sc.x + sc.width);
    b.y1 = std::min(b.y1, sc.y + sc.height);
  }
  return b;
}

DrawProgram prepare_draw(const RasterState& state, TextureView texture,
                         std::span<const ShadedVertex> vertices) {
  static constexpr std::uint32_t kWhiteTexel = 0xffffffffu;
  DrawProgram p;
  p.depth_test = state.depth_test;
  p.depth_write = state.depth_write;
  p.depth_pass = depth_pass_mask(state.depth_func);
  p.point_half = point_half_size(state);

  Tex tex = Tex::kNone;
  if (texture.texels != nullptr) {
    if (texture.width <= 0 || texture.height <= 0) {
      texture = TextureView{&kWhiteTexel, 1, 1, 1};
    }
    // texel * 1.f == texel, so modulating by exact white is replace.
    const bool white = std::all_of(
        vertices.begin(), vertices.end(), [](const ShadedVertex& v) {
          return v.color.r == 1.f && v.color.g == 1.f && v.color.b == 1.f &&
                 v.color.a == 1.f;
        });
    const bool replace = state.tex_env == TexEnv::kReplace || white;
    if (state.filter == TextureFilter::kNearest) {
      tex = replace ? Tex::kNearestReplace : Tex::kNearestModulate;
    } else {
      tex = replace ? Tex::kLinearReplace : Tex::kLinearModulate;
    }
    p.texture = texture;
    p.wrap = state.wrap;
  }
  p.uses_color = reads_color(tex);
  p.uses_uv = reads_uv(tex);

  const bool masked = !state.color_mask[0] || !state.color_mask[1] ||
                      !state.color_mask[2] || !state.color_mask[3];
  Out out = Out::kWrite;
  if (state.blend || masked) {
    const bool alpha_blend = state.blend && !masked &&
                             state.blend_src == BlendFactor::kSrcAlpha &&
                             state.blend_dst == BlendFactor::kOneMinusSrcAlpha;
    out = alpha_blend ? Out::kAlphaBlend : Out::kGeneric;
  }
  p.src = blend_term(state.blend ? state.blend_src : BlendFactor::kOne);
  p.dst = blend_term(state.blend ? state.blend_dst : BlendFactor::kZero);
  for (int i = 0; i < 4; ++i) p.keep_dst[i] = !state.color_mask[i];

  if (p.depth_test) {
    choose_loops<true>(p, tex, out);
  } else {
    choose_loops<false>(p, tex, out);
  }
  return p;
}

std::uint64_t build_screen_prims(const TargetView& target,
                                 const RasterState& state, PrimitiveKind kind,
                                 std::span<const ShadedVertex> vertices,
                                 std::vector<ScreenPrim>& out) {
  if (target.color == nullptr) return 0;
  const PixelRect clip = clip_rect(target, state);

  const Viewport vp = state.viewport.width > 0
                          ? state.viewport
                          : Viewport{0, 0, target.width, target.height};
  const auto to_screen = [&](const ShadedVertex& v) {
    ScreenVertex s;
    const float inv_w = 1.f / v.clip_pos.w;
    s.x = (v.clip_pos.x * inv_w * 0.5f + 0.5f) * vp.width + vp.x;
    s.y = (1.f - (v.clip_pos.y * inv_w * 0.5f + 0.5f)) * vp.height + vp.y;
    s.z = v.clip_pos.z * inv_w * 0.5f + 0.5f;
    s.inv_w = inv_w;
    s.color = v.color;
    s.texcoord = v.texcoord;
    return s;
  };

  std::uint64_t triangles = 0;
  switch (kind) {
    case PrimitiveKind::kTriangles: {
      for (std::size_t i = 0; i + 2 < vertices.size(); i += 3) {
        // Near-plane clip (w > epsilon), then the guard band for the rare
        // triangle that reaches past it; one polygon fans out.
        ShadedVertex poly[kMaxPolygon];
        const int clipped = clip_polygon(
            &vertices[i], 3, poly, [](const ShadedVertex& v) {
              return v.clip_pos.w - kNearEpsilon;
            });
        if (clipped < 3) continue;
        int count = clipped;
        ScreenVertex screen[kMaxPolygon];
        bool inside = true;
        for (int k = 0; k < count; ++k) {
          screen[k] = to_screen(poly[k]);
          inside = inside && within_guard_band(screen[k]);
        }
        if (!inside) {
          count = clip_to_guard_band(poly, count, vp);
          for (int k = 0; k < count; ++k) {
            screen[k] = to_screen(poly[k]);
            if (!within_guard_band(screen[k])) count = 0;
          }
        }
        for (int k = 1; k + 1 < count; ++k) {
          emit_triangle(screen[0], screen[k], screen[k + 1], state.cull, clip,
                        out);
          ++triangles;
        }
      }
      break;
    }
    case PrimitiveKind::kLines: {
      for (std::size_t i = 0; i + 1 < vertices.size(); i += 2) {
        if (vertices[i].clip_pos.w <= kNearEpsilon ||
            vertices[i + 1].clip_pos.w <= kNearEpsilon) {
          continue;
        }
        ScreenPrim prim;
        prim.kind = PrimitiveKind::kLines;
        prim.v[0] = to_screen(vertices[i]);
        prim.v[1] = to_screen(vertices[i + 1]);
        if (!within_guard_band(prim.v[0]) || !within_guard_band(prim.v[1])) {
          continue;
        }
        // Step rounding can land one pixel past the float extent; pad the
        // bbox so tile coverage never misses a plotted pixel (the walk's
        // own limit check rejects strays exactly).
        PixelRect box;
        box.x0 = static_cast<int>(
                     std::floor(std::min(prim.v[0].x, prim.v[1].x))) - 1;
        box.y0 = static_cast<int>(
                     std::floor(std::min(prim.v[0].y, prim.v[1].y))) - 1;
        box.x1 = static_cast<int>(
                     std::ceil(std::max(prim.v[0].x, prim.v[1].x))) + 1;
        box.y1 = static_cast<int>(
                     std::ceil(std::max(prim.v[0].y, prim.v[1].y))) + 1;
        prim.bbox = intersect(box, clip);
        out.push_back(prim);
      }
      break;
    }
    case PrimitiveKind::kPoints: {
      const int half = point_half_size(state);
      for (const ShadedVertex& v : vertices) {
        if (v.clip_pos.w <= kNearEpsilon) continue;
        ScreenPrim prim;
        prim.kind = PrimitiveKind::kPoints;
        prim.v[0] = to_screen(v);
        if (!within_guard_band(prim.v[0])) continue;
        const int cx = static_cast<int>(std::round(prim.v[0].x));
        const int cy = static_cast<int>(std::round(prim.v[0].y));
        prim.bbox = intersect(PixelRect{cx - half, cy - half, cx + half + 1,
                                        cy + half + 1},
                              clip);
        out.push_back(prim);
      }
      break;
    }
  }
  return triangles;
}

RasterCounts raster_screen_prim(const TargetView& target,
                                const DrawProgram& program,
                                const ScreenPrim& prim,
                                const PixelRect& raw_limit) {
  // The bbox already carries viewport ∩ scissor ∩ target, so the effective
  // rect is the same whether `raw_limit` is one tile or the whole target.
  const PixelRect limit = intersect(raw_limit, prim.bbox);
  if (limit.empty()) return {};
  // Every fragment fails a depth test against no depth buffer.
  if (program.depth_test && target.depth == nullptr) return {};
  switch (prim.kind) {
    case PrimitiveKind::kTriangles:
      return raster_triangle(target, program, prim, limit);
    case PrimitiveKind::kLines:
      return {raster_line(target, program, prim.v[0], prim.v[1], limit), 0};
    case PrimitiveKind::kPoints:
      return {raster_point(target, program, prim.v[0], limit), 0};
  }
  return {};
}

void clear_rect(const TargetView& target,
                const std::optional<ScissorRect>& scissor, bool clear_color,
                Color color, bool clear_depth, float depth_value,
                const PixelRect& limit) {
  RasterState bounds_state;
  bounds_state.scissor = scissor;
  const PixelRect b = intersect(clip_rect(target, bounds_state), limit);
  if (b.empty()) return;
  const std::uint32_t packed = pack_rgba8888(color);
  for (int y = b.y0; y < b.y1; ++y) {
    if (clear_color) {
      std::uint32_t* row =
          &target.color[static_cast<std::size_t>(y) * target.stride_px];
      std::fill(row + b.x0, row + b.x1, packed);
    }
    if (clear_depth && target.depth != nullptr) {
      float* row = &target.depth[static_cast<std::size_t>(y) * target.width];
      std::fill(row + b.x0, row + b.x1, depth_value);
    }
  }
}

std::uint64_t Rasterizer::draw(TargetView target, const RasterState& state,
                               PrimitiveKind kind,
                               std::span<const ShadedVertex> vertices,
                               TextureView texture) {
  const DrawProgram program = prepare_draw(state, texture, vertices);
  std::vector<ScreenPrim> prims;
  triangles_ += build_screen_prims(target, state, kind, vertices, prims);
  const PixelRect full{0, 0, target.width, target.height};
  RasterCounts counts;
  for (const ScreenPrim& prim : prims) {
    counts += raster_screen_prim(target, program, prim, full);
  }
  spans_copied_ += counts.spans_copied;
  return counts.fragments;
}

void Rasterizer::clear(TargetView target,
                       const std::optional<ScissorRect>& scissor,
                       bool clear_color, Color color, bool clear_depth,
                       float depth_value) {
  clear_rect(target, scissor, clear_color, color, clear_depth, depth_value,
             PixelRect{0, 0, target.width, target.height});
}

}  // namespace cycada::gpu
