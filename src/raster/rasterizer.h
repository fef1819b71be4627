/// \file rasterizer.h
/// \brief Triangle and point scan conversion with OpenGL coverage rules.
///
/// The GL specification defines triangle coverage by the *pixel-center*
/// sample rule: a pixel is covered iff its center lies inside the triangle,
/// with the top-left fill convention breaking ties on shared edges so two
/// triangles sharing an edge never both (or neither) cover a boundary
/// pixel. The paper's entire error analysis (§4.2) is a consequence of this
/// rule, so the software rasterizer reproduces it exactly.
///
/// Coverage is decided by the classical edge-function formulation of
/// Pineda (1988) / Olano & Greer (1997) cited by the paper (§3), and found
/// one pixel row at a time (ScanTriangleSpans). Along a row the sample's y
/// is fixed, so an edge function as evaluated in floating point,
/// `dx·(sy − p.y) − dy·(sx − p.x)`, is a fixed term minus a constant times
/// a rounded difference that never shrinks as x grows. Rounding,
/// subtraction and multiplication by a constant are monotone, so each
/// edge's inside test holds on a prefix of the row (dy > 0), a suffix
/// (dy < 0) or all or none of it (dy == 0); the three together hold on one
/// interval. The scan estimates each end from the edge crossing and then
/// steps it with the exact per-pixel test until it is right, so it emits
/// exactly the pixels, in exactly the row-major order, that testing every
/// pixel of the triangle's bounding box would. (A fused multiply-add is
/// monotone too; x86-64 builds without -march contract none.
/// ScanTriangleSpansTest checks the emitted sequence against a copy of the
/// bounding-box scan.)
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>

#include "geometry/point.h"
#include "triangulate/triangulation.h"

namespace rj::raster {

/// Callback invoked for every covered pixel ("fragment shader").
using FragmentCallback =
    std::function<void(std::int32_t x, std::int32_t y)>;

namespace detail {

/// Edge function: signed area relation of pixel sample s to directed edge
/// (p, q). Positive when s is to the left of the edge (CCW interior).
inline double EdgeFunction(const Point& p, const Point& q, const Point& s) {
  return (q.x - p.x) * (s.y - p.y) - (q.y - p.y) * (s.x - p.x);
}

/// Top-left rule: an edge owns its boundary samples iff it is a "top" edge
/// (exactly horizontal, going left in CCW order) or a "left" edge (going
/// down in CCW order, i.e. q.y < p.y with our y-up screen space flipped —
/// we use y-up world-aligned screen coords, so a left edge goes *up*).
///
/// With y increasing upward, CCW interior to the left:
///   - "left" edges are those with q.y > p.y (interior to the right of the
///     upward edge... ), we adopt the standard D3D/GL convention adapted to
///     y-up: an edge is top-left if (dy > 0) || (dy == 0 && dx < 0).
inline bool IsTopLeft(const Point& p, const Point& q) {
  const double dy = q.y - p.y;
  const double dx = q.x - p.x;
  return dy > 0.0 || (dy == 0.0 && dx < 0.0);
}

/// floor(v) clamped to [lo, hi] before the cast (NaN gives lo).
inline std::int32_t FloorWithin(double v, std::int32_t lo, std::int32_t hi) {
  v = std::floor(v);
  if (!(v >= lo)) return lo;
  return v > hi ? hi : static_cast<std::int32_t>(v);
}

/// ceil(v) clamped to [lo, hi] before the cast (NaN gives hi).
inline std::int32_t CeilWithin(double v, std::int32_t lo, std::int32_t hi) {
  v = std::ceil(v);
  if (!(v <= hi)) return hi;
  return v < lo ? lo : static_cast<std::int32_t>(v);
}

}  // namespace detail

/// Scans the triangle (a, b, c), given in *screen* coordinates, on a
/// width × height grid: calls `fn(y, x_lo, x_hi)` once per pixel row that
/// holds a covered pixel, in increasing y, with the row's covered pixels
/// x_lo..x_hi (inclusive). Pixels outside the grid are clipped, and
/// degenerate (zero-area) triangles emit nothing. Every finite coordinate
/// is valid input: the bounding box and each crossing estimate are clamped
/// to the grid in double before any integer cast.
template <typename Fn>
void ScanTriangleSpans(Point a, Point b, Point c, std::int32_t width,
                       std::int32_t height, Fn&& fn) {
  // Orient CCW; reject degenerates.
  const double area2 = Orient2D(a, b, c);
  if (area2 == 0.0) return;
  if (area2 < 0.0) std::swap(b, c);

  // Clipped bounding box. Pixel centers are at integer+0.5; the first
  // candidate x is the one whose center x+0.5 >= min_x.
  const double x0f =
      std::max(std::floor(std::min({a.x, b.x, c.x}) - 0.5) + 1.0, 0.0);
  const double x1f = std::min(std::ceil(std::max({a.x, b.x, c.x}) - 0.5) - 1.0,
                              width - 1.0);
  const double y0f =
      std::max(std::floor(std::min({a.y, b.y, c.y}) - 0.5) + 1.0, 0.0);
  const double y1f = std::min(std::ceil(std::max({a.y, b.y, c.y}) - 0.5) - 1.0,
                              height - 1.0);
  if (!(x0f <= x1f && y0f <= y1f)) return;
  const auto x0 = static_cast<std::int32_t>(x0f);
  const auto x1 = static_cast<std::int32_t>(x1f);
  const auto y0 = static_cast<std::int32_t>(y0f);
  const auto y1 = static_cast<std::int32_t>(y1f);

  const Point from[3] = {a, b, c};
  const Point to[3] = {b, c, a};
  const bool top_left[3] = {detail::IsTopLeft(a, b), detail::IsTopLeft(b, c),
                            detail::IsTopLeft(c, a)};

  for (std::int32_t y = y0; y <= y1; ++y) {
    const double sy = y + 0.5;
    std::int32_t lo = x0;
    std::int32_t hi = x1;
    for (int e = 0; e < 3 && lo <= hi; ++e) {
      const Point& p = from[e];
      const Point& q = to[e];
      // The center lies inside the edge when its edge function is positive,
      // or zero on a top-left edge (fill convention: no double counting on
      // the shared edges of a triangulation).
      const auto inside = [&](std::int32_t x) {
        const double w = detail::EdgeFunction(p, q, Point{x + 0.5, sy});
        return w > 0.0 || (w == 0.0 && top_left[e]);
      };
      // x of the pixel whose center sits on the edge, up to rounding.
      const double dy = q.y - p.y;
      const auto crossing = [&] {
        return p.x + (q.x - p.x) * (sy - p.y) / dy - 0.5;
      };
      if (dy > 0.0) {  // inside on a prefix of the row: find its last pixel
        std::int32_t x = detail::FloorWithin(crossing(), lo - 1, hi);
        while (x >= lo && !inside(x)) --x;
        while (x < hi && inside(x + 1)) ++x;
        hi = x;
      } else if (dy < 0.0) {  // inside on a suffix: find its first pixel
        std::int32_t x = detail::CeilWithin(crossing(), lo, hi + 1);
        while (x <= hi && !inside(x)) ++x;
        while (x > lo && inside(x - 1)) --x;
        lo = x;
      } else if (!inside(lo)) {  // horizontal: the same for every pixel
        hi = lo - 1;
      }
    }
    if (lo <= hi) fn(y, lo, hi);
  }
}

/// Rasterizes a triangle given in *screen* coordinates onto a width×height
/// grid, invoking `emit` once per covered pixel in row-major order: the
/// per-pixel form of ScanTriangleSpans.
void RasterizeTriangle(const Point& a, const Point& b, const Point& c,
                       std::int32_t width, std::int32_t height,
                       const FragmentCallback& emit);

/// Rasterizes the segment [a, b] (screen coords) with a DDA walk, emitting
/// every pixel whose interior the segment passes through. Used for drawing
/// polygon outlines (accurate raster join, step 1). Every finite
/// coordinate is valid input: an endpoint more than one pixel off the grid
/// is clipped there first, in double, so the walk is bounded by the grid,
/// not by the segment's length. A non-finite endpoint emits nothing.
void RasterizeSegment(const Point& a, const Point& b, std::int32_t width,
                      std::int32_t height, const FragmentCallback& emit);

}  // namespace rj::raster
