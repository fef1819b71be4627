#include "raster/rasterizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "geometry/bbox.h"

namespace rj::raster {

void RasterizeTriangle(const Point& a, const Point& b, const Point& c,
                       std::int32_t width, std::int32_t height,
                       const FragmentCallback& emit) {
  ScanTriangleSpans(a, b, c, width, height,
                    [&emit](std::int32_t y, std::int32_t x_lo,
                            std::int32_t x_hi) {
                      for (std::int32_t x = x_lo; x <= x_hi; ++x) emit(x, y);
                    });
}

namespace {

/// Amanatides–Woo style voxel traversal over the pixel grid: emits every
/// pixel the segment passes through, with no gaps (required so polygon
/// outlines form closed boundaries in the boundary FBO). The endpoints
/// must lie within one pixel of the grid, so every pixel index fits.
void TraverseSegment(const Point& a, const Point& b, std::int32_t width,
                     std::int32_t height, const FragmentCallback& emit) {
  double x = a.x, y = a.y;
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;

  std::int32_t px = static_cast<std::int32_t>(std::floor(x));
  std::int32_t py = static_cast<std::int32_t>(std::floor(y));
  const std::int32_t end_px = static_cast<std::int32_t>(std::floor(b.x));
  const std::int32_t end_py = static_cast<std::int32_t>(std::floor(b.y));

  const std::int32_t step_x = dx > 0 ? 1 : (dx < 0 ? -1 : 0);
  const std::int32_t step_y = dy > 0 ? 1 : (dy < 0 ? -1 : 0);

  auto emit_clipped = [&](std::int32_t ex, std::int32_t ey) {
    if (ex >= 0 && ex < width && ey >= 0 && ey < height) emit(ex, ey);
  };

  // Parametric distances to the next vertical/horizontal pixel border.
  double t_max_x, t_max_y, t_delta_x, t_delta_y;
  if (step_x != 0) {
    const double next_vx = step_x > 0 ? (px + 1.0) : px;
    t_max_x = (next_vx - x) / dx;
    t_delta_x = 1.0 / std::fabs(dx);
  } else {
    t_max_x = std::numeric_limits<double>::infinity();
    t_delta_x = std::numeric_limits<double>::infinity();
  }
  if (step_y != 0) {
    const double next_vy = step_y > 0 ? (py + 1.0) : py;
    t_max_y = (next_vy - y) / dy;
    t_delta_y = 1.0 / std::fabs(dy);
  } else {
    t_max_y = std::numeric_limits<double>::infinity();
    t_delta_y = std::numeric_limits<double>::infinity();
  }

  emit_clipped(px, py);
  // Hard iteration cap guards against pathological float behaviour.
  const std::int64_t max_steps =
      static_cast<std::int64_t>(std::fabs(b.x - a.x) + std::fabs(b.y - a.y)) +
      4;
  for (std::int64_t i = 0; i < max_steps; ++i) {
    if (px == end_px && py == end_py) break;
    if (t_max_x < t_max_y) {
      t_max_x += t_delta_x;
      px += step_x;
    } else {
      t_max_y += t_delta_y;
      py += step_y;
    }
    emit_clipped(px, py);
  }
}

/// The far end of the part of segment [p, q] that lies in `box`, computed
/// from p so that it keeps p's precision (Liang–Barsky); q itself when q is
/// in the box, nullopt when the segment misses the box. The direction is
/// halved, q/2 − p/2, so no pair of finite endpoints overflows it, and the
/// end is clamped into the box: when p is far off the box too, rounding
/// moves it by up to an ulp of p.
std::optional<Point> ClipFarEnd(const Point& p, const Point& q,
                                const BBox& box) {
  if (box.Contains(q)) return q;
  const double from[2] = {p.x, p.y};
  const double half[2] = {q.x * 0.5 - p.x * 0.5, q.y * 0.5 - p.y * 0.5};
  const double lo_edge[2] = {box.min_x, box.min_y};
  const double hi_edge[2] = {box.max_x, box.max_y};
  double lo = 0.0;  // p + r·half for r in [lo, hi] lies in the box
  double hi = 2.0;
  for (int k = 0; k < 2; ++k) {
    if (half[k] == 0.0) {
      if (from[k] < lo_edge[k] || from[k] > hi_edge[k]) return std::nullopt;
      continue;
    }
    const double r0 = (lo_edge[k] - from[k]) / half[k];
    const double r1 = (hi_edge[k] - from[k]) / half[k];
    lo = std::max(lo, std::min(r0, r1));
    hi = std::min(hi, std::max(r0, r1));
  }
  if (lo > hi) return std::nullopt;
  return Point{std::clamp(p.x + hi * half[0], box.min_x, box.max_x),
               std::clamp(p.y + hi * half[1], box.min_y, box.max_y)};
}

}  // namespace

void RasterizeSegment(const Point& a, const Point& b, std::int32_t width,
                      std::int32_t height, const FragmentCallback& emit) {
  if (!std::isfinite(a.x) || !std::isfinite(a.y) || !std::isfinite(b.x) ||
      !std::isfinite(b.y)) {
    return;
  }
  // The traversal walks pixels one step at a time, so an endpoint far off
  // the grid is first clipped to the grid plus a one-pixel border: the
  // walk is then bounded by the canvas, not by the segment's length, and
  // segments already inside the border walk exactly as given.
  const BBox guard(-1.0, -1.0, width + 1.0, height + 1.0);
  const std::optional<Point> a_in = ClipFarEnd(b, a, guard);
  const std::optional<Point> b_in = ClipFarEnd(a, b, guard);
  if (!a_in.has_value() || !b_in.has_value()) return;
  TraverseSegment(*a_in, *b_in, width, height, emit);
}

}  // namespace rj::raster
