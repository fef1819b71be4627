#include "raster/conservative.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "geometry/bbox.h"
#include "geometry/segment.h"

namespace rj::raster {

namespace {

/// Does triangle (a,b,c) (any winding) overlap the axis-aligned square
/// [x, x+1] × [y, y+1]? Separating-axis style test via: any vertex inside
/// square, any square corner inside triangle, or any edge pair intersects.
bool TriangleOverlapsPixel(const Point& a, const Point& b, const Point& c,
                           double x, double y) {
  const BBox px(x, y, x + 1.0, y + 1.0);
  if (px.Contains(a) || px.Contains(b) || px.Contains(c)) return true;

  const Point corners[4] = {{x, y}, {x + 1, y}, {x + 1, y + 1}, {x, y + 1}};
  // Square corner inside triangle (either winding)?
  for (const Point& s : corners) {
    const double w0 = Orient2D(a, b, s);
    const double w1 = Orient2D(b, c, s);
    const double w2 = Orient2D(c, a, s);
    const bool all_nonneg = w0 >= 0 && w1 >= 0 && w2 >= 0;
    const bool all_nonpos = w0 <= 0 && w1 <= 0 && w2 <= 0;
    if (all_nonneg || all_nonpos) return true;
  }
  // Edge intersection?
  const Point tri[3] = {a, b, c};
  for (int i = 0; i < 3; ++i) {
    const Point& p1 = tri[i];
    const Point& p2 = tri[(i + 1) % 3];
    for (int j = 0; j < 4; ++j) {
      if (SegmentsIntersect(p1, p2, corners[j], corners[(j + 1) % 4])) {
        return true;
      }
    }
  }
  return false;
}

/// An inclusive pixel window [x0, x1] × [y0, y1].
struct Window {
  std::int32_t x0, x1, y0, y1;
};

/// The pixel window of a shape with bounding box [min_x, max_x] ×
/// [min_y, max_y], expanded by one pixel on each side (edges exactly on
/// pixel borders touch both sides) and clamped to the width × height
/// canvas in double before the cast, so every finite coordinate is valid
/// input. nullopt when the window misses the canvas (or is NaN).
std::optional<Window> CanvasWindow(double min_x, double max_x, double min_y,
                                   double max_y, std::int32_t width,
                                   std::int32_t height) {
  const double x0 = std::max(std::floor(min_x) - 1.0, 0.0);
  const double x1 = std::min(std::floor(max_x) + 1.0, width - 1.0);
  const double y0 = std::max(std::floor(min_y) - 1.0, 0.0);
  const double y1 = std::min(std::floor(max_y) + 1.0, height - 1.0);
  if (!(x0 <= x1 && y0 <= y1)) return std::nullopt;
  return Window{static_cast<std::int32_t>(x0), static_cast<std::int32_t>(x1),
                static_cast<std::int32_t>(y0), static_cast<std::int32_t>(y1)};
}

}  // namespace

void RasterizeTriangleConservative(const Point& a, const Point& b,
                                   const Point& c, std::int32_t width,
                                   std::int32_t height,
                                   const FragmentCallback& emit) {
  const std::optional<Window> w = CanvasWindow(
      std::min({a.x, b.x, c.x}), std::max({a.x, b.x, c.x}),
      std::min({a.y, b.y, c.y}), std::max({a.y, b.y, c.y}), width, height);
  if (!w.has_value()) return;
  for (std::int32_t y = w->y0; y <= w->y1; ++y) {
    for (std::int32_t x = w->x0; x <= w->x1; ++x) {
      if (TriangleOverlapsPixel(a, b, c, x, y)) emit(x, y);
    }
  }
}

void RasterizeSegmentConservative(const Point& a, const Point& b,
                                  std::int32_t width, std::int32_t height,
                                  const FragmentCallback& emit) {
  // The window's one-pixel expansion matters here: a segment lying exactly
  // on a pixel border touches the squares of both adjacent rows/columns,
  // whose indices fall outside the floor()-based bbox.
  const std::optional<Window> w =
      CanvasWindow(std::min(a.x, b.x), std::max(a.x, b.x), std::min(a.y, b.y),
                   std::max(a.y, b.y), width, height);
  if (!w.has_value()) return;
  for (std::int32_t y = w->y0; y <= w->y1; ++y) {
    for (std::int32_t x = w->x0; x <= w->x1; ++x) {
      const BBox px(x, y, x + 1.0, y + 1.0);
      // Segment within or crossing the pixel square?
      if (px.Contains(a) || px.Contains(b)) {
        emit(x, y);
        continue;
      }
      const Point corners[4] = {
          {static_cast<double>(x), static_cast<double>(y)},
          {static_cast<double>(x + 1), static_cast<double>(y)},
          {static_cast<double>(x + 1), static_cast<double>(y + 1)},
          {static_cast<double>(x), static_cast<double>(y + 1)}};
      for (int j = 0; j < 4; ++j) {
        if (SegmentsIntersect(a, b, corners[j], corners[(j + 1) % 4])) {
          emit(x, y);
          break;
        }
      }
    }
  }
}

}  // namespace rj::raster
