#include "raster/rasterizer.h"

#include <cmath>
#include <limits>

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

void RasterizeSegment(const Point& a, const Point& b, std::int32_t width,
                      std::int32_t height, const FragmentCallback& emit) {
  // Amanatides–Woo style voxel traversal over the pixel grid: emits every
  // pixel the segment passes through, with no gaps (required so polygon
  // outlines form closed boundaries in the boundary FBO).
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

}  // namespace rj::raster
