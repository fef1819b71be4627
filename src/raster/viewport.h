/// \file viewport.h
/// \brief World→screen transforms and ε-driven canvas tiling (Fig. 5).
///
/// Given an ε Hausdorff bound, the required pixel side is ε' = ε/√2 (§4.2),
/// so the full canvas for a world extent w×h has w/ε' × h/ε' pixels. When
/// that exceeds the device's maximum FBO dimension, the canvas splits into
/// tiles, each rendered in its own pass; geometry outside a tile is clipped
/// by the pipeline, so each point–polygon pair is counted exactly once.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geometry/bbox.h"
#include "geometry/point.h"

namespace rj::raster {

/// Screen-space position of one canvas tile within the full virtual canvas.
struct CanvasTile {
  /// World-space rectangle this tile covers.
  BBox world;
  /// Tile resolution in pixels.
  std::int32_t width = 0;
  std::int32_t height = 0;
  /// Pixel index offset of this tile in the full virtual canvas.
  std::int64_t pixel_x0 = 0;
  std::int64_t pixel_y0 = 0;
};

/// A world→pixel transform for one tile.
class Viewport {
 public:
  Viewport(const BBox& world, std::int32_t width, std::int32_t height)
      : world_(world), width_(width), height_(height),
        scale_x_(width / world.Width()), scale_y_(height / world.Height()) {}

  const BBox& world() const { return world_; }
  std::int32_t width() const { return width_; }
  std::int32_t height() const { return height_; }

  /// World point → continuous pixel coordinates (pixel (i,j) spans
  /// [i, i+1) × [j, j+1); its center is (i+0.5, j+0.5)).
  Point ToScreen(const Point& p) const {
    return {(p.x - world_.min_x) * scale_x_, (p.y - world_.min_y) * scale_y_};
  }

  /// Continuous pixel coordinates → world point.
  Point ToWorld(const Point& screen) const {
    return {world_.min_x + screen.x / scale_x_,
            world_.min_y + screen.y / scale_y_};
  }

  /// World-space rectangle covered by pixel (x, y).
  BBox PixelWorldRect(std::int32_t x, std::int32_t y) const {
    const Point lo = ToWorld({static_cast<double>(x), static_cast<double>(y)});
    const Point hi =
        ToWorld({static_cast<double>(x + 1), static_cast<double>(y + 1)});
    return {lo.x, lo.y, hi.x, hi.y};
  }

  /// World-space side lengths of one pixel.
  double PixelWidth() const { return 1.0 / scale_x_; }
  double PixelHeight() const { return 1.0 / scale_y_; }

  /// The pixel containing world point p (floor of screen coords), or
  /// (-1,-1) when p is outside the viewport.
  std::pair<std::int32_t, std::int32_t> PixelOf(const Point& p) const {
    const Point s = ToScreen(p);
    const auto px = static_cast<std::int32_t>(std::floor(s.x));
    const auto py = static_cast<std::int32_t>(std::floor(s.y));
    if (px < 0 || px >= width_ || py < 0 || py >= height_) return {-1, -1};
    return {px, py};
  }

 private:
  BBox world_;
  std::int32_t width_;
  std::int32_t height_;
  double scale_x_;
  double scale_y_;
};

/// Pixel side length ε' that guarantees Hausdorff bound ε (§4.2: pixel
/// diagonal equals ε).
inline double PixelSideForEpsilon(double epsilon) {
  return epsilon / std::sqrt(2.0);
}

/// The most tiles a canvas plan may hold. Each tile is one render pass over
/// the points; the limit is 4.3× the US-counties world at ε = 10 m on
/// 4096-pixel FBOs (156 × 97 = 15,132 tiles).
inline constexpr std::int64_t kMaxCanvasTiles = 65'536;

/// Plans the canvas tiling for the given world extent, ε bound and device
/// FBO limit. Returns at least one tile; tiles partition the full canvas.
/// Fails with InvalidArgument, before allocating anything, when the plan
/// would hold more than kMaxCanvasTiles tiles.
Result<std::vector<CanvasTile>> PlanCanvas(const BBox& world, double epsilon,
                                           std::int32_t max_fbo_dim);

/// Plans a single-tile canvas at a fixed resolution (the "visualization
/// scenario" of §4.2 where the FBO matches the screen).
CanvasTile SingleCanvas(const BBox& world, std::int32_t width,
                        std::int32_t height);

}  // namespace rj::raster
