#include "raster/viewport.h"

#include <algorithm>
#include <string>

#include "common/math_utils.h"

namespace rj::raster {

Result<std::vector<CanvasTile>> PlanCanvas(const BBox& world, double epsilon,
                                           std::int32_t max_fbo_dim) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (world.IsEmpty() || world.Width() <= 0 || world.Height() <= 0) {
    return Status::InvalidArgument("world extent is empty");
  }
  if (max_fbo_dim <= 0) {
    return Status::InvalidArgument("max_fbo_dim must be positive");
  }

  const double pixel_side = PixelSideForEpsilon(epsilon);
  // Full virtual canvas resolution (ceil so the bound holds everywhere).
  // It stays in double until the plan is known to be small: a tiny ε makes
  // it too large for any integer, or infinite.
  const double full_wf = std::ceil(world.Width() / pixel_side);
  const double full_hf = std::ceil(world.Height() / pixel_side);
  const double tiles_f = std::ceil(std::max(1.0, full_wf) / max_fbo_dim) *
                         std::ceil(std::max(1.0, full_hf) / max_fbo_dim);
  if (!(tiles_f <= static_cast<double>(kMaxCanvasTiles))) {
    return Status::InvalidArgument(
        "epsilon is too small for the world extent: the canvas plan needs "
        "more than " + std::to_string(kMaxCanvasTiles) + " tiles");
  }
  const auto full_w = static_cast<std::int64_t>(full_wf);
  const auto full_h = static_cast<std::int64_t>(full_hf);
  // Shrink pixel sides so the canvas spans the world *exactly*: the pixel
  // diagonal only gets smaller (ε bound still holds), and pixel centers in
  // the last row/column stay inside the world — otherwise points near the
  // extent border would land in pixels no polygon fragment ever visits.
  const double px_w = world.Width() / static_cast<double>(full_w);
  const double px_h = world.Height() / static_cast<double>(full_h);

  const std::int64_t tiles_x = CeilDiv(std::max<std::int64_t>(1, full_w),
                                       max_fbo_dim);
  const std::int64_t tiles_y = CeilDiv(std::max<std::int64_t>(1, full_h),
                                       max_fbo_dim);

  std::vector<CanvasTile> tiles;
  tiles.reserve(static_cast<std::size_t>(tiles_x * tiles_y));
  for (std::int64_t ty = 0; ty < tiles_y; ++ty) {
    for (std::int64_t tx = 0; tx < tiles_x; ++tx) {
      const std::int64_t px0 = tx * max_fbo_dim;
      const std::int64_t py0 = ty * max_fbo_dim;
      const std::int64_t px1 = std::min<std::int64_t>(full_w, px0 + max_fbo_dim);
      const std::int64_t py1 = std::min<std::int64_t>(full_h, py0 + max_fbo_dim);

      CanvasTile tile;
      tile.width = static_cast<std::int32_t>(px1 - px0);
      tile.height = static_cast<std::int32_t>(py1 - py0);
      tile.pixel_x0 = px0;
      tile.pixel_y0 = py0;
      tile.world = BBox(world.min_x + px0 * px_w, world.min_y + py0 * px_h,
                        world.min_x + px1 * px_w, world.min_y + py1 * px_h);
      if (tile.width > 0 && tile.height > 0) tiles.push_back(tile);
    }
  }
  return tiles;
}

CanvasTile SingleCanvas(const BBox& world, std::int32_t width,
                        std::int32_t height) {
  CanvasTile tile;
  tile.world = world;
  tile.width = width;
  tile.height = height;
  return tile;
}

}  // namespace rj::raster
