#include "viz/heatmap.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/math_utils.h"
#include "raster/rasterizer.h"
#include "raster/viewport.h"

namespace rj {

Rgb SequentialColor(double normalized, int classes) {
  const double q = Clamp(normalized, 0.0, 1.0);
  // Discretize into `classes` bins (sequential maps have limited
  // perceivable classes), then interpolate white → deep blue.
  const double binned =
      classes > 0 ? std::floor(q * classes) / std::max(1, classes - 1) : q;
  const double t = Clamp(binned, 0.0, 1.0);
  Rgb c;
  c.r = static_cast<std::uint8_t>(std::lround(255.0 * (1.0 - 0.85 * t)));
  c.g = static_cast<std::uint8_t>(std::lround(255.0 * (1.0 - 0.65 * t)));
  c.b = static_cast<std::uint8_t>(std::lround(255.0 * (1.0 - 0.25 * t)));
  return c;
}

Status HeatmapImage::WritePpm(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return Status::IOError("cannot open: " + path);
  out << "P6\n" << width_ << " " << height_ << "\n255\n";
  for (std::int32_t y = height_ - 1; y >= 0; --y) {  // +y up
    for (std::int32_t x = 0; x < width_; ++x) {
      const Rgb& p = At(x, y);
      out.put(static_cast<char>(p.r));
      out.put(static_cast<char>(p.g));
      out.put(static_cast<char>(p.b));
    }
  }
  out.flush();
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::vector<double> NormalizeValues(const std::vector<double>& values) {
  double max_v = 0.0;
  for (const double v : values) {
    if (!std::isnan(v)) max_v = std::max(max_v, v);
  }
  std::vector<double> out(values.size(), 0.0);
  if (max_v <= 0.0) return out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = std::isnan(values[i]) ? 0.0 : values[i] / max_v;
  }
  return out;
}

Result<HeatmapImage> RenderChoropleth(const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const std::vector<double>& values,
                                      std::int32_t width, std::int32_t height,
                                      int color_classes) {
  if (values.size() != polys.size()) {
    return Status::InvalidArgument("values size != polygon count");
  }
  HeatmapImage img(width, height);
  for (std::int32_t y = 0; y < height; ++y) {
    for (std::int32_t x = 0; x < width; ++x) img.At(x, y) = {255, 255, 255};
  }

  const BBox world = ComputeExtent(polys);
  raster::Viewport vp(world, width, height);
  const std::vector<double> norm = NormalizeValues(values);

  for (const Triangle& tri : soup) {
    const Rgb color =
        SequentialColor(norm[static_cast<std::size_t>(tri.polygon_id)],
                        color_classes);
    raster::ScanTriangleSpans(
        vp.ToScreen(tri.a), vp.ToScreen(tri.b), vp.ToScreen(tri.c), width,
        height,
        [&img, color](std::int32_t y, std::int32_t x_lo, std::int32_t x_hi) {
          std::fill(&img.At(x_lo, y), &img.At(x_hi, y) + 1, color);
        });
  }
  return img;
}

}  // namespace rj
