#include "agg/result_range.h"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "geometry/clip.h"
#include "raster/conservative.h"
#include "raster/rasterizer.h"

namespace rj {

namespace {

/// Packs a pixel coordinate into one 64-bit key.
inline std::uint64_t PixelKey(std::int32_t x, std::int32_t y) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) << 32) |
         static_cast<std::uint32_t>(y);
}

}  // namespace

Result<ResultRanges> ComputeResultRanges(const raster::Viewport& vp,
                                         const PolygonSet& polys,
                                         const TriangleSoup& soup,
                                         const raster::Fbo& point_fbo,
                                         const std::vector<double>& approx,
                                         gpu::Counters* counters) {
  const std::size_t n = polys.size();
  if (approx.size() != n) {
    return Status::InvalidArgument(
        "approximate result size does not match polygon count");
  }

  // Group triangles by polygon id for per-polygon coverage queries.
  std::vector<std::vector<const Triangle*>> tris_of(n);
  for (const Triangle& t : soup) {
    if (t.polygon_id < 0 || static_cast<std::size_t>(t.polygon_id) >= n) {
      return Status::InvalidArgument("triangle with out-of-range polygon id");
    }
    tris_of[static_cast<std::size_t>(t.polygon_id)].push_back(&t);
  }

  ResultRanges out;
  out.loose.resize(n);
  out.expected.resize(n);

  // Classifies each polygon's boundary pixels and fills its intervals; the
  // pixels touched are the fragment meter's contribution.
  std::uint64_t fragments = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Regular coverage: pixels whose center the triangulation covers.
    std::unordered_set<std::uint64_t> regular;
    for (const Triangle* t : tris_of[i]) {
      raster::RasterizeTriangle(
          vp.ToScreen(t->a), vp.ToScreen(t->b), vp.ToScreen(t->c),
          point_fbo.width(), point_fbo.height(),
          [&regular](std::int32_t x, std::int32_t y) {
            regular.insert(PixelKey(x, y));
          });
    }
    // Conservative coverage: every pixel the polygon touches at all.
    std::unordered_set<std::uint64_t> conservative;
    for (const Triangle* t : tris_of[i]) {
      raster::RasterizeTriangleConservative(
          vp.ToScreen(t->a), vp.ToScreen(t->b), vp.ToScreen(t->c),
          point_fbo.width(), point_fbo.height(),
          [&conservative](std::int32_t x, std::int32_t y) {
            conservative.insert(PixelKey(x, y));
          });
    }

    double loose_plus = 0.0, loose_minus = 0.0;
    double exp_plus = 0.0, exp_minus = 0.0;

    // False-positive candidates: regular pixels only partially inside the
    // polygon (the outline crosses them). Fraction f = covered area ratio;
    // the (1 - f) share of their count may be spurious.
    for (const std::uint64_t key : regular) {
      const std::int32_t x = static_cast<std::int32_t>(key >> 32);
      const std::int32_t y = static_cast<std::int32_t>(key & 0xFFFFFFFFu);
      const double cnt = point_fbo.At(x, y, raster::kChannelCount);
      if (cnt == 0.0) continue;
      const double f =
          PolygonRectCoverageFraction(polys[i], vp.PixelWorldRect(x, y));
      if (f < 1.0) {
        loose_plus += cnt;
        exp_plus += (1.0 - f) * cnt;
      }
    }
    // False-negative candidates: conservatively-covered pixels that regular
    // rasterization skipped. The f share of their count may be missing.
    for (const std::uint64_t key : conservative) {
      if (regular.count(key) != 0) continue;
      const std::int32_t x = static_cast<std::int32_t>(key >> 32);
      const std::int32_t y = static_cast<std::int32_t>(key & 0xFFFFFFFFu);
      const double cnt = point_fbo.At(x, y, raster::kChannelCount);
      if (cnt == 0.0) continue;
      const double f =
          PolygonRectCoverageFraction(polys[i], vp.PixelWorldRect(x, y));
      loose_minus += cnt;
      exp_minus += f * cnt;
    }

    out.loose[i] = {approx[i] - loose_plus, approx[i] + loose_minus};
    out.expected[i] = {approx[i] - exp_plus, approx[i] + exp_minus};
    fragments += regular.size() + conservative.size();
  }
  if (counters != nullptr) counters->AddFragments(fragments);
  return out;
}

}  // namespace rj
