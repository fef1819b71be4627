#include "raster/pipeline.h"

#include <algorithm>
#include <limits>

#include "raster/conservative.h"
#include "raster/rasterizer.h"

namespace rj::raster {

void ResultArrays::Resize(std::size_t num_polygons) {
  count.assign(num_polygons, 0.0);
  sum.assign(num_polygons, 0.0);
  min.assign(num_polygons, std::numeric_limits<double>::infinity());
  max.assign(num_polygons, -std::numeric_limits<double>::infinity());
}

void ResultArrays::AddFrom(const ResultArrays& other) {
  for (std::size_t i = 0; i < count.size(); ++i) {
    count[i] += other.count[i];
    sum[i] += other.sum[i];
    min[i] = std::min(min[i], other.min[i]);
    max[i] = std::max(max[i], other.max[i]);
  }
}

void TransformTile(const Viewport& vp, const data::BlockView& rows,
                   std::size_t first, std::size_t n, std::int32_t width,
                   std::int32_t height, std::int32_t* px, std::int32_t* py) {
  const auto w = static_cast<double>(width);
  const auto h = static_cast<double>(height);
  for (std::size_t r = 0; r < n; ++r) {
    const Point s = vp.ToScreen(rows.At(first + r));
    // Inside the canvas truncation is the floor, so the clip runs on the
    // continuous position and no floor is computed.
    const bool inside = s.x >= 0.0 && s.x < w && s.y >= 0.0 && s.y < h;
    px[r] = inside ? static_cast<std::int32_t>(s.x) : -1;
    py[r] = inside ? static_cast<std::int32_t>(s.y) : -1;
  }
}

namespace {

/// The point pass over the rows of `rows`, one tile at a time: the
/// shared vertex stage (TransformTile), then, per target, the rows that
/// pass the target's filters and were not clipped are selected
/// branch-free and blended into the target's FBO in row order; drawn[t]
/// counts them.
void ShadeRows(const Viewport& vp, const data::BlockView& rows,
               const std::vector<MultiTarget>& targets,
               const std::vector<const float*>& weights, std::uint64_t* drawn) {
  std::int32_t px[kPointTile] = {};
  std::int32_t py[kPointTile] = {};
  unsigned char match[kPointTile] = {};
  std::uint32_t selected[kPointTile] = {};
  for (std::size_t tile = 0; tile < rows.size; tile += kPointTile) {
    const std::size_t n = std::min(rows.size - tile, kPointTile);
    TransformTile(vp, rows, tile, n, targets[0].fbo->width(),
                  targets[0].fbo->height(), px, py);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      targets[t].filters->MatchRows(rows, tile, tile + n, match);
      std::size_t k = 0;
      for (std::size_t r = 0; r < n; ++r) {
        selected[k] = static_cast<std::uint32_t>(r);
        k += match[r] & static_cast<unsigned char>(px[r] >= 0);
      }
      Fbo* fbo = targets[t].fbo;
      const float* w = weights[t];
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t r = selected[j];
        BlendPointFrag(
            fbo, PointFrag{px[r], py[r], w != nullptr ? w[tile + r] : 0.0f},
            w != nullptr);
      }
      drawn[t] += k;
    }
  }
}

}  // namespace

std::vector<std::uint64_t> DrawPointsMulti(
    const Viewport& vp, const data::BlockView& rows,
    const std::vector<MultiTarget>& targets, gpu::Counters* counters) {
  const std::size_t m = targets.size();
  std::vector<std::uint64_t> drawn(m, 0);
  if (m == 0) return drawn;

  // Per-target weight column (null: COUNT-only target).
  std::vector<const float*> weights(m, nullptr);
  for (std::size_t t = 0; t < m; ++t) {
    if (targets[t].weight_column != PointTable::npos) {
      weights[t] = rows.attribute(targets[t].weight_column);
    }
  }
  ShadeRows(vp, rows, targets, weights, drawn.data());

  if (counters != nullptr) {
    // The scan is shared: meter the vertex stage once for the whole group,
    // and the fragment stage as the sum of what every target blended.
    counters->AddVerticesProcessed(rows.size);
    std::uint64_t total = 0;
    for (const std::uint64_t d : drawn) total += d;
    counters->AddFragments(total);
  }
  return drawn;
}

std::uint64_t DrawPoints(const Viewport& vp, const PointTable& points,
                         const FilterSet& filters, std::size_t weight_column,
                         Fbo* fbo, gpu::Counters* counters) {
  return DrawPointsMulti(vp, data::ViewRows(points, 0, points.size()),
                         {MultiTarget{&filters, weight_column, fbo}},
                         counters)[0];
}

void DrawPolygons(const Viewport& vp, const TriangleSoup& soup,
                  const Fbo& point_fbo, const BoundaryMask* boundary,
                  ResultArrays* result, gpu::Counters* counters) {
  const bool min_max_tracked = !result->min.empty();
  // Meters kept in plain integers so the fragment loop never touches the
  // shared atomics; added to `counters` once at the end.
  std::uint64_t fragments = 0;
  std::uint64_t atomics = 0;
  for (const Triangle& tri : soup) {
    const std::size_t id = static_cast<std::size_t>(tri.polygon_id);
    const Point a = vp.ToScreen(tri.a);
    const Point b = vp.ToScreen(tri.b);
    const Point c = vp.ToScreen(tri.c);
    ScanTriangleSpans(
        a, b, c, point_fbo.width(), point_fbo.height(),
        [&](std::int32_t y, std::int32_t x_lo, std::int32_t x_hi) {
          fragments += x_hi - x_lo + 1;
          for (std::int32_t x = x_lo; x <= x_hi; ++x) {
            if (boundary != nullptr && boundary->IsMarked(x, y)) {
              // Accurate variant: boundary pixels were handled
              // point-by-point.
              continue;
            }
            const float cnt = point_fbo.At(x, y, kChannelCount);
            if (cnt == 0.0f) continue;  // empty pixel, nothing to accumulate
            result->count[id] += cnt;
            result->sum[id] += point_fbo.At(x, y, kChannelSum);
            if (min_max_tracked) {
              result->min[id] = std::min(
                  result->min[id],
                  static_cast<double>(point_fbo.At(x, y, kChannelMin)));
              result->max[id] = std::max(
                  result->max[id],
                  static_cast<double>(point_fbo.At(x, y, kChannelMax)));
            }
            ++atomics;
          }
        });
  }

  if (counters != nullptr) {
    counters->AddVerticesProcessed(soup.size() * 3);
    counters->AddFragments(fragments);
    counters->AddAtomicAdds(atomics);
  }
}

void DrawBoundaries(const Viewport& vp, const PolygonSet& polys,
                    bool conservative, BoundaryMask* boundary,
                    gpu::Counters* counters) {
  const std::int32_t width = boundary->width();
  const std::int32_t height = boundary->height();
  std::uint64_t fragments = 0;
  const auto mark = [&](std::int32_t x, std::int32_t y) {
    boundary->Mark(x, y);
    ++fragments;
  };
  const auto draw_ring = [&](const Ring& ring) {
    const std::size_t n = ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Point a = vp.ToScreen(ring[i]);
      const Point b = vp.ToScreen(ring[(i + 1) % n]);
      if (conservative) {
        RasterizeSegmentConservative(a, b, width, height, mark);
      } else {
        RasterizeSegment(a, b, width, height, mark);
      }
    }
  };
  for (const Polygon& poly : polys) {
    draw_ring(poly.outer());
    for (const Ring& hole : poly.holes()) draw_ring(hole);
  }
  if (counters != nullptr) counters->AddFragments(fragments);
}

}  // namespace rj::raster
