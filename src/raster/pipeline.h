/// \file pipeline.h
/// \brief Draw calls composing the raster join: point pass, polygon pass,
/// outline pass (bounded/accurate variants, §4 of the paper).
///
/// Each function plays the role of one vertex+fragment shader pair in the
/// paper's OpenGL implementation (§6.1). The "vertex stage" applies filter
/// constraints and the world→screen transform; the "fragment stage" blends
/// into the FBO or accumulates into the result SSBO analogue.
#pragma once

#include <cstdint>
#include <vector>

#include "data/point_table.h"
#include "gpu/counters.h"
#include "query/filter.h"
#include "raster/boundary_mask.h"
#include "raster/fbo.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj::raster {

/// Accumulator slots per polygon (the SSBO array A of the paper, one copy
/// for counts and one for attribute sums so AVG can be formed).
struct ResultArrays {
  std::vector<double> count;  ///< A2 in §5: number of joined points
  std::vector<double> sum;    ///< A1 in §5: sum of the aggregated attribute
  std::vector<double> min;    ///< running minimum of the attribute
  std::vector<double> max;    ///< running maximum of the attribute

  explicit ResultArrays(std::size_t num_polygons = 0) { Resize(num_polygons); }
  void Resize(std::size_t num_polygons);
  void AddFrom(const ResultArrays& other);
};

/// One staged point fragment: screen position plus the pre-fetched weight
/// attribute (0 when the query has no weight column).
struct PointFrag {
  std::int32_t x;
  std::int32_t y;
  float w;
};

/// The point-pass fragment stage: blends one fragment's partial aggregate
/// into `fbo`. The single definition shared by the point pass and the
/// accurate join — the bitwise-determinism guarantee requires both to
/// perform these exact operations in this order.
inline void BlendPointFrag(Fbo* fbo, const PointFrag& f, bool has_weight) {
  fbo->Add(f.x, f.y, kChannelCount, 1.0f);
  if (has_weight) {
    fbo->Add(f.x, f.y, kChannelSum, f.w);
    fbo->BlendMin(f.x, f.y, kChannelMin, f.w);
    fbo->BlendMax(f.x, f.y, kChannelMax, f.w);
  }
}

/// Rows per tile of the point pass: a tile's staged pixels stay in L1.
inline constexpr std::size_t kPointTile = 512;

/// The point pass's vertex stage for one tile — rows [first, first + n)
/// of `rows`, n ≤ kPointTile — shared by every consumer of the tile: the
/// pixel (px[r], py[r]) of each row under `vp` on a width × height canvas,
/// the floor of its screen position, or px[r] = py[r] = -1 when the row
/// falls outside the canvas (clipped by the pipeline).
void TransformTile(const Viewport& vp, const PointTable& rows,
                   std::size_t first, std::size_t n, std::int32_t width,
                   std::int32_t height, std::int32_t* px, std::int32_t* py);

/// One target of the point pass (DrawPointsMulti): the target's filters
/// decide which points it sees, its weight column supplies the blended
/// attribute, and its FBO receives the fragments. The FBOs of one pass must
/// be distinct and share one canvas size.
struct MultiTarget {
  const FilterSet* filters = nullptr;
  std::size_t weight_column = PointTable::npos;
  Fbo* fbo = nullptr;
};

/// Procedure DrawPoints (§4.1) for a group of targets: one scan of rows
/// [begin, end) of `rows`, drawn in place, feeding every target. The
/// vertex stage runs once per point for the whole group — the
/// world→screen transform and clip, one tile of rows at a time — then
/// each target selects the tile's rows its filters accept (evaluated
/// branch-free, FilterSet::MatchRows) and blends them into its own FBO
/// with additive blending (channel 0 += 1, channel 1 += the weight
/// attribute, channels 2/3 track min/max). Points outside the viewport are
/// clipped. Returns the per-target drawn counts (post-filter, post-clip).
///
/// Every target's FBO is bitwise identical to drawing that target alone:
/// the shared transform is a pure function of the point, the FBOs are
/// disjoint, and each target sees its fragments in row order.
///
/// Counters meter the shared scan once: vertices += end − begin (not once
/// per target), fragments += the sum of the per-target drawn counts.
std::vector<std::uint64_t> DrawPointsMulti(
    const Viewport& vp, const PointTable& rows, std::size_t begin,
    std::size_t end, const std::vector<MultiTarget>& targets,
    gpu::Counters* counters);

/// Procedure DrawPoints (§4.1) for one target over the whole table: the
/// one-target DrawPointsMulti, metered the same way. Returns the number of
/// points drawn.
std::uint64_t DrawPoints(const Viewport& vp, const PointTable& points,
                         const FilterSet& filters, std::size_t weight_column,
                         Fbo* fbo, gpu::Counters* counters);

/// Procedure DrawPolygons (§4.1): rasterizes the triangle soup (world
/// coordinates) and, for each fragment of polygon i, adds the point FBO's
/// partial aggregates at that pixel into `result` slot i.
/// If `boundary` is non-null, fragments on its marked pixels are skipped
/// (Procedure AccuratePolygons, §4.3).
void DrawPolygons(const Viewport& vp, const TriangleSoup& soup,
                  const Fbo& point_fbo, const BoundaryMask* boundary,
                  ResultArrays* result, gpu::Counters* counters);

/// Step 1 of the accurate variant (§4.3): marks every pixel of all polygon
/// outlines (outer rings and holes) in `boundary`, whose size is the
/// canvas. Conservative rasterization guarantees no partially-covered
/// pixel is missed.
void DrawBoundaries(const Viewport& vp, const PolygonSet& polys,
                    bool conservative, BoundaryMask* boundary,
                    gpu::Counters* counters);

}  // namespace rj::raster
