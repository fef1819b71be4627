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

#include "common/thread_pool.h"
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
/// into `fbo`. The single definition shared by the sequential and staged
/// paths (and the accurate join) — the bitwise-determinism guarantee
/// requires every path to perform these exact operations in this order.
inline void BlendPointFrag(Fbo* fbo, const PointFrag& f, bool has_weight) {
  fbo->Add(f.x, f.y, kChannelCount, 1.0f);
  if (has_weight) {
    fbo->Add(f.x, f.y, kChannelSum, f.w);
    fbo->BlendMin(f.x, f.y, kChannelMin, f.w);
    fbo->BlendMax(f.x, f.y, kChannelMax, f.w);
  }
}

/// Deterministic sort-middle staging for parallel additive blending.
///
/// The canvas is tiled into horizontal row bands, one exclusive owner per
/// band. Producers (the parallel "vertex stage") append fragments into a
/// per-(chunk, band) bucket; consumers (the parallel "fragment stage") each
/// replay one band's buckets in ascending chunk order. Because ParallelFor
/// chunks are contiguous ascending index ranges, every pixel sees its
/// fragments in exactly the order a sequential loop would produce — the
/// N-thread result is bitwise identical to the 1-thread result.
class BandBinner {
 public:
  /// `num_chunks` producer chunks over a canvas of `height` rows.
  /// `expected_frags` (when non-zero) pre-sizes the buckets for a uniform
  /// spread, avoiding growth reallocations on the hot path.
  BandBinner(std::size_t num_chunks, std::int32_t height,
             std::size_t expected_frags = 0);

  std::size_t num_bands() const { return num_bands_; }

  /// Appends a fragment produced by chunk `chunk` (its ParallelFor index).
  void Push(std::size_t chunk, const PointFrag& f) {
    buckets_[chunk * num_bands_ + BandOf(f.y)].push_back(f);
  }

  /// Invokes `fn(frag)` for every fragment of bands [band_begin, band_end),
  /// band by band, in ascending chunk order within each band.
  template <typename Fn>
  void ReplayBands(std::size_t band_begin, std::size_t band_end,
                   const Fn& fn) const {
    for (std::size_t b = band_begin; b < band_end; ++b) {
      for (std::size_t c = 0; c < num_chunks_; ++c) {
        for (const PointFrag& f : buckets_[c * num_bands_ + b]) fn(f);
      }
    }
  }

 private:
  std::size_t BandOf(std::int32_t y) const {
    return static_cast<std::size_t>(y) * num_bands_ /
           static_cast<std::size_t>(height_);
  }

  std::size_t num_chunks_;
  std::size_t num_bands_;
  std::int32_t height_;
  std::vector<std::vector<PointFrag>> buckets_;
};

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
/// disjoint, and each target sees its fragments in row order. When `pool`
/// has more than one worker the pass runs tiled-parallel: the vertex stage
/// splits the rows across workers and stages fragments per row band, one
/// BandBinner per target (same band layout — the FBOs share a height), and
/// the fragment stage blends each band on its owning worker in row order,
/// so results are also bitwise identical for any worker count.
///
/// Counters meter the shared scan once: vertices += end − begin (not once
/// per target), fragments += the sum of the per-target drawn counts.
std::vector<std::uint64_t> DrawPointsMulti(
    const Viewport& vp, const PointTable& rows, std::size_t begin,
    std::size_t end, const std::vector<MultiTarget>& targets,
    gpu::Counters* counters, ThreadPool* pool = nullptr);

/// Procedure DrawPoints (§4.1) for one target over the whole table: the
/// one-target DrawPointsMulti, metered the same way. Returns the number of
/// points drawn.
std::uint64_t DrawPoints(const Viewport& vp, const PointTable& points,
                         const FilterSet& filters, std::size_t weight_column,
                         Fbo* fbo, gpu::Counters* counters,
                         ThreadPool* pool = nullptr);

/// Procedure DrawPolygons (§4.1): rasterizes the triangle soup (world
/// coordinates) and, for each fragment of polygon i, adds the point FBO's
/// partial aggregates at that pixel into `result` slot i.
/// If `boundary` is non-null, fragments on its marked pixels are skipped
/// (Procedure AccuratePolygons, §4.3).
///
/// When `pool` has more than one worker, triangles are split across
/// workers, each accumulating into a private ResultArrays + gpu::Counters
/// merged in chunk order at the end. COUNT/MIN/MAX merge exactly; SUM is
/// merged per worker, so it matches the sequential result exactly whenever
/// the partial sums are exactly representable (e.g. integer weights).
void DrawPolygons(const Viewport& vp, const TriangleSoup& soup,
                  const Fbo& point_fbo, const BoundaryMask* boundary,
                  ResultArrays* result, gpu::Counters* counters,
                  ThreadPool* pool = nullptr);

/// Step 1 of the accurate variant (§4.3): marks every pixel of all polygon
/// outlines (outer rings and holes) in `boundary`, whose size is the
/// canvas. Conservative rasterization guarantees no partially-covered
/// pixel is missed.
///
/// When `pool` has more than one worker, polygons are split across workers
/// with their outline fragments staged per row band (BandBinner) and each
/// band's pixels marked by its owning worker — bands own whole rows and
/// rows own whole words, so no two workers write one word, and the marks
/// are idempotent, so the mask is bitwise identical to the sequential
/// pass and the fragment meter counts every mark exactly as the
/// sequential loop.
void DrawBoundaries(const Viewport& vp, const PolygonSet& polys,
                    bool conservative, BoundaryMask* boundary,
                    gpu::Counters* counters, ThreadPool* pool = nullptr);

}  // namespace rj::raster
