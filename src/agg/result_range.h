/// \file result_range.h
/// \brief Result-range estimation for the bounded raster join (§5).
///
/// Only boundary pixels contribute approximation error. For polygon i, let
/// P+ be its false-positive pixels (counted but possibly outside) and P-
/// its false-negative pixels (not counted but possibly inside). Then:
///  * loose bounds  : [A[i] - Σ_{P+} F(x,y),  A[i] + Σ_{P-} F(x,y)]
///    hold with 100% confidence;
///  * expected bounds weight each pixel's contribution by the fraction of
///    the pixel's area that intersects the polygon (uniform-in-pixel
///    assumption), giving much tighter intervals.
///
/// False-positive pixels are those covered by regular rasterization that
/// the outline crosses; false-negative pixels are covered by conservative
/// rasterization but not by regular rasterization (§6.1).
#pragma once

#include <vector>

#include "common/status.h"
#include "geometry/polygon.h"
#include "gpu/counters.h"
#include "raster/fbo.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {

/// Closed interval around an approximate aggregate value.
struct ResultInterval {
  double lower = 0.0;
  double upper = 0.0;

  bool Contains(double v) const { return v >= lower && v <= upper; }
  double Width() const { return upper - lower; }
};

/// Per-polygon intervals for a COUNT query.
struct ResultRanges {
  std::vector<ResultInterval> loose;     ///< 100%-confidence bounds
  std::vector<ResultInterval> expected;  ///< uniform-assumption bounds
};

/// Computes result ranges for the bounded raster join.
///
/// \param vp        viewport of the (single-tile) canvas
/// \param polys     the polygon set (ids must be 0..n-1)
/// \param soup      triangulation of `polys` (for regular-coverage tests)
/// \param point_fbo the point FBO after DrawPoints
/// \param approx    the approximate per-polygon COUNT from the bounded join
/// Uses conservative vs regular rasterization of each polygon to classify
/// its boundary pixels into P+ / P-, then applies the §5 formulas with
/// exact pixel∩polygon area fractions for the expected bounds.
Result<ResultRanges> ComputeResultRanges(const raster::Viewport& vp,
                                         const PolygonSet& polys,
                                         const TriangleSoup& soup,
                                         const raster::Fbo& point_fbo,
                                         const std::vector<double>& approx,
                                         gpu::Counters* counters = nullptr);

}  // namespace rj
