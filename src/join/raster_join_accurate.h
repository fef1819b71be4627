/// \file raster_join_accurate.h
/// \brief Accurate Raster Join (§4.3): exact spatial aggregation that
/// performs point-in-polygon tests only for points on boundary pixels.
///
/// Three steps (per canvas tile, per point batch):
///   1. Draw all polygon outlines into a boundary FBO with conservative
///      rasterization (no partially-covered pixel may be missed).
///   2. Draw points: a point landing on a boundary pixel is resolved with
///      exact PIP tests against the grid-index candidates (Procedure
///      JoinPoint); every other point is blended into the point FBO.
///   3. Render polygons, skipping fragments on boundary pixels (those
///      points were already handled in step 2).
///
/// Both overloads plan their scan once — batch slices of the resident
/// table, or the zone-map-selected blocks of a block source — and run the
/// one accurate core (FusedAccurateRasterJoin, join/fused_join.h) as a
/// group of one.
#pragma once

#include "gpu/device.h"
#include "index/grid_index.h"
#include "join/join_common.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {

struct AccurateRasterJoinOptions {
  /// Canvas resolution (single tile; the accurate variant needs no ε, the
  /// paper uses the device's maximum FBO resolution).
  std::int32_t canvas_dim = 0;  ///< 0 = device max_fbo_dim

  /// Grid-index resolution for Procedure JoinPoint (paper: 1024²).
  std::int32_t index_resolution = 1024;

  std::size_t weight_column = PointTable::npos;
  FilterSet filters;

  /// Maximum points per device batch (0 = derive from memory budget).
  std::size_t batch_size = 0;

  /// Prefetch batch b+1 while batch b draws (join::BatchPipeline; two
  /// point VBOs in flight). See BoundedRasterJoinOptions.
  bool overlap_transfers = true;

  /// Block-source executions only: zone-map pruning (see
  /// BoundedRasterJoinOptions::enable_block_pruning).
  bool enable_block_pruning = true;
};

struct AccurateRasterJoinStats {
  std::uint64_t boundary_points = 0;  ///< points that needed PIP resolution
  std::uint64_t interior_points = 0;  ///< points on the fast raster path
  std::uint64_t pip_tests = 0;        ///< exact tests actually executed
  std::size_t num_batches = 0;
  std::size_t blocks_pruned = 0;      ///< block-source executions only
};

/// Executes the accurate raster join; results are exact (equal to
/// ReferenceJoin) for any canvas resolution.
Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const PointTable& points,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats = nullptr);

/// Block-source execution (see the BoundedRasterJoin overload): streams
/// the zone-map-selected blocks; bitwise identical to the in-memory
/// overload on the materialized source.
Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const data::PointBlockSource& source,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats = nullptr);

}  // namespace rj
