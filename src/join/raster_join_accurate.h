/// \file raster_join_accurate.h
/// \brief Accurate Raster Join (§4.3): exact spatial aggregation that
/// performs point-in-polygon tests only for points on boundary pixels.
///
/// Three steps on one canvas:
///   1. Mark all polygon outlines in a boundary mask with conservative
///      rasterization (no partially-covered pixel may be missed), and
///      build the MBR grid index Procedure JoinPoint probes (§6.1). Both
///      depend only on the polygons, the world and the canvas size:
///      PrepareAccurateCanvas builds them into an immutable AccurateCanvas.
///   2. Draw points: a point landing on a boundary pixel is resolved with
///      exact PIP tests against the grid-index candidates (Procedure
///      JoinPoint); every other point is blended into the point FBO.
///   3. Render polygons, skipping fragments on boundary pixels (those
///      points were already handled in step 2).
///
/// Steps 2 and 3 are the one accurate core (FusedAccurateRasterJoin,
/// join/fused_join.h), which reads a prepared canvas and builds nothing.
/// Both overloads below prepare a canvas per call, plan their scan —
/// batch slices of the resident table, or the zone-map-selected blocks of
/// a block source — and run the core as a group of one; the Executor
/// prepares each canvas once and shares it across shards, fusion members
/// and queries.
#pragma once

#include <memory>

#include "gpu/device.h"
#include "index/grid_index.h"
#include "join/join_common.h"
#include "raster/boundary_mask.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {

/// The canvas side an accurate join renders on: `requested`, or the
/// device's max_fbo_dim when `requested` is 0. InvalidArgument when the
/// result is not positive or exceeds max_fbo_dim — the device cannot hold
/// a larger FBO. Every accurate layer resolves through this one function.
Result<std::int32_t> ResolveAccurateCanvasDim(std::int32_t requested,
                                              const gpu::Device& device);

/// The accurate join's polygon-side state on one dim × dim canvas over
/// `world`: Step 1's boundary mask and the MBR grid index of Procedure
/// JoinPoint. A pure function of (polygons, world, dim, index
/// resolution), immutable once built, so one copy serves any number of
/// concurrent joins on that canvas.
struct AccurateCanvas {
  BBox world;
  std::int32_t dim = 0;
  raster::BoundaryMask boundary;
  std::shared_ptr<const GridIndex> index;
};

/// Prepares the canvas: builds the MBR grid index at `index_resolution`
/// over `world`, then marks the conservative polygon outlines (see the
/// overload below). When `timing` is set, the index build is recorded
/// under phase::kIndexBuild and the boundary pass under
/// phase::kProcessing.
Result<AccurateCanvas> PrepareAccurateCanvas(
    const PolygonSet& polys, const BBox& world, std::int32_t dim,
    std::int32_t index_resolution, gpu::Counters* counters,
    PhaseTimer* timing = nullptr);

/// Prepares the canvas around an already-built MBR grid index over
/// `world` (the Executor shares one index across its canvases and the
/// device index join): marks the polygon outlines with conservative
/// rasterization, metering the boundary pass's fragments into `counters`
/// once. `dim` must be positive (see ResolveAccurateCanvasDim).
Result<AccurateCanvas> PrepareAccurateCanvas(
    const PolygonSet& polys, const BBox& world, std::int32_t dim,
    std::shared_ptr<const GridIndex> index, gpu::Counters* counters);

struct AccurateRasterJoinOptions {
  /// Canvas resolution (single tile; the accurate variant needs no ε, the
  /// paper uses the device's maximum FBO resolution).
  std::int32_t canvas_dim = 0;  ///< 0 = device max_fbo_dim

  /// Grid-index resolution for Procedure JoinPoint (paper: 1024²).
  std::int32_t index_resolution = kDefaultGridResolution;

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
