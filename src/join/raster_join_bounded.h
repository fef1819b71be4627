/// \file raster_join_bounded.h
/// \brief Bounded Raster Join (§4.1–4.2): approximate, ε-Hausdorff-bounded
/// spatial aggregation with zero point-in-polygon tests.
///
/// Algorithm (per canvas tile, per point batch):
///   Step I  (DrawPoints)   — render points into an FBO whose pixels hold
///                            partial aggregates, via additive blending.
///   Step II (DrawPolygons) — rasterize the triangulated polygons over the
///                            same canvas; each fragment of polygon i adds
///                            its pixel's partial aggregate to A[i].
/// The pixel side ε' = ε/√2 guarantees the implicit polygon approximation
/// is within Hausdorff distance ε of the true polygon; when the implied
/// canvas exceeds the device FBO limit it is split into tiles (Fig. 5) and
/// the two steps are repeated per tile.
///
/// Both overloads plan their scan once — batch slices of the resident
/// table, or the zone-map-selected blocks of a block source — and run the
/// one bounded core (FusedBoundedRasterJoin, join/fused_join.h) as a group
/// of one.
#pragma once

#include <cstdint>
#include <optional>

#include "agg/result_range.h"
#include "gpu/device.h"
#include "join/join_common.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {

/// Options for one bounded raster join execution.
struct BoundedRasterJoinOptions {
  /// Hausdorff error bound ε in world units (paper default: 10 m for NYC,
  /// 1 km for US-extent data).
  double epsilon = 10.0;

  /// Aggregated attribute column (npos = COUNT-only query).
  std::size_t weight_column = PointTable::npos;

  /// Filter constraints evaluated in the vertex stage.
  FilterSet filters;

  /// Maximum points per device batch; 0 = derive from the device memory
  /// budget (out-of-core processing, §5).
  std::size_t batch_size = 0;

  /// Prefetch batch b+1 on a transfer thread while batch b draws
  /// (join::BatchPipeline), hiding the simulated PCIe wait behind the
  /// draw as the paper's Fig. 9/13 analysis assumes. Needs two point VBOs
  /// in flight (admission reserves 2× the upload stride). Off reproduces
  /// the serialized transfer→draw timing; results are bitwise identical
  /// either way.
  bool overlap_transfers = true;

  /// When set, also compute per-polygon result ranges (§5). Requires the
  /// canvas to fit in a single tile.
  bool compute_result_ranges = false;

  /// Block-source executions only: skip blocks whose zone map proves no
  /// row can pass the filters inside the canvas (SelectBlocks). Strictly
  /// conservative, so results are bitwise identical with pruning on or
  /// off — the knob exists for A/B timing and the determinism tests.
  bool enable_block_pruning = true;
};

/// Diagnostics of one bounded execution.
struct BoundedRasterJoinStats {
  std::size_t num_tiles = 0;
  std::size_t num_batches = 0;
  std::uint64_t points_drawn = 0;
  std::size_t blocks_pruned = 0;  ///< block-source executions only
};

/// Executes the bounded raster join on the simulated device.
///
/// `world` must cover the polygon set's extent (it defines the canvas).
/// Returns per-polygon partial aggregates; finalize with JoinResult::
/// Finalize. When options.compute_result_ranges is set, `ranges_out`
/// receives the §5 intervals (must be non-null in that case).
///
/// When `point_fbo_out` is non-null the post-Step-I point FBO is copied
/// out (single-tile canvases only — the same restriction as result
/// ranges).
Result<JoinResult> BoundedRasterJoin(gpu::Device* device,
                                     const PointTable& points,
                                     const PolygonSet& polys,
                                     const TriangleSoup& soup,
                                     const BBox& world,
                                     const BoundedRasterJoinOptions& options,
                                     BoundedRasterJoinStats* stats = nullptr,
                                     ResultRanges* ranges_out = nullptr,
                                     std::optional<raster::Fbo>* point_fbo_out =
                                         nullptr);

/// Block-source execution: streams the zone-map-selected blocks of
/// `source` (disk-resident files run the three-stage disk→host→device
/// pipeline; options.batch_size is ignored — the block capacity is the
/// batch size). Bitwise identical to running the in-memory overload on
/// the materialized source (data::MaterializeBlocks), for any block size
/// or pruning setting.
Result<JoinResult> BoundedRasterJoin(gpu::Device* device,
                                     const data::PointBlockSource& source,
                                     const PolygonSet& polys,
                                     const TriangleSoup& soup,
                                     const BBox& world,
                                     const BoundedRasterJoinOptions& options,
                                     BoundedRasterJoinStats* stats = nullptr,
                                     ResultRanges* ranges_out = nullptr,
                                     std::optional<raster::Fbo>* point_fbo_out =
                                         nullptr);

}  // namespace rj
