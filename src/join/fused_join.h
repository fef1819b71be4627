/// \file fused_join.h
/// \brief The raster join cores: one bounded (§4.1–4.2) and one accurate
/// (§4.3) execution, each serving a group of members from one point scan.
///
/// The paper's raster joins are bottlenecked by the point pass — upload +
/// rasterization touch every point, while the polygon pass touches only the
/// (much smaller) polygon set. A group of compatible queries therefore
/// shares the scan: one BatchPipeline upload, one vertex stage per point,
/// and per-member fragment accumulation targets (raster::DrawPointsMulti;
/// the paper's §8 extension of several aggregates from one pass via
/// multiple FBO attachments), followed by a per-member polygon pass over
/// the member's own FBO. A solo query is a group of one: BoundedRasterJoin
/// and AccurateRasterJoin plan their scan and run these cores with one
/// member, and the Executor runs every query — solo or fused — through
/// them. Each core streams the ScanPlan it is given (join_common.h:
/// PlanTableScan for a resident table, PlanBlockScan for a block source).
///
/// Compatibility is structural: members must agree on everything that shapes
/// the shared scan — the dataset, the variant, and the canvas (ε for
/// bounded, canvas_dim for accurate). Aggregates, weight columns, filters,
/// and §5 range requests are free per member. The accurate core's
/// polygon-side state (boundary mask and grid index, AccurateCanvas) is
/// not even per group: the caller prepares it, and the Executor shares one
/// per canvas size across every shard, member and query.
///
/// Determinism contract: every member's arrays / ranges / exported FBO are
/// bitwise identical to running that member alone with any batch size,
/// block size or pruning setting. Per-member FBOs are disjoint, the shared
/// transform is a pure function of the point, and per-pixel blend order
/// within one member is the sequential point order regardless of batch
/// boundaries (batches are contiguous ascending ranges — the same argument
/// docs/SERVICE.md makes for the pipeline). A block is scanned when any
/// member may match it; a member that cannot match a block's rows draws
/// nothing from them, so the union scan changes no member's result.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "agg/result_range.h"
#include "gpu/device.h"
#include "join/join_common.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "raster/fbo.h"
#include "raster/fbo_pool.h"
#include "raster/viewport.h"
#include "triangulate/triangulation.h"

namespace rj {

/// The per-member half of a group: what may differ across members.
struct FusedMemberSpec {
  /// Aggregated attribute column (npos = COUNT-only member).
  std::size_t weight_column = PointTable::npos;

  /// Filter constraints evaluated in the shared vertex stage.
  FilterSet filters;

  /// Compute §5 result ranges for this member in the core (bounded
  /// variant only; requires a single-tile canvas). The per-call
  /// BoundedRasterJoin sets it; the Executor exports the FBO instead.
  bool compute_result_ranges = false;

  /// Export this member's post-Step-I point FBO (bounded variant only;
  /// single-tile canvas). The gather hook: per-shard point FBOs sum
  /// pixel-wise to exactly the FBO one scan of every row draws
  /// (integer-valued channel partials), letting the Executor compute §5
  /// ranges bitwise-identically for any shard count (docs/SERVICE.md).
  bool export_point_fbo = false;
};

/// What one execution produces: slot i belongs to the i-th member.
/// `timing` is group-level — the scan is shared, so per-member phase
/// attribution would be fiction; callers replicate it across members.
struct FusedJoinOutput {
  std::vector<raster::ResultArrays> arrays;
  std::vector<ResultRanges> ranges;  ///< empty unless the member asked
  /// The member's pooled point canvas, handed over (not copied) when it
  /// asked for export_point_fbo; an empty lease otherwise.
  std::vector<raster::FboLease> point_fbos;
  PhaseTimer timing;
};

/// Columns of the group's upload: the union of every member's
/// UploadColumns, ascending. The single definition shared by the cores and
/// the Executor's admission plan — the grant must cover exactly the stride
/// the pipeline ships (same contract as TriangleVboBytes).
std::vector<std::size_t> FusedUploadColumns(
    const std::vector<FusedMemberSpec>& members);

/// Bounded raster join (§4.1–4.2) for a group sharing the Hausdorff bound
/// `epsilon` (which defines the canvas): one triangle-VBO upload, one
/// BatchPipeline scan, one DrawPointsMulti per tile/batch, then a
/// per-member DrawPolygons + optional §5 ranges. `stats` (optional)
/// receives group-level diagnostics; points_drawn sums the members' draws.
Result<FusedJoinOutput> FusedBoundedRasterJoin(
    gpu::Device* device, ScanPlan scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world, double epsilon,
    const std::vector<FusedMemberSpec>& members,
    BoundedRasterJoinStats* stats = nullptr);

/// Accurate raster join (§4.3) for a group on a prepared canvas (Step 1's
/// boundary mask and the grid index — PrepareAccurateCanvas); the core
/// reads it and builds nothing, so any number of concurrent joins may
/// share one. Steps 2 and 3 run here: one shared scan classifies each
/// point against the mask, each boundary point's containing polygons are
/// resolved once and accumulated into every matching member, and each
/// member's polygon pass skips the marked pixels. PIP tests — and the
/// boundary/interior point counts in `stats` — are metered once per point
/// (not per member): shared work is the point of fusion, and the counters
/// reflect the work actually executed. The canvas must fit the device
/// (ResolveAccurateCanvasDim).
Result<FusedJoinOutput> FusedAccurateRasterJoin(
    gpu::Device* device, ScanPlan scan, const PolygonSet& polys,
    const TriangleSoup& soup, const AccurateCanvas& canvas,
    const std::vector<FusedMemberSpec>& members,
    AccurateRasterJoinStats* stats = nullptr);

}  // namespace rj
