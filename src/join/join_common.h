/// \file join_common.h
/// \brief Shared declarations for the spatial-aggregation join operators.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "agg/aggregate.h"
#include "common/status.h"
#include "common/timer.h"
#include "data/point_block_source.h"
#include "data/point_table.h"
#include "geometry/bbox.h"
#include "geometry/polygon.h"
#include "gpu/counters.h"
#include "gpu/device.h"
#include "query/filter.h"

namespace rj {

/// Phase names used consistently across joins so benches can print the
/// paper's execution-time breakdowns (Figures 9, 11, 13).
namespace phase {
inline constexpr const char* kTransfer = "transfer";      ///< host→device
inline constexpr const char* kProcessing = "processing";  ///< device compute
inline constexpr const char* kTriangulation = "triangulation";
inline constexpr const char* kIndexBuild = "index_build";
inline constexpr const char* kDiskRead = "disk_read";
}  // namespace phase

/// Outcome of one join execution: per-polygon partial aggregates plus
/// timing/counter diagnostics.
struct JoinResult {
  raster::ResultArrays arrays;
  PhaseTimer timing;

  JoinResult() : arrays(0) {}
  explicit JoinResult(std::size_t num_polygons) : arrays(num_polygons) {}

  /// Finalized value of `kind` per polygon.
  std::vector<double> Finalize(AggregateKind kind) const {
    return FinalizeAggregate(kind, arrays);
  }
};

/// Validates that polygon ids are exactly 0..n-1 (the GROUP BY key layout
/// every operator assumes).
Status ValidatePolygonIds(const PolygonSet& polys);

/// Attribute columns shipped to the device for a query: the filters'
/// referenced columns plus the aggregated column (§5: "the data
/// corresponding to the attributes over which constraints are imposed is
/// also transferred to the GPU"). Filter columns first, weight appended if
/// not already present — the interleaved VBO layout every join uses.
std::vector<std::size_t> UploadColumns(const FilterSet& filters,
                                       std::size_t weight_column);

/// Width of one uploaded point for an explicit column set: [x, y, col...]
/// float32 interleaved (PointTable::DeviceBytesPerPoint is the single
/// definition of the layout).
inline std::size_t UploadStrideBytes(const std::vector<std::size_t>& columns) {
  return PointTable::DeviceBytesPerPoint(columns.size());
}

/// Width of one uploaded point: [x, y, col...] float32 interleaved. The
/// unit of every batch plan and admission grant (Executor, QueryService).
inline std::size_t UploadBytesPerPoint(const FilterSet& filters,
                                       std::size_t weight_column) {
  return UploadStrideBytes(UploadColumns(filters, weight_column));
}

/// Bytes of the triangle VBO the bounded raster join uploads once per
/// query (id + 3 vertices per triangle). The single definition shared by
/// the join's allocation and Executor::PlanAdmission — if they drifted
/// apart, admission grants would stop covering the actual allocation and
/// the no-oversubscription invariant would silently break.
inline std::size_t TriangleVboBytes(std::size_t num_triangles) {
  return num_triangles * (6 * sizeof(float) + sizeof(std::int32_t));
}

/// Points per device batch for an upload pipeline working within
/// `avail_bytes`. When the whole point set fits, it ships as one batch
/// (one buffer ever lives). Otherwise the budget is split across the
/// buffers the pipeline keeps in flight: 2 when transfers overlap the
/// draw (BatchPipeline prefetches batch b+1 while b draws), 1 when
/// serialized. Shared by the joins' own planning (avail = device free
/// bytes) and Executor's grant-capped planning (avail = admission grant),
/// so a grant of PlanAdmission::min_bytes always covers the in-flight
/// buffers.
inline std::size_t PlanPointBatch(std::size_t avail_bytes,
                                  std::size_t bytes_per_point,
                                  std::size_t num_points,
                                  bool overlap_transfers) {
  const std::size_t n = std::max<std::size_t>(num_points, 1);
  if (bytes_per_point == 0) return n;
  const std::size_t resident = avail_bytes / bytes_per_point;
  if (resident >= n) return n;  // single batch, single buffer
  const std::size_t slots = overlap_transfers ? 2 : 1;
  return std::max<std::size_t>(1, resident / slots);
}

/// Batch size plus *effective* overlap for an upload pipeline working
/// within `avail_bytes`: overlap is downgraded to serialized when the
/// budget cannot hold two one-point buffers (progress beats prefetch), so
/// the planned in-flight bytes never exceed the budget. The one planner
/// shared by the joins (avail = device free bytes) and the Executor
/// (avail = the query's admission grant).
struct UploadPlan {
  std::size_t batch_size = 0;
  bool overlap_transfers = false;
};

inline UploadPlan PlanUpload(std::size_t avail_bytes,
                             std::size_t bytes_per_point,
                             std::size_t num_points, bool overlap_requested) {
  UploadPlan plan;
  plan.overlap_transfers =
      overlap_requested && avail_bytes >= 2 * bytes_per_point;
  plan.batch_size = PlanPointBatch(avail_bytes, bytes_per_point, num_points,
                                   plan.overlap_transfers);
  return plan;
}

inline Status ValidateWeightColumnCount(std::size_t num_attributes,
                                        std::size_t weight_column) {
  if (weight_column != PointTable::npos && weight_column >= num_attributes) {
    return Status::InvalidArgument("weight column out of range");
  }
  return Status::OK();
}

inline Status ValidateWeightColumn(const PointTable& points,
                                   std::size_t weight_column) {
  return ValidateWeightColumnCount(points.num_attributes(), weight_column);
}

inline Status ValidateFiltersCount(std::size_t num_attributes,
                                   const FilterSet& filters) {
  for (const AttributeFilter& f : filters.filters()) {
    if (f.column >= num_attributes) {
      return Status::InvalidArgument("filter references unknown column");
    }
  }
  return Status::OK();
}

inline Status ValidateFilters(const PointTable& points,
                              const FilterSet& filters) {
  return ValidateFiltersCount(points.num_attributes(), filters);
}

/// True when a block with zone map `zone` may contain rows that satisfy
/// `filters` and fall inside `canvas_world` (pass nullptr to skip the
/// spatial test). Strictly conservative: every comparison keeps the block
/// on ties and treats missing information (a filter column beyond the zone
/// map's range list) as "may match", so pruning can only skip blocks whose
/// rows provably contribute nothing — which is what keeps disk execution
/// bitwise identical to a full scan. The bbox test is closed
/// (BBox::Intersects), matching GridIndex's closed Contains and the raster
/// variants' boundary clipping: a block touching the canvas edge is
/// scanned, never pruned. Column ranges exclude NaN (NaN fails every
/// FilterOp, so excluding it never prunes a matching row); an all-NaN
/// column yields an empty range (min > max) that legitimately prunes under
/// any filter on that column.
bool ZoneMapCanMatch(const data::BlockZoneMap& zone, const FilterSet& filters,
                     const BBox* canvas_world);

/// The scan list a block-source join executes: block ordinals that survive
/// zone-map pruning, in ascending order, plus the counts the Counters
/// meter (scanned + pruned == source.num_blocks()).
struct BlockSelection {
  std::vector<std::size_t> blocks;
  std::size_t scanned = 0;
  std::size_t pruned = 0;
};

/// Selects the blocks of `source` worth scanning for a group of queries,
/// one filter set each, over `canvas_world` (nullptr: no spatial
/// restriction): a block is scanned when any query may match it. Blocks
/// without zone maps are always scanned; `enable_pruning = false` selects
/// everything (the A/B baseline the determinism tests compare against).
BlockSelection SelectBlocks(const data::PointBlockSource& source,
                            const std::vector<const FilterSet*>& filters,
                            const BBox* canvas_world, bool enable_pruning);

/// SelectBlocks for one query.
inline BlockSelection SelectBlocks(const data::PointBlockSource& source,
                                   const FilterSet& filters,
                                   const BBox* canvas_world,
                                   bool enable_pruning) {
  return SelectBlocks(source, std::vector<const FilterSet*>{&filters},
                      canvas_world, enable_pruning);
}

/// The scan a join streams through join::BatchPipeline: blocks `blocks`
/// (ascending ordinals) of `*source`, one device batch per block, with
/// transfers overlapping the draw when `overlap_transfers`. Every join —
/// raster or index, over a resident table or a disk file — gets its points
/// this one way.
struct ScanPlan {
  const data::PointBlockSource* source = nullptr;
  std::vector<std::size_t> blocks;
  bool overlap_transfers = true;
  /// Blocks the zone maps pruned (block-source scans only).
  std::size_t blocks_pruned = 0;
  /// Resident-table scans: the adapter whose blocks are the planned batch
  /// slices (`source` points at it).
  std::unique_ptr<data::TableBlockSource> table;
};

/// Plans the scan of a resident table: `points` in batch slices of
/// `batch_size` points, or — when `batch_size` is 0 — sized by PlanUpload
/// so the pipeline's in-flight buffers (2 when transfers overlap the draw)
/// fit the device's free bytes at `bytes_per_point`.
ScanPlan PlanTableScan(const gpu::Device& device, const PointTable& points,
                       std::size_t bytes_per_point, std::size_t batch_size,
                       bool overlap_transfers);

/// Plans the scan of a block source for a group of queries, one filter
/// set each: the blocks any of them may match within `world`
/// (SelectBlocks; everything when `enable_pruning` is off). The block
/// capacity is the batch size. Meters the scanned/pruned decisions into
/// `device`'s counters once for the whole group.
ScanPlan PlanBlockScan(gpu::Device* device,
                       const data::PointBlockSource& source,
                       const std::vector<const FilterSet*>& filters,
                       const BBox& world, bool enable_pruning,
                       bool overlap_transfers);

/// Ships and meters the bounded join's triangle VBO exactly once per
/// query (allocate → an upload that zero-fills it → free, timed under
/// phase::kTransfer). TriangleVboBytes keeps what it meters aligned with
/// PlanAdmission's fixed_bytes.
Status UploadTriangleVbo(gpu::Device* device, std::size_t num_triangles,
                         PhaseTimer* timing);

/// Brute-force all-pairs reference implementation (test oracle): for every
/// point passing the filters, test every polygon. O(|P| · Σ|vertices|).
JoinResult ReferenceJoin(const PointTable& points, const PolygonSet& polys,
                         const FilterSet& filters, std::size_t weight_column);

}  // namespace rj
