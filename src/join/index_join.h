/// \file index_join.h
/// \brief Index Join baseline (§6.2): grid index + PIP per point, with the
/// aggregation fused into the join (no materialization).
///
/// Three flavours, matching the paper's experimental setup (§7.1):
///  * device   — the GPU baseline: index built on the device per query
///               (MBR cell assignment), PIP compute "shader" over points;
///  * CPU 1T   — single-threaded CPU with a *pre-built* exact-geometry
///               grid index (the paper's optimized CPU baseline);
///  * CPU MT   — the OpenMP-style parallel version: PIP loop split across
///               threads, per-thread accumulators merged at the end.
#pragma once

#include "gpu/device.h"
#include "index/grid_index.h"
#include "join/join_common.h"

namespace rj {

struct IndexJoinOptions {
  std::int32_t index_resolution = kDefaultGridResolution;
  /// Cell-assignment mode; the CPU baseline uses exact geometry (§7.1),
  /// the device baseline MBRs (§6.1).
  GridAssignMode assign_mode = GridAssignMode::kMbr;
  std::size_t weight_column = PointTable::npos;
  FilterSet filters;
  /// Device batch size for out-of-core inputs (device flavour only;
  /// 0 = derive from memory budget).
  std::size_t batch_size = 0;

  /// Prefetch batch b+1 while batch b's PIP stage runs (device flavour;
  /// join::BatchPipeline, two point VBOs in flight). See
  /// BoundedRasterJoinOptions.
  bool overlap_transfers = true;

  /// Block-source executions only: zone-map pruning (see
  /// BoundedRasterJoinOptions::enable_block_pruning). Exact here too: a
  /// pruned block's points either fail the filters or fall outside the
  /// index extent, where GridIndex::Candidates returns no candidates — so
  /// both results *and* the pip_tests counter are unchanged by pruning.
  bool enable_block_pruning = true;

  /// Device flavour only: a caller-cached index to use instead of the
  /// per-query build (Executor::GetDeviceIndex hoists the §6.2 rebuild out
  /// of repeated traffic). Must have been built with GridIndex::Build over
  /// the same polygons, world, `index_resolution`, and `assign_mode` — the
  /// result is then bit-for-bit the per-query build's. The kIndexBuild
  /// phase reports ~0 when set (the build happened elsewhere, once). Not
  /// owned; must outlive the call.
  const GridIndex* prebuilt_index = nullptr;
};

/// Zone-map accounting of one block-source index join (the CPU flavour
/// has no gpu::Counters to meter into).
struct IndexJoinBlockStats {
  std::size_t blocks_scanned = 0;
  std::size_t blocks_pruned = 0;
};

/// Device (GPU-baseline) flavour over a planned scan (join_common.h):
/// builds the index on the fly and meters transfers, mirroring IndexJoin
/// of §6.2. The plan fixes the batching and the overlap, so
/// options.batch_size, overlap_transfers and enable_block_pruning are not
/// read here.
Result<JoinResult> IndexJoinDevice(gpu::Device* device, ScanPlan scan,
                                   const PolygonSet& polys, const BBox& world,
                                   const IndexJoinOptions& options);

/// Plans the scan of a resident table (PlanTableScan), then runs the core.
Result<JoinResult> IndexJoinDevice(gpu::Device* device,
                                   const PointTable& points,
                                   const PolygonSet& polys, const BBox& world,
                                   const IndexJoinOptions& options);

/// Plans the scan of a block source (PlanBlockScan over `world`), then
/// runs the core; bitwise identical to the in-memory overload on the
/// materialized source.
Result<JoinResult> IndexJoinDevice(gpu::Device* device,
                                   const data::PointBlockSource& source,
                                   const PolygonSet& polys, const BBox& world,
                                   const IndexJoinOptions& options);

/// CPU flavour with a caller-provided (pre-built) index; set
/// `num_threads` = 1 for the single-core baseline the paper normalizes
/// speedups against, or > 1 for the OpenMP-style parallel version. Scans
/// the table as one whole-table block of the source overload.
Result<JoinResult> IndexJoinCpu(const PointTable& points,
                                const PolygonSet& polys,
                                const GridIndex& index,
                                const IndexJoinOptions& options,
                                int num_threads);

/// CPU flavour over a block source: scans the zone-map-selected blocks
/// one at a time (the working set is one block, not the table), pruning
/// against the filters and the index extent. Each block's rows are split
/// across the threads and the per-thread partials merged in ascending
/// thread order. `stats` (optional) receives the scan/prune counts.
Result<JoinResult> IndexJoinCpu(const data::PointBlockSource& source,
                                const PolygonSet& polys,
                                const GridIndex& index,
                                const IndexJoinOptions& options,
                                int num_threads,
                                IndexJoinBlockStats* stats = nullptr);

}  // namespace rj
