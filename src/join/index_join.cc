#include "join/index_join.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "geometry/pip.h"
#include "join/batch_pipeline.h"

namespace rj {

namespace {

/// Procedure JoinPoint over rows [begin, end) of a block's view using the
/// given index; accumulates into `out`. Shared by all flavours: every scan
/// reads its blocks in place (data::PointBlockSource::ViewBlock).
void JoinPointRange(const data::BlockView& points, const PolygonSet& polys,
                    const GridIndex& index, const IndexJoinOptions& options,
                    std::size_t begin, std::size_t end,
                    raster::ResultArrays* out) {
  const bool has_weight = options.weight_column != PointTable::npos;

  for (std::size_t i = begin; i < end; ++i) {
    if (!options.filters.Matches(points, i)) continue;

    const Point p = points.At(i);
    const float w =
        has_weight ? points.attribute(options.weight_column)[i] : 0.0f;
    auto [cand_begin, cand_end] = index.Candidates(p);
    for (const std::int32_t* c = cand_begin; c != cand_end; ++c) {
      const Polygon& poly = polys[static_cast<std::size_t>(*c)];
      if (!poly.Contains(p)) continue;
      const std::size_t id = static_cast<std::size_t>(poly.id());
      out->count[id] += 1.0;
      if (has_weight) {
        out->sum[id] += w;
        out->min[id] = std::min(out->min[id], static_cast<double>(w));
        out->max[id] = std::max(out->max[id], static_cast<double>(w));
      }
    }
  }
}

}  // namespace

Result<JoinResult> IndexJoinDevice(gpu::Device* device, ScanPlan scan,
                                   const PolygonSet& polys, const BBox& world,
                                   const IndexJoinOptions& options) {
  RJ_RETURN_NOT_OK(ValidatePolygonIds(polys));
  RJ_RETURN_NOT_OK(
      ValidateWeightColumnCount(scan.source->num_attributes(),
                                options.weight_column));
  RJ_RETURN_NOT_OK(
      ValidateFiltersCount(scan.source->num_attributes(), options.filters));

  JoinResult result(polys.size());

  // Build the grid index on the device, on the fly, per query (§6.1) —
  // unless the caller provides one it built (and cached) with identical
  // parameters, in which case the rebuild (and its kIndexBuild phase) is
  // skipped without changing any result bit.
  std::optional<GridIndex> built;
  const GridIndex* index = options.prebuilt_index;
  if (index == nullptr) {
    Timer index_timer;
    RJ_ASSIGN_OR_RETURN(GridIndex fresh,
                        GridIndex::Build(polys, world,
                                         options.index_resolution,
                                         options.assign_mode));
    built.emplace(std::move(fresh));
    index = &*built;
    result.timing.Add(phase::kIndexBuild, index_timer.ElapsedSeconds());
  }

  // Out-of-core batching: transfer each batch once (batch b+1 prefetched
  // by the pipeline while batch b's PIP stage runs), then run the PIP
  // compute stage over it.
  std::vector<std::size_t> columns =
      UploadColumns(options.filters, options.weight_column);

  // Per-thread metering window (see pip.h): a global-counter window would
  // absorb concurrent queries' tests on a shared device.
  const std::size_t pip_before = GetThreadPipTestCount();
  join::BatchPipeline pipeline(device, std::move(scan), std::move(columns));
  for (;;) {
    RJ_ASSIGN_OR_RETURN(std::optional<join::BatchPipeline::BatchView> view,
                        pipeline.Acquire());
    if (!view.has_value()) break;
    {
      // PIP compute stage (the SIMT analogue) on the calling thread.
      ScopedPhase sp(&result.timing, phase::kProcessing);
      JoinPointRange(view->rows, polys, *index, options, 0, view->rows.size,
                     &result.arrays);
    }
    pipeline.Release(*view);
    device->counters().AddBatches(1);
  }
  RJ_RETURN_NOT_OK(pipeline.Drain(&result.timing));
  device->counters().AddPipTests(GetThreadPipTestCount() - pip_before);
  return result;
}

Result<JoinResult> IndexJoinDevice(gpu::Device* device,
                                   const PointTable& points,
                                   const PolygonSet& polys, const BBox& world,
                                   const IndexJoinOptions& options) {
  ScanPlan scan = PlanTableScan(
      *device, points,
      UploadBytesPerPoint(options.filters, options.weight_column),
      options.batch_size, options.overlap_transfers);
  return IndexJoinDevice(device, std::move(scan), polys, world, options);
}

Result<JoinResult> IndexJoinDevice(gpu::Device* device,
                                   const data::PointBlockSource& source,
                                   const PolygonSet& polys, const BBox& world,
                                   const IndexJoinOptions& options) {
  // Pruning against `world` is exact for this variant: the index is built
  // over `world`, and Candidates yields nothing outside its extent.
  ScanPlan scan =
      PlanBlockScan(device, source, {&options.filters}, world,
                    options.enable_block_pruning, options.overlap_transfers);
  return IndexJoinDevice(device, std::move(scan), polys, world, options);
}

Result<JoinResult> IndexJoinCpu(const PointTable& points,
                                const PolygonSet& polys,
                                const GridIndex& index,
                                const IndexJoinOptions& options,
                                int num_threads) {
  // One block holding every row: the same thread split and merge order as
  // a loop over the table, with no zone map to prune by.
  const data::TableBlockSource whole(&points,
                                     std::max<std::size_t>(points.size(), 1));
  return IndexJoinCpu(whole, polys, index, options, num_threads);
}

Result<JoinResult> IndexJoinCpu(const data::PointBlockSource& source,
                                const PolygonSet& polys,
                                const GridIndex& index,
                                const IndexJoinOptions& options,
                                int num_threads, IndexJoinBlockStats* stats) {
  RJ_RETURN_NOT_OK(ValidatePolygonIds(polys));
  RJ_RETURN_NOT_OK(
      ValidateWeightColumnCount(source.num_attributes(),
                                options.weight_column));
  RJ_RETURN_NOT_OK(
      ValidateFiltersCount(source.num_attributes(), options.filters));
  if (num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }

  const BlockSelection sel = SelectBlocks(source, options.filters,
                                          &index.extent(),
                                          options.enable_block_pruning);
  if (stats != nullptr) {
    stats->blocks_scanned = sel.scanned;
    stats->blocks_pruned = sel.pruned;
  }

  JoinResult result(polys.size());
  ScopedPhase sp(&result.timing, phase::kProcessing);

  // One pool for the whole scan, which reads each block in place: the
  // source's storage (a mapping or a table) is scanned without a copy.
  std::optional<ThreadPool> pool;
  if (num_threads > 1) pool.emplace(static_cast<std::size_t>(num_threads));
  for (const std::size_t b : sel.blocks) {
    RJ_ASSIGN_OR_RETURN(data::BlockView view, source.ViewBlock(b));
    if (pool.has_value()) {
      // Per-thread accumulators merged per block in ascending worker order,
      // mirroring the paper's OpenMP implementation with thread-local
      // aggregates (§7.1): deterministic for any thread count (and exact
      // for the integer-valued weights the repo's determinism suite uses).
      std::vector<raster::ResultArrays> partials(
          pool->num_threads(), raster::ResultArrays(polys.size()));
      pool->ParallelFor(view.size,
                        [&](std::size_t lo, std::size_t hi,
                            std::size_t worker) {
                          JoinPointRange(view, polys, index, options, lo, hi,
                                         &partials[worker]);
                        });
      for (const auto& partial : partials) result.arrays.AddFrom(partial);
    } else {
      JoinPointRange(view, polys, index, options, 0, view.size,
                     &result.arrays);
    }
  }
  return result;
}

}  // namespace rj
