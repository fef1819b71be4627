#include "join/raster_join_accurate.h"

#include <string>
#include <utility>

#include "join/fused_join.h"
#include "raster/pipeline.h"

namespace rj {

Result<std::int32_t> ResolveAccurateCanvasDim(std::int32_t requested,
                                              const gpu::Device& device) {
  const std::int32_t max_dim = device.options().max_fbo_dim;
  const std::int32_t dim = requested == 0 ? max_dim : requested;
  if (dim <= 0) return Status::InvalidArgument("canvas dimension must be > 0");
  if (dim > max_dim) {
    return Status::InvalidArgument(
        "canvas_dim " + std::to_string(dim) +
        " exceeds the device's max_fbo_dim " + std::to_string(max_dim));
  }
  return dim;
}

Result<AccurateCanvas> PrepareAccurateCanvas(
    const PolygonSet& polys, const BBox& world, std::int32_t dim,
    std::int32_t index_resolution, gpu::Counters* counters, ThreadPool* pool,
    PhaseTimer* timing) {
  // Built on the fly (§6.1 "Polygon Index").
  Timer index_timer;
  RJ_ASSIGN_OR_RETURN(
      GridIndex index,
      GridIndex::Build(polys, world, index_resolution, GridAssignMode::kMbr));
  if (timing != nullptr) {
    timing->Add(phase::kIndexBuild, index_timer.ElapsedSeconds());
  }
  Timer boundary_timer;
  RJ_ASSIGN_OR_RETURN(
      AccurateCanvas canvas,
      PrepareAccurateCanvas(polys, world, dim,
                            std::make_shared<const GridIndex>(std::move(index)),
                            counters, pool));
  if (timing != nullptr) {
    timing->Add(phase::kProcessing, boundary_timer.ElapsedSeconds());
  }
  return canvas;
}

Result<AccurateCanvas> PrepareAccurateCanvas(
    const PolygonSet& polys, const BBox& world, std::int32_t dim,
    std::shared_ptr<const GridIndex> index, gpu::Counters* counters,
    ThreadPool* pool) {
  if (dim <= 0) return Status::InvalidArgument("canvas dimension must be > 0");
  if (world.IsEmpty() || world.Width() <= 0 || world.Height() <= 0) {
    return Status::InvalidArgument("world extent is empty");
  }
  if (index == nullptr || !(index->extent() == world)) {
    return Status::InvalidArgument(
        "the canvas index must be a grid index over the canvas world");
  }
  AccurateCanvas canvas;
  canvas.world = world;
  canvas.dim = dim;
  canvas.index = std::move(index);
  // Step 1: polygon outlines, conservatively rasterized.
  canvas.boundary = raster::BoundaryMask(dim, dim);
  raster::DrawBoundaries(raster::Viewport(world, dim, dim), polys,
                         /*conservative=*/true, &canvas.boundary, counters,
                         pool);
  return canvas;
}

namespace {

/// The query as the one accurate core's single group member.
std::vector<FusedMemberSpec> SoloMember(
    const AccurateRasterJoinOptions& options) {
  FusedMemberSpec member;
  member.weight_column = options.weight_column;
  member.filters = options.filters;
  return {member};
}

/// Prepares the query's canvas, runs the planned scan through the accurate
/// core as a group of one and unpacks the member's slot.
Result<JoinResult> RunSolo(gpu::Device* device, ScanPlan scan,
                           const std::vector<FusedMemberSpec>& member,
                           const PolygonSet& polys, const TriangleSoup& soup,
                           const BBox& world,
                           const AccurateRasterJoinOptions& options,
                           AccurateRasterJoinStats* stats) {
  RJ_ASSIGN_OR_RETURN(const std::int32_t dim,
                      ResolveAccurateCanvasDim(options.canvas_dim, *device));
  PhaseTimer prep_timing;
  RJ_ASSIGN_OR_RETURN(
      const AccurateCanvas canvas,
      PrepareAccurateCanvas(polys, world, dim, options.index_resolution,
                            &device->counters(), &device->pool(),
                            &prep_timing));
  RJ_ASSIGN_OR_RETURN(FusedJoinOutput out,
                      FusedAccurateRasterJoin(device, std::move(scan), polys,
                                              soup, canvas, member, stats));
  JoinResult result;
  result.arrays = std::move(out.arrays[0]);
  result.timing = std::move(out.timing);
  for (const auto& [name, seconds] : prep_timing.phases()) {
    result.timing.Add(name, seconds);
  }
  return result;
}

}  // namespace

Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const PointTable& points,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats) {
  // Batch planning for out-of-core inputs (see PlanPointBatch: the budget
  // covers the pipeline's in-flight buffers, 2 when transfers overlap).
  ScanPlan scan = PlanTableScan(
      *device, points,
      UploadBytesPerPoint(options.filters, options.weight_column),
      options.batch_size, options.overlap_transfers);
  return RunSolo(device, std::move(scan), SoloMember(options), polys, soup,
                 world, options, stats);
}

Result<JoinResult> AccurateRasterJoin(gpu::Device* device,
                                      const data::PointBlockSource& source,
                                      const PolygonSet& polys,
                                      const TriangleSoup& soup,
                                      const BBox& world,
                                      const AccurateRasterJoinOptions& options,
                                      AccurateRasterJoinStats* stats) {
  ScanPlan scan =
      PlanBlockScan(device, source, {&options.filters}, world,
                    options.enable_block_pruning, options.overlap_transfers);
  return RunSolo(device, std::move(scan), SoloMember(options), polys, soup,
                 world, options, stats);
}

}  // namespace rj
