#include "join/raster_join_bounded.h"

#include <utility>

#include "join/fused_join.h"

namespace rj {

namespace {

/// The query as the one bounded core's single group member.
std::vector<FusedMemberSpec> SoloMember(
    const BoundedRasterJoinOptions& options, bool export_point_fbo) {
  FusedMemberSpec member;
  member.weight_column = options.weight_column;
  member.filters = options.filters;
  member.compute_result_ranges = options.compute_result_ranges;
  member.export_point_fbo = export_point_fbo;
  return {member};
}

/// Runs the planned scan through the bounded core as a group of one and
/// unpacks the member's slot.
Result<JoinResult> RunSolo(gpu::Device* device, ScanPlan scan,
                           const std::vector<FusedMemberSpec>& member,
                           const PolygonSet& polys, const TriangleSoup& soup,
                           const BBox& world,
                           const BoundedRasterJoinOptions& options,
                           BoundedRasterJoinStats* stats,
                           ResultRanges* ranges_out,
                           std::optional<raster::Fbo>* point_fbo_out) {
  if (options.compute_result_ranges && ranges_out == nullptr) {
    return Status::InvalidArgument("compute_result_ranges requires ranges_out");
  }
  RJ_ASSIGN_OR_RETURN(FusedJoinOutput out,
                      FusedBoundedRasterJoin(device, std::move(scan), polys,
                                             soup, world, options.epsilon,
                                             member, stats));
  JoinResult result;
  result.arrays = std::move(out.arrays[0]);
  result.timing = std::move(out.timing);
  if (options.compute_result_ranges) *ranges_out = std::move(out.ranges[0]);
  if (point_fbo_out != nullptr) point_fbo_out->emplace(*out.point_fbos[0]);
  return result;
}

}  // namespace

Result<JoinResult> BoundedRasterJoin(gpu::Device* device,
                                     const PointTable& points,
                                     const PolygonSet& polys,
                                     const TriangleSoup& soup,
                                     const BBox& world,
                                     const BoundedRasterJoinOptions& options,
                                     BoundedRasterJoinStats* stats,
                                     ResultRanges* ranges_out,
                                     std::optional<raster::Fbo>* point_fbo_out) {
  // Batch planning: points are transferred exactly once per tile pass set,
  // sized so the pipeline's in-flight buffers (2 when transfers overlap
  // the draw) fit the available budget.
  ScanPlan scan = PlanTableScan(
      *device, points,
      UploadBytesPerPoint(options.filters, options.weight_column),
      options.batch_size, options.overlap_transfers);
  return RunSolo(device, std::move(scan),
                 SoloMember(options, point_fbo_out != nullptr), polys, soup,
                 world, options, stats, ranges_out, point_fbo_out);
}

Result<JoinResult> BoundedRasterJoin(gpu::Device* device,
                                     const data::PointBlockSource& source,
                                     const PolygonSet& polys,
                                     const TriangleSoup& soup,
                                     const BBox& world,
                                     const BoundedRasterJoinOptions& options,
                                     BoundedRasterJoinStats* stats,
                                     ResultRanges* ranges_out,
                                     std::optional<raster::Fbo>* point_fbo_out) {
  ScanPlan scan =
      PlanBlockScan(device, source, {&options.filters}, world,
                    options.enable_block_pruning, options.overlap_transfers);
  return RunSolo(device, std::move(scan),
                 SoloMember(options, point_fbo_out != nullptr), polys, soup,
                 world, options, stats, ranges_out, point_fbo_out);
}

}  // namespace rj
