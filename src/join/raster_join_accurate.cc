#include "join/raster_join_accurate.h"

#include <utility>

#include "join/fused_join.h"

namespace rj {

namespace {

/// The query as the one accurate core's single group member.
std::vector<FusedMemberSpec> SoloMember(
    const AccurateRasterJoinOptions& options) {
  FusedMemberSpec member;
  member.weight_column = options.weight_column;
  member.filters = options.filters;
  return {member};
}

/// Runs the planned scan through the accurate core as a group of one and
/// unpacks the member's slot.
Result<JoinResult> RunSolo(gpu::Device* device, ScanPlan scan,
                           const std::vector<FusedMemberSpec>& member,
                           const PolygonSet& polys, const TriangleSoup& soup,
                           const BBox& world,
                           const AccurateRasterJoinOptions& options,
                           AccurateRasterJoinStats* stats) {
  FusedJoinOptions group;
  group.canvas_dim = options.canvas_dim;
  group.index_resolution = options.index_resolution;
  RJ_ASSIGN_OR_RETURN(FusedJoinOutput out,
                      FusedAccurateRasterJoin(device, std::move(scan), polys,
                                              soup, world, group, member,
                                              stats));
  JoinResult result;
  result.arrays = std::move(out.arrays[0]);
  result.timing = std::move(out.timing);
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
  const std::vector<FusedMemberSpec> member = SoloMember(options);
  ScanPlan scan =
      PlanBlockScan(device, source, member, world,
                    options.enable_block_pruning, options.overlap_transfers);
  return RunSolo(device, std::move(scan), member, polys, soup, world, options,
                 stats);
}

}  // namespace rj
