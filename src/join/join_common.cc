#include "join/join_common.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

namespace rj {

Status ValidatePolygonIds(const PolygonSet& polys) {
  std::vector<bool> seen(polys.size(), false);
  for (const Polygon& poly : polys) {
    const std::int64_t id = poly.id();
    if (id < 0 || static_cast<std::size_t>(id) >= polys.size()) {
      return Status::InvalidArgument(
          "polygon ids must be a permutation of 0..n-1");
    }
    if (seen[static_cast<std::size_t>(id)]) {
      return Status::InvalidArgument("duplicate polygon id");
    }
    seen[static_cast<std::size_t>(id)] = true;
  }
  return Status::OK();
}

std::vector<std::size_t> UploadColumns(const FilterSet& filters,
                                       std::size_t weight_column) {
  std::vector<std::size_t> columns = filters.ReferencedColumns();
  if (weight_column != PointTable::npos) {
    bool present = false;
    for (const std::size_t c : columns) present = present || c == weight_column;
    if (!present) columns.push_back(weight_column);
  }
  return columns;
}

ScanPlan PlanTableScan(const gpu::Device& device, const PointTable& points,
                       std::size_t bytes_per_point, std::size_t batch_size,
                       bool overlap_transfers) {
  ScanPlan scan;
  scan.overlap_transfers = overlap_transfers;
  if (batch_size == 0) {
    const UploadPlan plan = PlanUpload(device.bytes_free(), bytes_per_point,
                                       points.size(), overlap_transfers);
    batch_size = plan.batch_size;
    scan.overlap_transfers = plan.overlap_transfers;
  }
  // The adapter's blocks are exactly the planned batch slices, and its
  // blocks are views into `points`: batches draw in place.
  scan.table = std::make_unique<data::TableBlockSource>(
      &points, std::max<std::size_t>(batch_size, 1));
  scan.source = scan.table.get();
  scan.blocks.resize(scan.table->num_blocks());
  std::iota(scan.blocks.begin(), scan.blocks.end(), std::size_t{0});
  return scan;
}

ScanPlan PlanBlockScan(gpu::Device* device,
                       const data::PointBlockSource& source,
                       const std::vector<const FilterSet*>& filters,
                       const BBox& world, bool enable_pruning,
                       bool overlap_transfers) {
  BlockSelection sel = SelectBlocks(source, filters, &world, enable_pruning);
  device->counters().AddBlocksScanned(sel.scanned);
  device->counters().AddBlocksPruned(sel.pruned);
  ScanPlan scan;
  scan.source = &source;
  scan.blocks = std::move(sel.blocks);
  scan.overlap_transfers = overlap_transfers;
  scan.blocks_pruned = sel.pruned;
  return scan;
}

bool ZoneMapCanMatch(const data::BlockZoneMap& zone, const FilterSet& filters,
                     const BBox* canvas_world) {
  if (canvas_world != nullptr && !zone.bbox.Intersects(*canvas_world)) {
    return false;
  }
  for (const AttributeFilter& f : filters.filters()) {
    if (f.column >= zone.col_min.size()) continue;  // unknown range: keep
    const float mn = zone.col_min[f.column];
    const float mx = zone.col_max[f.column];
    // Empty range (every value NaN): no row can pass a filter on this
    // column. NaN fails all five FilterOps, so this prune is exact.
    if (mn > mx) return false;
    bool may_match = true;
    switch (f.op) {
      case FilterOp::kGreater: may_match = mx > f.value; break;
      case FilterOp::kGreaterEqual: may_match = mx >= f.value; break;
      case FilterOp::kLess: may_match = mn < f.value; break;
      case FilterOp::kLessEqual: may_match = mn <= f.value; break;
      case FilterOp::kEqual: may_match = mn <= f.value && f.value <= mx; break;
    }
    if (!may_match) return false;
  }
  return true;
}

BlockSelection SelectBlocks(const data::PointBlockSource& source,
                            const std::vector<const FilterSet*>& filters,
                            const BBox* canvas_world, bool enable_pruning) {
  BlockSelection sel;
  const std::size_t n = source.num_blocks();
  sel.blocks.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    const data::BlockZoneMap* zone = source.zone_map(b);
    if (enable_pruning && zone != nullptr &&
        std::none_of(filters.begin(), filters.end(),
                     [&](const FilterSet* f) {
                       return ZoneMapCanMatch(*zone, *f, canvas_world);
                     })) {
      ++sel.pruned;
      continue;
    }
    sel.blocks.push_back(b);
  }
  sel.scanned = sel.blocks.size();
  return sel;
}

Status UploadTriangleVbo(gpu::Device* device, std::size_t num_triangles,
                         PhaseTimer* timing) {
  ScopedPhase sp(timing, phase::kTransfer);
  const std::size_t tri_bytes = TriangleVboBytes(num_triangles);
  if (tri_bytes == 0) return Status::OK();
  RJ_ASSIGN_OR_RETURN(
      auto tri_vbo,
      device->Allocate(gpu::BufferKind::kVertexBuffer, tri_bytes));
  const Status status =
      device->Upload(tri_vbo.get(), 0, tri_bytes, [&](std::uint8_t* dst) {
        std::memset(dst, 0, tri_bytes);
      });
  device->Free(tri_vbo);
  return status;
}

JoinResult ReferenceJoin(const PointTable& points, const PolygonSet& polys,
                         const FilterSet& filters, std::size_t weight_column) {
  JoinResult result(polys.size());
  const bool has_weight = weight_column != PointTable::npos;

  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!filters.Matches(points, i)) continue;

    const Point p = points.At(i);
    const float w = has_weight ? points.attribute(weight_column)[i] : 0.0f;
    for (const Polygon& poly : polys) {
      if (!poly.Contains(p)) continue;
      const std::size_t id = static_cast<std::size_t>(poly.id());
      result.arrays.count[id] += 1.0;
      if (has_weight) {
        result.arrays.sum[id] += w;
        result.arrays.min[id] =
            std::min(result.arrays.min[id], static_cast<double>(w));
        result.arrays.max[id] =
            std::max(result.arrays.max[id], static_cast<double>(w));
      }
    }
  }
  return result;
}

}  // namespace rj
