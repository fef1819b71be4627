#include "join/materializing_join.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "geometry/pip.h"

namespace rj {

namespace {

/// One materialized join match: point row and polygon id, plus the weight
/// needed by the aggregation pass (the comparator system would re-read it;
/// we carry it to keep the second pass simple).
struct MaterializedPair {
  std::int64_t point_row;
  std::int32_t polygon_id;
  float weight;
};

}  // namespace

Result<JoinResult> MaterializingJoin(gpu::Device* device,
                                     const PointTable& points,
                                     const PolygonSet& polys,
                                     const MaterializingJoinOptions& options,
                                     MaterializingJoinStats* stats) {
  RJ_RETURN_NOT_OK(ValidatePolygonIds(polys));
  RJ_RETURN_NOT_OK(ValidateWeightColumn(points, options.weight_column));
  RJ_RETURN_NOT_OK(ValidateFilters(points, options.filters));

  JoinResult result(polys.size());
  const bool has_weight = options.weight_column != PointTable::npos;

  // Index the points with a quadtree (comparator's structure).
  Timer index_timer;
  RJ_ASSIGN_OR_RETURN(Quadtree qt,
                      Quadtree::Build(points, options.quadtree_leaf_capacity));
  result.timing.Add(phase::kIndexBuild, index_timer.ElapsedSeconds());

  // --- Pass 1: join with materialization. --------------------------------
  std::vector<MaterializedPair> pairs;
  {
    ScopedPhase sp(&result.timing, phase::kProcessing);
    for (const Polygon& poly : polys) {
      // 16-bit quantization grid over the polygon's MBR (the comparator
      // quantizes within spatial partitions; MBR-local keeps it faithful
      // while staying self-contained).
      const BBox& mbr = poly.bbox();
      const double gx = mbr.Width() / 65535.0;
      const double gy = mbr.Height() / 65535.0;

      qt.VisitLeaves(mbr, [&](const Quadtree::Node& leaf) {
        for (std::int64_t k = leaf.begin; k < leaf.end; ++k) {
          const std::int64_t row = qt.point_order()[k];
          if (!options.filters.Matches(points, static_cast<std::size_t>(row))) {
            continue;
          }

          Point p = points.At(row);
          if (!mbr.Contains(p)) continue;
          if (options.truncate_coordinates && gx > 0 && gy > 0) {
            // Snap to the 16-bit lattice (truncation, as in the comparator:
            // the source of its approximation error).
            const auto qx = static_cast<std::uint16_t>((p.x - mbr.min_x) / gx);
            const auto qy = static_cast<std::uint16_t>((p.y - mbr.min_y) / gy);
            p = {mbr.min_x + qx * gx, mbr.min_y + qy * gy};
          }
          if (!poly.Contains(p)) continue;
          pairs.push_back(
              {row, static_cast<std::int32_t>(poly.id()),
               has_weight ? points.attribute(options.weight_column)[row]
                          : 0.0f});
        }
      });
    }
  }

  // Materialization: the pair list must fit in device memory — this is the
  // allocation the raster joins avoid entirely (Insight 1 of the paper).
  const std::size_t bytes = pairs.size() * sizeof(MaterializedPair);
  {
    ScopedPhase sp(&result.timing, phase::kTransfer);
    RJ_ASSIGN_OR_RETURN(
        auto buf, device->Allocate(gpu::BufferKind::kShaderStorage,
                                   std::max<std::size_t>(bytes, 1)));
    if (bytes > 0) {
      RJ_RETURN_NOT_OK(
          device->Upload(buf.get(), 0, bytes, [&](std::uint8_t* dst) {
            std::memcpy(dst, pairs.data(), bytes);
          }));
    }
    device->Free(buf);
  }

  // --- Pass 2: aggregate the materialized pairs. -------------------------
  {
    ScopedPhase sp(&result.timing, phase::kProcessing);
    for (const MaterializedPair& pair : pairs) {
      const auto id = static_cast<std::size_t>(pair.polygon_id);
      result.arrays.count[id] += 1.0;
      if (has_weight) {
        result.arrays.sum[id] += pair.weight;
        result.arrays.min[id] =
            std::min(result.arrays.min[id], static_cast<double>(pair.weight));
        result.arrays.max[id] =
            std::max(result.arrays.max[id], static_cast<double>(pair.weight));
      }
    }
  }

  if (stats != nullptr) {
    stats->pairs_materialized = pairs.size();
    stats->bytes_materialized = bytes;
  }
  return result;
}

}  // namespace rj
