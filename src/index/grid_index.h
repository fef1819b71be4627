/// \file grid_index.h
/// \brief Uniform grid index over polygons with O(1) cell lookup.
///
/// §6.1 "Polygon Index": a grid where each cell stores the list of polygons
/// whose bounding box (device build) or exact geometry (optimized CPU
/// build, §7.1) intersects the cell. The device build is two-pass — count
/// then fill — into one contiguous allocation, mirroring the paper's
/// custom linked-list layout built on the GPU per query.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geometry/bbox.h"
#include "geometry/polygon.h"

namespace rj {

/// Grid resolution (cells per side) of every polygon index the joins build
/// by default — the paper's 1024² (§6.1). One constant, so the accurate
/// join's index and the device index join's cached index are one index.
inline constexpr std::int32_t kDefaultGridResolution = 1024;

/// How polygons are assigned to grid cells.
enum class GridAssignMode {
  /// Assign to every cell intersecting the polygon's MBR (paper's GPU
  /// build; cheap to build, more candidates per probe).
  kMbr,
  /// Assign only to cells the actual geometry intersects (paper's
  /// optimized CPU build; §7.1). Costlier build, fewer candidates.
  kExactGeometry,
};

class GridIndex {
 public:
  /// Builds a `resolution` × `resolution` grid over `extent`.
  /// Two-pass CSR-style construction (count sizes, then fill), matching
  /// the single-contiguous-allocation strategy of §6.1.
  static Result<GridIndex> Build(const PolygonSet& polys, const BBox& extent,
                                 std::int32_t resolution, GridAssignMode mode);

  std::int32_t resolution() const { return resolution_; }
  const BBox& extent() const { return extent_; }
  GridAssignMode mode() const { return mode_; }

  /// Candidate polygon ids for the cell containing p (empty span if p lies
  /// outside the extent). O(1) lookup.
  std::pair<const std::int32_t*, const std::int32_t*> Candidates(
      const Point& p) const;

  /// Total number of (cell, polygon) assignments — index size metric.
  std::size_t TotalEntries() const { return entries_.size(); }

  /// Bytes the index occupies (device transfer metric).
  std::size_t SizeBytes() const {
    return entries_.size() * sizeof(std::int32_t) +
           offsets_.size() * sizeof(std::int64_t);
  }

  /// Cell linear id of p, or -1 when outside the extent.
  std::int64_t CellOf(const Point& p) const;

 private:
  GridIndex() = default;

  std::int32_t resolution_ = 0;
  BBox extent_;
  GridAssignMode mode_ = GridAssignMode::kMbr;
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
  /// CSR layout: entries_[offsets_[c] .. offsets_[c+1]) are the polygon ids
  /// assigned to cell c.
  std::vector<std::int64_t> offsets_;
  std::vector<std::int32_t> entries_;
};

}  // namespace rj
