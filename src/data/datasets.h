/// \file datasets.h
/// \brief Preset data sets matching the paper's experimental setup (§7.1).
///
/// Table 1 of the paper uses two polygon sets — NYC neighborhoods (260
/// polygons) and US counties (3945 polygons). Those boundary files are not
/// bundled, so the §7.4 Voronoi-merge generator stands in at the same
/// counts and extents; these presets pin the seeds so every bench and test
/// sees identical geometry.
#pragma once

#include "common/status.h"
#include "data/point_table.h"
#include "data/region_generator.h"
#include "data/taxi_generator.h"
#include "data/twitter_generator.h"

namespace rj {

/// 260 neighborhood-like polygons over the NYC extent (Table 1 row 1).
Result<PolygonSet> NycNeighborhoods();

/// 3945 county-like polygons over the US extent (Table 1 row 2).
Result<PolygonSet> UsCounties();

/// Smaller presets for unit tests (fast to generate).
Result<PolygonSet> TinyRegions(std::size_t n, const BBox& extent,
                               std::uint64_t seed = 7);

}  // namespace rj
