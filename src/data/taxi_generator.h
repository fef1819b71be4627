/// \file taxi_generator.h
/// \brief Synthetic NYC-taxi-like point data set (stands in for the real
/// trip records).
///
/// The real data set (868M yellow-cab trips, 2009–2013) is proprietary-
/// scale; this generator reproduces the properties the experiments depend
/// on: heavy spatial skew (Lower/Midtown Manhattan and the two airports,
/// §7.1), a uniform background over the city extent, and trip attributes
/// (fare, tip, distance, passengers, hour) with plausible marginals so
/// filter constraints (Fig. 11) select realistic fractions.
#pragma once

#include <cstdint>

#include "data/point_table.h"
#include "geometry/bbox.h"

namespace rj {

/// World extent used for NYC-like data, in meters (local planar frame
/// roughly 45 km × 40 km, matching the span of the five boroughs).
BBox NycExtentMeters();

struct TaxiGeneratorOptions {
  std::uint64_t seed = 20170101;
  /// Fraction of points drawn from hot-spot Gaussians vs uniform
  /// background (taxi pickups are strongly clustered).
  double hotspot_fraction = 0.85;
};

/// Attribute column order produced by the generator.
enum TaxiColumn : std::size_t {
  kTaxiFare = 0,
  kTaxiTip = 1,
  kTaxiDistance = 2,
  kTaxiPassengers = 3,
  kTaxiHour = 4,
};

/// Generates `n` taxi-like pickup points with the five attribute columns
/// above, inside NycExtentMeters().
PointTable GenerateTaxiPoints(std::size_t n,
                              const TaxiGeneratorOptions& options = {});

}  // namespace rj
