/// \file pip.h
/// \brief Point-in-polygon primitives (the cost the paper eliminates).
///
/// The crossing-number test here is the exact reference semantics for every
/// join variant in the library: a point on a ring edge or vertex is
/// classified kBoundary and treated as *inside* by Polygon::Contains. Fixing
/// the boundary rule globally is what lets the accurate raster join, the
/// index joins, and the brute-force reference return bit-identical results.
#pragma once

#include <vector>

#include "geometry/point.h"

namespace rj {

using Ring = std::vector<Point>;

enum class PipResult { kOutside = 0, kInside = 1, kBoundary = 2 };

/// Crossing-number test with explicit boundary detection.
/// O(|ring|); exact for points whose coordinates are representable doubles.
PipResult TestPointInRing(const Ring& ring, const Point& p);

/// Convenience wrapper: boundary counts as inside.
inline bool RingContains(const Ring& ring, const Point& p) {
  return TestPointInRing(ring, p) != PipResult::kOutside;
}

/// Global counter of PIP tests executed (a work metric the benches report
/// independently of host speed). Thread-safe.
void ResetPipTestCounter();
std::size_t GetPipTestCount();

/// This thread's PIP-test count. Per-query metering windows must use this
/// (before/after on the executing thread): a window over the *global*
/// counter absorbs every concurrent query's tests, double-counting them
/// into the shared device counters under QueryService traffic.
std::size_t GetThreadPipTestCount();

namespace internal {
void IncrementPipCounter();
}  // namespace internal

}  // namespace rj
