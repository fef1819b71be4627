/// \file clip.h
/// \brief Clipping primitives: Sutherland–Hodgman polygon clipping and
/// pixel∩polygon area fractions.
///
/// The paper uses Cohen–Sutherland in the fragment shader to estimate the
/// fraction of a boundary pixel covered by its polygon (§6.1, "Computing
/// Result Ranges"). agg::ResultRange computes that fraction exactly
/// instead, with Sutherland–Hodgman area clipping.
#pragma once

#include <vector>

#include "geometry/bbox.h"
#include "geometry/point.h"
#include "geometry/polygon.h"

namespace rj {

/// Clips a (convex or concave) subject ring against an axis-aligned
/// rectangle with the Sutherland–Hodgman algorithm. The result may be empty.
Ring ClipRingToRect(const Ring& subject, const BBox& rect);

/// Exact area of the intersection between `poly` (with holes) and `rect`.
double PolygonRectIntersectionArea(const Polygon& poly, const BBox& rect);

/// Fraction of `rect`'s area covered by `poly`, in [0, 1].
double PolygonRectCoverageFraction(const Polygon& poly, const BBox& rect);

}  // namespace rj
