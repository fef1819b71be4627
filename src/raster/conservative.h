/// \file conservative.h
/// \brief Conservative rasterization: every partially-covered pixel.
///
/// The paper uses the GL_NV_conservative_raster extension to guarantee no
/// boundary pixel is missed when drawing polygon outlines (§6.1), and to
/// identify false-negative pixels for result-range estimation. The software
/// equivalent emits every pixel whose *area* intersects the triangle (not
/// just pixels whose center is covered).
#pragma once

#include <cstdint>

#include "geometry/point.h"
#include "raster/rasterizer.h"

namespace rj::raster {

/// Emits every pixel whose square overlaps triangle (a, b, c), given in
/// screen coordinates. Superset of RasterizeTriangle's coverage. Both
/// functions here take any finite coordinates: the scan window is clamped
/// to the grid in double before any integer cast.
void RasterizeTriangleConservative(const Point& a, const Point& b,
                                   const Point& c, std::int32_t width,
                                   std::int32_t height,
                                   const FragmentCallback& emit);

/// Emits every pixel whose square overlaps segment [a, b] (conservative
/// outline drawing: closed boundaries even through pixel corners).
void RasterizeSegmentConservative(const Point& a, const Point& b,
                                  std::int32_t width, std::int32_t height,
                                  const FragmentCallback& emit);

}  // namespace rj::raster
