/// \file ear_clipping.h
/// \brief Ear-clipping triangulation of simple rings.
///
/// The paper's implementation uses clip2tri (Clipper + poly2tri constrained
/// Delaunay). Raster-join correctness only requires that the triangulation
/// cover exactly the polygon interior; ear clipping provides that with a
/// simpler, dependency-free implementation. A Delaunay-ish
/// quality pass is unnecessary because rasterization quality is independent
/// of triangle aspect ratio under the pixel-center rule.
#pragma once

#include <vector>

#include "common/status.h"
#include "geometry/polygon.h"
#include "triangulate/triangulation.h"

namespace rj {

/// Triangulates a simple CCW ring into exactly n-2 triangles.
/// Returns InvalidArgument for rings with < 3 vertices or (detected)
/// non-simple input where no ear can be found.
Result<std::vector<Triangle>> EarClipTriangulate(const Ring& ring);

}  // namespace rj
