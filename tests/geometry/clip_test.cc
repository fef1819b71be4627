#include "geometry/clip.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace rj {
namespace {

const BBox kRect(0, 0, 10, 10);

TEST(SutherlandHodgmanTest, TriangleFullyInsideUnchanged) {
  const Ring tri = {{1, 1}, {5, 1}, {3, 4}};
  const Ring out = ClipRingToRect(tri, kRect);
  EXPECT_NEAR(std::fabs(SignedArea(out)), std::fabs(SignedArea(tri)), 1e-9);
}

TEST(SutherlandHodgmanTest, TriangleFullyOutsideVanishes) {
  const Ring tri = {{20, 20}, {25, 20}, {22, 25}};
  EXPECT_TRUE(ClipRingToRect(tri, kRect).empty());
}

TEST(SutherlandHodgmanTest, HalfOverlappingSquare) {
  const Ring square = {{5, 2}, {15, 2}, {15, 8}, {5, 8}};
  const Ring out = ClipRingToRect(square, kRect);
  // Clipped area: x in [5,10], y in [2,8] → 5 × 6 = 30.
  EXPECT_NEAR(std::fabs(SignedArea(out)), 30.0, 1e-9);
}

TEST(SutherlandHodgmanTest, ConcaveSubjectClipsCorrectly) {
  // "U" with arms poking above the rect top; clip at y=10.
  const Ring u = {{1, 1}, {9, 1}, {9, 14}, {7, 14}, {7, 3}, {3, 3},
                  {3, 14}, {1, 14}};
  const Ring out = ClipRingToRect(u, kRect);
  // Area of U = full(8×13) - notch(4×11) = 104 - 44 = 60.
  // Clipped at y=10: full(8×9)=72 - notch clipped(4×7)=28 → 44.
  EXPECT_NEAR(std::fabs(SignedArea(out)), 44.0, 1e-9);
}

TEST(PolygonRectAreaTest, FullContainmentGivesPolygonArea) {
  Polygon tri(Ring{{1, 1}, {4, 1}, {1, 5}});
  ASSERT_TRUE(tri.Normalize().ok());
  EXPECT_NEAR(PolygonRectIntersectionArea(tri, kRect), 6.0, 1e-9);
}

TEST(PolygonRectAreaTest, DisjointGivesZero) {
  Polygon tri(Ring{{100, 100}, {104, 100}, {100, 105}});
  ASSERT_TRUE(tri.Normalize().ok());
  EXPECT_DOUBLE_EQ(PolygonRectIntersectionArea(tri, kRect), 0.0);
}

TEST(PolygonRectAreaTest, HoleSubtracted) {
  Polygon donut(Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
                {Ring{{4, 4}, {6, 4}, {6, 6}, {4, 6}}});
  ASSERT_TRUE(donut.Normalize().ok());
  const BBox window(3, 3, 7, 7);
  // window 4×4 = 16, hole inside window 2×2 = 4 → 12.
  EXPECT_NEAR(PolygonRectIntersectionArea(donut, window), 12.0, 1e-9);
}

TEST(PolygonRectCoverageTest, FractionInUnitRange) {
  Polygon half(Ring{{0, 0}, {10, 0}, {10, 5}, {0, 5}});
  ASSERT_TRUE(half.Normalize().ok());
  EXPECT_NEAR(PolygonRectCoverageFraction(half, kRect), 0.5, 1e-9);
}

TEST(PolygonRectCoveragePropertyTest, RandomTrianglesBounded) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    Ring tri;
    for (int v = 0; v < 3; ++v) {
      tri.push_back({rng.Uniform(-5, 15), rng.Uniform(-5, 15)});
    }
    if (std::fabs(SignedArea(tri)) < 1e-9) continue;
    Polygon poly{Ring(tri)};
    ASSERT_TRUE(poly.Normalize().ok());
    const double f = PolygonRectCoverageFraction(poly, kRect);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    // Intersection area can exceed neither the polygon nor the rect area.
    const double inter = PolygonRectIntersectionArea(poly, kRect);
    EXPECT_LE(inter, poly.Area() + 1e-9);
    EXPECT_LE(inter, kRect.Area() + 1e-9);
  }
}

}  // namespace
}  // namespace rj
