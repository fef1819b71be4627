#include "raster/pipeline.h"

#include <gtest/gtest.h>

#include <cmath>

#include "triangulate/triangulation.h"

namespace rj::raster {
namespace {

PointTable MakePoints() {
  PointTable t;
  t.AddAttribute("w");
  t.Append(1.5, 1.5, {10.0f});
  t.Append(1.6, 1.4, {20.0f});
  t.Append(5.5, 5.5, {5.0f});
  t.Append(9.5, 9.5, {1.0f});
  return t;
}

TEST(DrawPointsTest, CountsPerPixel) {
  Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  Fbo fbo(10, 10);
  PointTable pts = MakePoints();
  const std::uint64_t drawn =
      DrawPoints(vp, pts, FilterSet(), PointTable::npos, &fbo, nullptr);
  EXPECT_EQ(drawn, 4u);
  EXPECT_EQ(fbo.At(1, 1, kChannelCount), 2.0f);  // two points in pixel (1,1)
  EXPECT_EQ(fbo.At(5, 5, kChannelCount), 1.0f);
  EXPECT_EQ(fbo.At(9, 9, kChannelCount), 1.0f);
  EXPECT_EQ(fbo.At(0, 0, kChannelCount), 0.0f);
}

TEST(DrawPointsTest, WeightSumMinMaxChannels) {
  Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  Fbo fbo(10, 10);
  PointTable pts = MakePoints();
  DrawPoints(vp, pts, FilterSet(), 0, &fbo, nullptr);
  EXPECT_EQ(fbo.At(1, 1, kChannelSum), 30.0f);
  EXPECT_EQ(fbo.At(1, 1, kChannelMin), 10.0f);
  EXPECT_EQ(fbo.At(1, 1, kChannelMax), 20.0f);
}

TEST(DrawPointsTest, FiltersDiscardInVertexStage) {
  Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  Fbo fbo(10, 10);
  PointTable pts = MakePoints();
  FilterSet filters;
  ASSERT_TRUE(filters.Add({0, FilterOp::kGreaterEqual, 10.0f}).ok());
  const std::uint64_t drawn =
      DrawPoints(vp, pts, filters, PointTable::npos, &fbo, nullptr);
  EXPECT_EQ(drawn, 2u);  // weights 10 and 20 pass
  EXPECT_EQ(fbo.At(5, 5, kChannelCount), 0.0f);
}

TEST(DrawPointsTest, OutOfViewportClipped) {
  Viewport vp(BBox(0, 0, 5, 5), 5, 5);  // excludes points at 5.5 / 9.5
  Fbo fbo(5, 5);
  PointTable pts = MakePoints();
  const std::uint64_t drawn =
      DrawPoints(vp, pts, FilterSet(), PointTable::npos, &fbo, nullptr);
  EXPECT_EQ(drawn, 2u);
}

TEST(DrawPointsTest, CountersMetered) {
  Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  Fbo fbo(10, 10);
  PointTable pts = MakePoints();
  gpu::Counters counters;
  DrawPoints(vp, pts, FilterSet(), PointTable::npos, &fbo, &counters);
  EXPECT_EQ(counters.vertices(), 4u);
  EXPECT_EQ(counters.fragments(), 4u);
}

TEST(DrawPolygonsTest, AccumulatesPixelAggregates) {
  // One square polygon covering the left half of a 4×4 canvas.
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {2, 0}, {2, 4}, {0, 4}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());
  auto soup = TriangulatePolygonSet(polys);
  ASSERT_TRUE(soup.ok());

  Viewport vp(BBox(0, 0, 4, 4), 4, 4);
  Fbo point_fbo(4, 4);
  point_fbo.Set(0, 0, kChannelCount, 3.0f);
  point_fbo.Set(1, 3, kChannelCount, 2.0f);
  point_fbo.Set(3, 3, kChannelCount, 7.0f);  // outside the polygon

  ResultArrays result(1);
  DrawPolygons(vp, soup.value(), point_fbo, nullptr, &result, nullptr);
  EXPECT_DOUBLE_EQ(result.count[0], 5.0);
}

TEST(DrawPolygonsTest, BoundarySkippedWhenBoundaryFboGiven) {
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());
  auto soup = TriangulatePolygonSet(polys);
  ASSERT_TRUE(soup.ok());

  Viewport vp(BBox(0, 0, 4, 4), 4, 4);
  Fbo point_fbo(4, 4);
  point_fbo.Set(1, 1, kChannelCount, 5.0f);
  point_fbo.Set(2, 2, kChannelCount, 3.0f);

  BoundaryMask boundary(4, 4);
  boundary.Mark(1, 1);  // mark (1,1) as boundary

  ResultArrays result(1);
  DrawPolygons(vp, soup.value(), point_fbo, &boundary, &result, nullptr);
  EXPECT_DOUBLE_EQ(result.count[0], 3.0);  // (1,1) skipped
}

TEST(BoundaryMaskTest, RowsArePaddedToWholeWords) {
  // 65 pixels take two words per row, so the last pixel of one row and the
  // first of the next never share a word (parallel row-band owners write
  // disjoint words).
  BoundaryMask mask(65, 3);
  ASSERT_EQ(mask.words().size(), 6u);
  mask.Mark(64, 0);
  mask.Mark(0, 1);
  EXPECT_TRUE(mask.IsMarked(64, 0));
  EXPECT_FALSE(mask.IsMarked(63, 0));
  EXPECT_TRUE(mask.IsMarked(0, 1));
  EXPECT_FALSE(mask.IsMarked(0, 0));
  EXPECT_EQ(mask.words()[1], 1u);  // row 0, second word, bit 0
  EXPECT_EQ(mask.words()[2], 1u);  // row 1, first word, bit 0
}

TEST(DrawBoundariesTest, OutlinePixelsMarked) {
  PolygonSet polys;
  polys.emplace_back(Ring{{1, 1}, {7, 1}, {7, 7}, {1, 7}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());

  Viewport vp(BBox(0, 0, 8, 8), 8, 8);
  BoundaryMask boundary(8, 8);
  DrawBoundaries(vp, polys, /*conservative=*/true, &boundary, nullptr);

  // Outline pixels marked; the deep interior stays unmarked. (Pixels
  // whose square merely touches the outline at a corner — like (0,0)
  // touching the outline corner (1,1) — are legitimately marked by
  // conservative rasterization, so they are not asserted either way.)
  EXPECT_TRUE(boundary.IsMarked(1, 1));
  EXPECT_TRUE(boundary.IsMarked(4, 1));
  EXPECT_TRUE(boundary.IsMarked(7, 4));
  EXPECT_FALSE(boundary.IsMarked(4, 4));  // interior
}

TEST(DrawBoundariesTest, HoleOutlinesAlsoMarked) {
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {8, 0}, {8, 8}, {0, 8}},
                     std::vector<Ring>{{{3, 3}, {5, 3}, {5, 5}, {3, 5}}});
  polys[0].set_id(0);
  ASSERT_TRUE(polys[0].Normalize().ok());

  Viewport vp(BBox(0, 0, 8, 8), 8, 8);
  BoundaryMask boundary(8, 8);
  DrawBoundaries(vp, polys, true, &boundary, nullptr);
  EXPECT_TRUE(boundary.IsMarked(3, 3));  // hole corner
  EXPECT_FALSE(boundary.IsMarked(1, 1));  // solid interior
}

TEST(ResultArraysTest, MergeAddsCountsAndSumsKeepsMinMax) {
  ResultArrays a(2), b(2);
  a.count[0] = 3;
  a.sum[0] = 30;
  a.min[0] = 5;
  a.max[0] = 12;
  b.count[0] = 2;
  b.sum[0] = 20;
  b.min[0] = 2;
  b.max[0] = 9;
  a.AddFrom(b);
  EXPECT_DOUBLE_EQ(a.count[0], 5.0);
  EXPECT_DOUBLE_EQ(a.sum[0], 50.0);
  EXPECT_DOUBLE_EQ(a.min[0], 2.0);
  EXPECT_DOUBLE_EQ(a.max[0], 12.0);
  // Untouched slot stays at identity values.
  EXPECT_DOUBLE_EQ(a.count[1], 0.0);
  EXPECT_TRUE(std::isinf(a.min[1]));
}

}  // namespace
}  // namespace rj::raster
