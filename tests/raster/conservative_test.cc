#include "raster/conservative.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <utility>

#include "common/rng.h"
#include "raster/rasterizer.h"

namespace rj::raster {
namespace {

using PixelSet = std::set<std::pair<std::int32_t, std::int32_t>>;

PixelSet CollectConservative(const Point& a, const Point& b, const Point& c,
                             std::int32_t w, std::int32_t h) {
  PixelSet px;
  RasterizeTriangleConservative(a, b, c, w, h,
                                [&px](std::int32_t x, std::int32_t y) {
                                  px.insert({x, y});
                                });
  return px;
}

PixelSet CollectRegular(const Point& a, const Point& b, const Point& c,
                        std::int32_t w, std::int32_t h) {
  PixelSet px;
  RasterizeTriangle(a, b, c, w, h, [&px](std::int32_t x, std::int32_t y) {
    px.insert({x, y});
  });
  return px;
}

TEST(ConservativeTest, SupersetOfRegularCoverage) {
  Rng rng(88);
  for (int trial = 0; trial < 50; ++trial) {
    const Point a{rng.Uniform(0, 30), rng.Uniform(0, 30)};
    const Point b{rng.Uniform(0, 30), rng.Uniform(0, 30)};
    const Point c{rng.Uniform(0, 30), rng.Uniform(0, 30)};
    const PixelSet regular = CollectRegular(a, b, c, 32, 32);
    const PixelSet conservative = CollectConservative(a, b, c, 32, 32);
    for (const auto& p : regular) {
      EXPECT_TRUE(conservative.count(p))
          << "regular pixel missing from conservative set, trial " << trial;
    }
  }
}

TEST(ConservativeTest, TinyTriangleInsideOnePixelEmitsThatPixel) {
  // Sliver entirely inside pixel (3,3), missing the center.
  const PixelSet px =
      CollectConservative({3.1, 3.1}, {3.3, 3.1}, {3.2, 3.2}, 8, 8);
  EXPECT_EQ(px.size(), 1u);
  EXPECT_TRUE(px.count({3, 3}));
  // Regular rasterization misses it (center not covered).
  EXPECT_TRUE(CollectRegular({3.1, 3.1}, {3.3, 3.1}, {3.2, 3.2}, 8, 8).empty());
}

TEST(ConservativeTest, EdgeThroughPixelCorner) {
  // Thin triangle along the diagonal: conservative must emit every pixel
  // the edge passes through.
  const PixelSet px =
      CollectConservative({0.0, 0.0}, {8.0, 8.0}, {8.0, 8.01}, 8, 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(px.count({i, i})) << "diagonal pixel " << i;
  }
}

TEST(ConservativeTest, ClipsToGrid) {
  const PixelSet px = CollectConservative({-10, -10}, {50, -10}, {20, 50},
                                          16, 16);
  for (const auto& [x, y] : px) {
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 16);
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 16);
  }
}

TEST(ConservativeSegmentTest, CoversAllTouchedPixels) {
  PixelSet px;
  RasterizeSegmentConservative({0.5, 0.5}, {7.5, 7.5}, 8, 8,
                               [&px](std::int32_t x, std::int32_t y) {
                                 px.insert({x, y});
                               });
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(px.count({i, i}));
}

TEST(ConservativeSegmentTest, SupersetOfDdaWalk) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const Point a{rng.Uniform(0, 16), rng.Uniform(0, 16)};
    const Point b{rng.Uniform(0, 16), rng.Uniform(0, 16)};
    PixelSet dda, cons;
    RasterizeSegment(a, b, 16, 16, [&dda](std::int32_t x, std::int32_t y) {
      dda.insert({x, y});
    });
    RasterizeSegmentConservative(a, b, 16, 16,
                                 [&cons](std::int32_t x, std::int32_t y) {
                                   cons.insert({x, y});
                                 });
    for (const auto& p : dda) {
      EXPECT_TRUE(cons.count(p)) << "trial " << trial;
    }
  }
}

TEST(ConservativeSegmentTest, HorizontalOnPixelBorder) {
  // Segment exactly on the border y=4 between pixel rows 3 and 4:
  // conservative emits both rows.
  PixelSet px;
  RasterizeSegmentConservative({1.0, 4.0}, {5.0, 4.0}, 8, 8,
                               [&px](std::int32_t x, std::int32_t y) {
                                 px.insert({x, y});
                               });
  EXPECT_TRUE(px.count({2, 3}));
  EXPECT_TRUE(px.count({2, 4}));
}

PixelSet CollectSegment(const Point& a, const Point& b, std::int32_t w,
                        std::int32_t h) {
  PixelSet px;
  RasterizeSegmentConservative(a, b, w, h,
                               [&px](std::int32_t x, std::int32_t y) {
                                 px.insert({x, y});
                               });
  return px;
}

// The scan window is clamped to the canvas in double before any integer
// cast, so every finite coordinate is valid input.

TEST(ConservativeTest, HugeTriangleCoversTheWholeCanvas) {
  const Point a{-1e12, -1e12}, b{1e12, -1e12}, c{0.0, 1e12};
  EXPECT_EQ(CollectConservative(a, b, c, 8, 8).size(), 64u);
  EXPECT_EQ(CollectConservative(a, c, b, 8, 8).size(), 64u);
}

TEST(ConservativeSegmentTest, FarEndpointsEmitOnlyTheCanvasRow) {
  PixelSet row;
  for (std::int32_t x = 0; x < 8; ++x) row.insert({x, 0});
  EXPECT_EQ(CollectSegment({-1e12, 0.5}, {1e12, 0.5}, 8, 8), row);
  EXPECT_EQ(CollectSegment({1e12, 0.5}, {-1e12, 0.5}, 8, 8), row);
}

TEST(ConservativeTest, ShapesWhollyOutsideTheCanvasEmitNothing) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Beyond the one-pixel expansion on each side, near and far.
  EXPECT_TRUE(CollectConservative({9.5, 1}, {12, 1}, {10, 5}, 8, 8).empty());
  EXPECT_TRUE(
      CollectConservative({1, -1e12}, {5, -1e12}, {3, -2.5}, 8, 8).empty());
  EXPECT_TRUE(
      CollectConservative({1e12, 1e12}, {2e12, 1e12}, {1e12, 2e12}, 8, 8)
          .empty());
  EXPECT_TRUE(CollectConservative({-3, -3}, {-2.5, -3}, {-3, -2.5}, 8, 8)
                  .empty());
  EXPECT_TRUE(CollectConservative({nan, 1}, {nan, 2}, {nan, 3}, 8, 8).empty());
  EXPECT_TRUE(CollectSegment({-1e12, 9.5}, {1e12, 9.5}, 8, 8).empty());
  EXPECT_TRUE(CollectSegment({-1e12, -1e12}, {-2.5, -3}, 8, 8).empty());
  EXPECT_TRUE(CollectSegment({1e12, 1}, {2e12, 5}, 8, 8).empty());
  EXPECT_TRUE(CollectSegment({nan, nan}, {nan, nan}, 8, 8).empty());
}

}  // namespace
}  // namespace rj::raster
