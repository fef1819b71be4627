#include "raster/viewport.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/taxi_generator.h"
#include "data/twitter_generator.h"

namespace rj::raster {
namespace {

TEST(ViewportTest, WorldScreenRoundTrip) {
  Viewport vp(BBox(100, 200, 300, 400), 100, 50);
  const Point w{150, 250};
  const Point s = vp.ToScreen(w);
  EXPECT_NEAR(s.x, 25.0, 1e-12);
  EXPECT_NEAR(s.y, 12.5, 1e-12);
  const Point back = vp.ToWorld(s);
  EXPECT_NEAR(back.x, w.x, 1e-9);
  EXPECT_NEAR(back.y, w.y, 1e-9);
}

TEST(ViewportTest, PixelOfClipsOutside) {
  Viewport vp(BBox(0, 0, 10, 10), 10, 10);
  EXPECT_EQ(vp.PixelOf({5.5, 5.5}), std::make_pair(5, 5));
  EXPECT_EQ(vp.PixelOf({-1.0, 5.0}), std::make_pair(-1, -1));
  EXPECT_EQ(vp.PixelOf({10.5, 5.0}), std::make_pair(-1, -1));
}

TEST(ViewportTest, PixelWorldRectTilesTheWorld) {
  Viewport vp(BBox(0, 0, 10, 20), 5, 10);
  const BBox r = vp.PixelWorldRect(0, 0);
  EXPECT_NEAR(r.min_x, 0.0, 1e-12);
  EXPECT_NEAR(r.max_x, 2.0, 1e-12);
  EXPECT_NEAR(r.max_y, 2.0, 1e-12);
  EXPECT_NEAR(vp.PixelWidth(), 2.0, 1e-12);
  EXPECT_NEAR(vp.PixelHeight(), 2.0, 1e-12);
}

TEST(PixelSideTest, EpsilonOverSqrtTwo) {
  EXPECT_NEAR(PixelSideForEpsilon(10.0), 10.0 / std::sqrt(2.0), 1e-12);
}

TEST(PlanCanvasTest, SingleTileWhenSmall) {
  auto tiles = PlanCanvas(BBox(0, 0, 100, 100), 10.0, 8192);
  ASSERT_TRUE(tiles.ok());
  ASSERT_EQ(tiles.value().size(), 1u);
  const CanvasTile& t = tiles.value()[0];
  // 100 / (10/√2) ≈ 14.14 → 15 pixels.
  EXPECT_EQ(t.width, 15);
  EXPECT_EQ(t.height, 15);
}

TEST(PlanCanvasTest, SplitsWhenExceedingFboLimit) {
  // Needs ~142 pixels per side with a 100-pixel limit → 2×2 tiles.
  auto tiles = PlanCanvas(BBox(0, 0, 1000, 1000), 10.0, 100);
  ASSERT_TRUE(tiles.ok());
  EXPECT_EQ(tiles.value().size(), 4u);
}

TEST(PlanCanvasTest, TilesPartitionTheFullCanvas) {
  auto tiles = PlanCanvas(BBox(0, 0, 1000, 500), 3.0, 128);
  ASSERT_TRUE(tiles.ok());
  // Total pixel area must equal full canvas pixel count.
  const double side = PixelSideForEpsilon(3.0);
  const std::int64_t full_w =
      static_cast<std::int64_t>(std::ceil(1000 / side));
  const std::int64_t full_h = static_cast<std::int64_t>(std::ceil(500 / side));
  std::int64_t total = 0;
  for (const CanvasTile& t : tiles.value()) {
    total += static_cast<std::int64_t>(t.width) * t.height;
    EXPECT_LE(t.width, 128);
    EXPECT_LE(t.height, 128);
  }
  EXPECT_EQ(total, full_w * full_h);
}

TEST(PlanCanvasTest, TileWorldsAreDisjointAndAligned) {
  auto tiles = PlanCanvas(BBox(0, 0, 300, 300), 5.0, 50);
  ASSERT_TRUE(tiles.ok());
  for (std::size_t i = 0; i < tiles.value().size(); ++i) {
    for (std::size_t j = i + 1; j < tiles.value().size(); ++j) {
      const BBox inter =
          tiles.value()[i].world.Intersection(tiles.value()[j].world);
      // Tiles may touch at borders but not overlap with positive area.
      EXPECT_LE(inter.Area(), 1e-9);
    }
  }
}

TEST(PlanCanvasTest, PixelSizeRespectsEpsilonBound) {
  auto tiles = PlanCanvas(BBox(0, 0, 777, 333), 7.0, 4096);
  ASSERT_TRUE(tiles.ok());
  for (const CanvasTile& t : tiles.value()) {
    const double pw = t.world.Width() / t.width;
    const double ph = t.world.Height() / t.height;
    // Pixel diagonal must not exceed ε.
    EXPECT_LE(std::sqrt(pw * pw + ph * ph), 7.0 + 1e-9);
  }
}

TEST(PlanCanvasTest, RejectsBadInput) {
  EXPECT_FALSE(PlanCanvas(BBox(0, 0, 10, 10), -1.0, 128).ok());
  EXPECT_FALSE(PlanCanvas(BBox(), 1.0, 128).ok());
  EXPECT_FALSE(PlanCanvas(BBox(0, 0, 10, 10), 1.0, 0).ok());
}

TEST(PlanCanvasTest, RejectsPlansAboveTheTileLimit) {
  // A tiny ε plans ~2.2e14 tiles over NYC; one near the smallest double
  // makes the canvas width infinite. Both fail before any allocation.
  for (const double eps : {1e-6, 5e-324}) {
    const auto tiles = PlanCanvas(NycExtentMeters(), eps, 4096);
    ASSERT_FALSE(tiles.ok()) << eps;
    EXPECT_EQ(tiles.status().code(), StatusCode::kInvalidArgument);
  }
  const auto nyc = PlanCanvas(NycExtentMeters(), 1.0, 4096);
  ASSERT_TRUE(nyc.ok());
  EXPECT_EQ(nyc.value().size(), 224u);
  const auto us = PlanCanvas(UsExtentMeters(), 10.0, 4096);
  ASSERT_TRUE(us.ok());
  EXPECT_EQ(us.value().size(), 15'132u);
  EXPECT_LE(static_cast<std::int64_t>(us.value().size()), kMaxCanvasTiles);
}

TEST(SingleCanvasTest, FixedResolution) {
  const CanvasTile t = SingleCanvas(BBox(0, 0, 10, 10), 800, 600);
  EXPECT_EQ(t.width, 800);
  EXPECT_EQ(t.height, 600);
  EXPECT_EQ(t.world, BBox(0, 0, 10, 10));
}

}  // namespace
}  // namespace rj::raster
