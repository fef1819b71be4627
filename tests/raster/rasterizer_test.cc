#include "raster/rasterizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "geometry/pip.h"
#include "geometry/polygon.h"
#include "raster/viewport.h"
#include "triangulate/ear_clipping.h"

namespace rj::raster {
namespace {

using PixelSet = std::set<std::pair<std::int32_t, std::int32_t>>;

PixelSet Collect(const Point& a, const Point& b, const Point& c,
                 std::int32_t w, std::int32_t h) {
  PixelSet pixels;
  RasterizeTriangle(a, b, c, w, h, [&pixels](std::int32_t x, std::int32_t y) {
    const bool inserted = pixels.insert({x, y}).second;
    EXPECT_TRUE(inserted) << "pixel emitted twice";
  });
  return pixels;
}

TEST(RasterizerTest, PixelCenterRule) {
  // Triangle covering centers of pixels (0,0) and (1,0) only.
  // Centers at (0.5,0.5), (1.5,0.5). Triangle y range [0.2, 0.8].
  const PixelSet px = Collect({0.0, 0.2}, {2.0, 0.2}, {1.0, 0.8}, 8, 8);
  // Center (0.5,0.5): inside? Edge from (0,0.2) to (2,0.2) bottom, apex
  // (1,0.8). At x=0.5 the left edge from (0,0.2)-(1,0.8) has y = 0.2+0.6*0.5
  // = 0.5 → center exactly on edge; top-left rule decides. Use a simpler
  // assertion: only pixels whose center is strictly inside or on a
  // top-left edge appear, all within the bbox.
  for (const auto& [x, y] : px) {
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 2);
    EXPECT_EQ(y, 0);
  }
}

TEST(RasterizerTest, DegenerateTriangleEmitsNothing) {
  EXPECT_TRUE(Collect({1, 1}, {3, 3}, {5, 5}, 8, 8).empty());
  EXPECT_TRUE(Collect({1, 1}, {1, 1}, {1, 1}, 8, 8).empty());
}

TEST(RasterizerTest, WindingIndependent) {
  const PixelSet ccw = Collect({0.1, 0.1}, {6.9, 0.1}, {3.5, 5.9}, 8, 8);
  const PixelSet cw = Collect({0.1, 0.1}, {3.5, 5.9}, {6.9, 0.1}, 8, 8);
  EXPECT_EQ(ccw, cw);
}

TEST(RasterizerTest, ClipsToGrid) {
  // Triangle much larger than an 4×4 grid: all 16 pixels covered.
  const PixelSet px = Collect({-10, -10}, {20, -10}, {5, 20}, 4, 4);
  EXPECT_EQ(px.size(), 16u);
}

TEST(RasterizerTest, FullySouthOfGridEmitsNothing) {
  EXPECT_TRUE(Collect({0, -5}, {4, -5}, {2, -1}, 4, 4).empty());
}

TEST(RasterizerTest, SharedEdgeNoDoubleNoGap) {
  // Split a square into two triangles along the diagonal; every covered
  // pixel must be covered by exactly one triangle (top-left rule).
  const Point p00{0, 0}, p10{16, 0}, p11{16, 16}, p01{0, 16};
  PixelSet t1, t2;
  RasterizeTriangle(p00, p10, p11, 16, 16,
                    [&t1](std::int32_t x, std::int32_t y) {
                      t1.insert({x, y});
                    });
  RasterizeTriangle(p00, p11, p01, 16, 16,
                    [&t2](std::int32_t x, std::int32_t y) {
                      t2.insert({x, y});
                    });
  // Union covers all 256; intersection empty.
  PixelSet inter;
  for (const auto& p : t1) {
    if (t2.count(p)) inter.insert(p);
  }
  EXPECT_TRUE(inter.empty());
  EXPECT_EQ(t1.size() + t2.size(), 256u);
}

TEST(RasterizerPropertyTest, SharedEdgePartitionForRandomSplits) {
  // Random quads split along a diagonal: no pixel double-shaded, union
  // equals the quad's own rasterization when the quad is convex.
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    // Random convex quad via two triangles sharing diagonal (a, c).
    const Point a{rng.Uniform(1, 30), rng.Uniform(1, 30)};
    const Point b{a.x + rng.Uniform(2, 12), a.y + rng.Uniform(-2, 2)};
    const Point c{b.x + rng.Uniform(-2, 2), b.y + rng.Uniform(2, 12)};
    const Point d{a.x + rng.Uniform(-2, 2), a.y + rng.Uniform(2, 12)};
    // Require convexity (all cross products same sign) to make the union
    // test meaningful.
    const double c1 = Orient2D(a, b, c), c2 = Orient2D(b, c, d);
    const double c3 = Orient2D(c, d, a), c4 = Orient2D(d, a, b);
    if (!((c1 > 0 && c2 > 0 && c3 > 0 && c4 > 0))) continue;

    PixelSet t1, t2;
    RasterizeTriangle(a, b, c, 64, 64, [&t1](std::int32_t x, std::int32_t y) {
      t1.insert({x, y});
    });
    RasterizeTriangle(a, c, d, 64, 64, [&t2](std::int32_t x, std::int32_t y) {
      t2.insert({x, y});
    });
    for (const auto& p : t1) {
      EXPECT_EQ(t2.count(p), 0u) << "double-shaded pixel, trial " << trial;
    }
  }
}

TEST(RasterizerTest, HugeTriangleClipsToTheCanvas) {
  // The bounding box and the crossing estimates are clamped in double, so
  // vertices far outside any int32 pixel index are valid input.
  const Point a{-1e12, -1e12}, b{1e12, -1e12}, c{0.0, 1e12};
  EXPECT_EQ(Collect(a, b, c, 8, 8).size(), 64u);
  EXPECT_EQ(Collect(a, c, b, 8, 8).size(), 64u);
}

TEST(RasterizeSegmentTest, HorizontalSegment) {
  PixelSet px;
  RasterizeSegment({0.5, 0.5}, {4.5, 0.5}, 8, 8,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  EXPECT_EQ(px.size(), 5u);
  for (const auto& [x, y] : px) EXPECT_EQ(y, 0);
}

TEST(RasterizeSegmentTest, VerticalSegment) {
  PixelSet px;
  RasterizeSegment({2.5, 0.5}, {2.5, 6.5}, 8, 8,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  EXPECT_EQ(px.size(), 7u);
  for (const auto& [x, y] : px) EXPECT_EQ(x, 2);
}

TEST(RasterizeSegmentTest, DiagonalIsConnected) {
  PixelSet px;
  RasterizeSegment({0.5, 0.5}, {7.5, 5.5}, 8, 8,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  // 4-or-8-connectivity: consecutive pixels differ by at most 1 in each
  // coordinate. Verify no "jumps": for each pixel there is a neighbor.
  EXPECT_GE(px.size(), 8u);
  EXPECT_TRUE(px.count({0, 0}));
  EXPECT_TRUE(px.count({7, 5}));
}

TEST(RasterizeSegmentTest, ClipsOutOfGrid) {
  PixelSet px;
  RasterizeSegment({-3.5, 0.5}, {3.5, 0.5}, 4, 4,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  for (const auto& [x, y] : px) {
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 4);
    EXPECT_EQ(y, 0);
  }
}

TEST(RasterizeSegmentTest, ZeroLengthEmitsOnePixel) {
  PixelSet px;
  RasterizeSegment({2.5, 2.5}, {2.5, 2.5}, 8, 8,
                   [&px](std::int32_t x, std::int32_t y) {
                     px.insert({x, y});
                   });
  EXPECT_EQ(px.size(), 1u);
  EXPECT_TRUE(px.count({2, 2}));
}

TEST(RasterizerCoverageTest, TriangulationCoversPolygonInteriorExactly) {
  // Triangulate a concave polygon and rasterize all triangles: each pixel
  // covered exactly once, and coverage matches the PIP classification of
  // pixel centers (the invariant the raster join depends on).
  const Ring l = {{1, 1}, {13, 1}, {13, 6}, {7, 6}, {7, 13}, {1, 13}};
  auto tris = EarClipTriangulate(l);
  ASSERT_TRUE(tris.ok());

  std::map<std::pair<std::int32_t, std::int32_t>, int> coverage;
  for (const Triangle& t : tris.value()) {
    RasterizeTriangle(t.a, t.b, t.c, 16, 16,
                      [&coverage](std::int32_t x, std::int32_t y) {
                        coverage[{x, y}]++;
                      });
  }
  for (const auto& [pixel, count] : coverage) {
    EXPECT_EQ(count, 1) << "pixel (" << pixel.first << "," << pixel.second
                        << ") shaded " << count << " times";
  }
  // Compare to pixel-center PIP for strictly interior/exterior centers.
  for (std::int32_t y = 0; y < 16; ++y) {
    for (std::int32_t x = 0; x < 16; ++x) {
      const Point center{x + 0.5, y + 0.5};
      const PipResult pip = TestPointInRing(l, center);
      if (pip == PipResult::kBoundary) continue;  // tie-break zone
      const bool covered = coverage.count({x, y}) > 0;
      EXPECT_EQ(covered, pip == PipResult::kInside)
          << "center (" << center.x << "," << center.y << ")";
    }
  }
}

// --- The span scan against the bounding-box scan it replaced. -----------

using Fragments = std::vector<std::pair<std::int32_t, std::int32_t>>;

double RefEdgeFunction(const Point& p, const Point& q, const Point& s) {
  return (q.x - p.x) * (s.y - p.y) - (q.y - p.y) * (s.x - p.x);
}

bool RefIsTopLeft(const Point& p, const Point& q) {
  const double dy = q.y - p.y;
  const double dx = q.x - p.x;
  return dy > 0.0 || (dy == 0.0 && dx < 0.0);
}

/// The reference: tests every pixel of the triangle's clipped bounding box
/// with the three edge functions and the top-left rule, in row-major
/// order. Valid only while the box's pixel indices fit in an int32.
Fragments BoxScan(Point a, Point b, Point c, std::int32_t width,
                  std::int32_t height) {
  Fragments out;
  const double area2 = Orient2D(a, b, c);
  if (area2 == 0.0) return out;
  if (area2 < 0.0) std::swap(b, c);

  const double min_xf = std::min({a.x, b.x, c.x});
  const double max_xf = std::max({a.x, b.x, c.x});
  const double min_yf = std::min({a.y, b.y, c.y});
  const double max_yf = std::max({a.y, b.y, c.y});
  std::int32_t x0 = static_cast<std::int32_t>(std::floor(min_xf - 0.5)) + 1;
  std::int32_t x1 = static_cast<std::int32_t>(std::ceil(max_xf - 0.5)) - 1;
  std::int32_t y0 = static_cast<std::int32_t>(std::floor(min_yf - 0.5)) + 1;
  std::int32_t y1 = static_cast<std::int32_t>(std::ceil(max_yf - 0.5)) - 1;
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  x1 = std::min(x1, width - 1);
  y1 = std::min(y1, height - 1);
  if (x0 > x1 || y0 > y1) return out;

  const bool tl_ab = RefIsTopLeft(a, b);
  const bool tl_bc = RefIsTopLeft(b, c);
  const bool tl_ca = RefIsTopLeft(c, a);
  for (std::int32_t y = y0; y <= y1; ++y) {
    const double sy = y + 0.5;
    for (std::int32_t x = x0; x <= x1; ++x) {
      const Point s{x + 0.5, sy};
      const double w0 = RefEdgeFunction(a, b, s);
      const double w1 = RefEdgeFunction(b, c, s);
      const double w2 = RefEdgeFunction(c, a, s);
      const bool in0 = w0 > 0.0 || (w0 == 0.0 && tl_ab);
      const bool in1 = w1 > 0.0 || (w1 == 0.0 && tl_bc);
      const bool in2 = w2 > 0.0 || (w2 == 0.0 && tl_ca);
      if (in0 && in1 && in2) out.emplace_back(x, y);
    }
  }
  return out;
}

/// The span scan's fragments in emission order. Also checks its contract:
/// rows strictly increase, and no span is empty.
Fragments SpanScan(const Point& a, const Point& b, const Point& c,
                   std::int32_t width, std::int32_t height) {
  Fragments out;
  std::int64_t last_y = -1;
  ScanTriangleSpans(
      a, b, c, width, height,
      [&](std::int32_t y, std::int32_t x_lo, std::int32_t x_hi) {
        EXPECT_GT(y, last_y) << "row repeated or out of order";
        EXPECT_LE(x_lo, x_hi) << "empty span";
        last_y = y;
        for (std::int32_t x = x_lo; x <= x_hi; ++x) out.emplace_back(x, y);
      });
  return out;
}

::testing::AssertionResult SameFragments(const Point& a, const Point& b,
                                         const Point& c, std::int32_t width,
                                         std::int32_t height) {
  const Fragments box = BoxScan(a, b, c, width, height);
  const Fragments span = SpanScan(a, b, c, width, height);
  if (box == span) return ::testing::AssertionSuccess();
  std::size_t i = 0;
  while (i < box.size() && i < span.size() && box[i] == span[i]) ++i;
  return ::testing::AssertionFailure()
         << std::setprecision(17) << "triangle (" << a.x << ", " << a.y
         << ") (" << b.x << ", " << b.y << ") (" << c.x << ", " << c.y
         << ") on " << width << "x" << height << ": box scan emits "
         << box.size() << " fragments, span scan " << span.size()
         << ", first difference at fragment " << i;
}

// Odd sizes, and vertices up to 8 pixels past every side, so rows and
// columns clip.
constexpr std::int32_t kW = 29;
constexpr std::int32_t kH = 23;
constexpr int kTrials = 4000;

Point Anywhere(Rng& rng) {
  return {rng.Uniform(-8.0, kW + 8.0), rng.Uniform(-8.0, kH + 8.0)};
}

/// v rounded down to a multiple of `step`, plus `offset`.
double Snap(double v, double step, double offset) {
  return std::floor(v / step) * step + offset;
}

/// Checks both windings of (a, b, c) against the reference.
void ExpectSameBothWindings(const Point& a, const Point& b, const Point& c) {
  EXPECT_TRUE(SameFragments(a, b, c, kW, kH));
  EXPECT_TRUE(SameFragments(a, c, b, kW, kH));
}

TEST(ScanTriangleSpansTest, MatchesBoxScanOnRandomTriangles) {
  Rng rng(101);
  for (int i = 0; i < kTrials; ++i) {
    ExpectSameBothWindings(Anywhere(rng), Anywhere(rng), Anywhere(rng));
  }
}

TEST(ScanTriangleSpansTest, MatchesBoxScanOnSlivers) {
  // The third vertex sits a tiny distance off the line through the other
  // two, so every row holds zero, one or a few pixels.
  Rng rng(102);
  for (int i = 0; i < kTrials; ++i) {
    const Point a = Anywhere(rng);
    const Point b = Anywhere(rng);
    const double t = rng.Uniform(-0.5, 1.5);
    const double off = std::pow(10.0, -rng.Uniform(1.0, 12.0));
    const Point c{a.x + t * (b.x - a.x) - off * (b.y - a.y),
                  a.y + t * (b.y - a.y) + off * (b.x - a.x)};
    ExpectSameBothWindings(a, b, c);
  }
}

TEST(ScanTriangleSpansTest, MatchesBoxScanOnAxisAlignedTriangles) {
  // One horizontal and one vertical edge; every other triangle has its
  // corners on pixel centers, where the horizontal edge's test is a tie.
  Rng rng(103);
  for (int i = 0; i < kTrials; ++i) {
    Point a = Anywhere(rng);
    Point b = Anywhere(rng);
    if (i % 2 == 1) {
      a = {Snap(a.x, 1.0, 0.5), Snap(a.y, 1.0, 0.5)};
      b = {Snap(b.x, 1.0, 0.5), Snap(b.y, 1.0, 0.5)};
    }
    ExpectSameBothWindings(a, {b.x, a.y}, {a.x, b.y});
    ExpectSameBothWindings(a, {b.x, a.y}, b);
  }
}

TEST(ScanTriangleSpansTest, MatchesBoxScanOnPixelCenterTies) {
  // Half-integer vertices: edges pass exactly through pixel centers, so the
  // top-left rule decides many pixels.
  Rng rng(104);
  const auto center = [&rng] {
    const Point p = Anywhere(rng);
    return Point{Snap(p.x, 1.0, 0.5), Snap(p.y, 1.0, 0.5)};
  };
  for (int i = 0; i < kTrials; ++i) {
    ExpectSameBothWindings(center(), center(), center());
  }
}

TEST(ScanTriangleSpansTest, MatchesBoxScanOnQuarterPixelLattice) {
  Rng rng(105);
  const auto lattice = [&rng] {
    const Point p = Anywhere(rng);
    return Point{Snap(p.x, 0.25, 0.0), Snap(p.y, 0.25, 0.0)};
  };
  for (int i = 0; i < kTrials; ++i) {
    ExpectSameBothWindings(lattice(), lattice(), lattice());
  }
}

/// Every triangle of `soup`, drawn on a width × height canvas over `world`.
void ExpectSameOnEveryTriangle(const TriangleSoup& soup, const BBox& world,
                               std::int32_t width, std::int32_t height) {
  const Viewport vp(world, width, height);
  for (const Triangle& t : soup) {
    ASSERT_TRUE(SameFragments(vp.ToScreen(t.a), vp.ToScreen(t.b),
                              vp.ToScreen(t.c), width, height))
        << "polygon " << t.polygon_id;
  }
}

TEST(ScanTriangleSpansTest, MatchesBoxScanOnEveryNycTriangle) {
  auto polys = NycNeighborhoods();
  ASSERT_TRUE(polys.ok());
  auto soup = TriangulatePolygonSet(polys.value());
  ASSERT_TRUE(soup.ok());
  // 1273 × 1132 is the ε = 50 m canvas of the NYC extent.
  const std::pair<std::int32_t, std::int32_t> canvases[] = {
      {256, 256}, {1024, 1024}, {2048, 2048}, {1273, 1132}};
  for (const auto& [width, height] : canvases) {
    ExpectSameOnEveryTriangle(soup.value(), NycExtentMeters(), width, height);
  }
}

TEST(ScanTriangleSpansTest, MatchesBoxScanOnTinyRegions) {
  const BBox world(0, 0, 1000, 1000);
  auto polys = TinyRegions(40, world);
  ASSERT_TRUE(polys.ok());
  auto soup = TriangulatePolygonSet(polys.value());
  ASSERT_TRUE(soup.ok());
  ExpectSameOnEveryTriangle(soup.value(), world, 64, 64);
  ExpectSameOnEveryTriangle(soup.value(), world, 333, 217);
}

// --- The segment walk: far ends are clipped, the traversal is unchanged. --

/// The reference: the traversal RasterizeSegment ran before it clipped far
/// endpoints, copied verbatim. Valid only while both endpoints' pixel
/// indices fit in an int32.
Fragments RefSegmentWalk(const Point& a, const Point& b, std::int32_t width,
                         std::int32_t height) {
  Fragments out;
  double x = a.x, y = a.y;
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;

  std::int32_t px = static_cast<std::int32_t>(std::floor(x));
  std::int32_t py = static_cast<std::int32_t>(std::floor(y));
  const std::int32_t end_px = static_cast<std::int32_t>(std::floor(b.x));
  const std::int32_t end_py = static_cast<std::int32_t>(std::floor(b.y));

  const std::int32_t step_x = dx > 0 ? 1 : (dx < 0 ? -1 : 0);
  const std::int32_t step_y = dy > 0 ? 1 : (dy < 0 ? -1 : 0);

  auto emit_clipped = [&](std::int32_t ex, std::int32_t ey) {
    if (ex >= 0 && ex < width && ey >= 0 && ey < height) {
      out.emplace_back(ex, ey);
    }
  };

  double t_max_x, t_max_y, t_delta_x, t_delta_y;
  if (step_x != 0) {
    const double next_vx = step_x > 0 ? (px + 1.0) : px;
    t_max_x = (next_vx - x) / dx;
    t_delta_x = 1.0 / std::fabs(dx);
  } else {
    t_max_x = std::numeric_limits<double>::infinity();
    t_delta_x = std::numeric_limits<double>::infinity();
  }
  if (step_y != 0) {
    const double next_vy = step_y > 0 ? (py + 1.0) : py;
    t_max_y = (next_vy - y) / dy;
    t_delta_y = 1.0 / std::fabs(dy);
  } else {
    t_max_y = std::numeric_limits<double>::infinity();
    t_delta_y = std::numeric_limits<double>::infinity();
  }

  emit_clipped(px, py);
  const std::int64_t max_steps =
      static_cast<std::int64_t>(std::fabs(b.x - a.x) + std::fabs(b.y - a.y)) +
      4;
  for (std::int64_t i = 0; i < max_steps; ++i) {
    if (px == end_px && py == end_py) break;
    if (t_max_x < t_max_y) {
      t_max_x += t_delta_x;
      px += step_x;
    } else {
      t_max_y += t_delta_y;
      py += step_y;
    }
    emit_clipped(px, py);
  }
  return out;
}

/// RasterizeSegment's fragments in emission order.
Fragments SegmentWalk(const Point& a, const Point& b, std::int32_t width,
                      std::int32_t height) {
  Fragments out;
  RasterizeSegment(a, b, width, height,
                   [&out](std::int32_t x, std::int32_t y) {
                     out.emplace_back(x, y);
                   });
  return out;
}

/// A point of the guard rectangle [-1, W+1] × [-1, H+1], within which
/// RasterizeSegment walks its endpoints as given.
Point InGuard(Rng& rng) {
  return {rng.Uniform(-1.0, kW + 1.0), rng.Uniform(-1.0, kH + 1.0)};
}

void ExpectSameWalk(const Point& a, const Point& b) {
  EXPECT_EQ(SegmentWalk(a, b, kW, kH), RefSegmentWalk(a, b, kW, kH))
      << std::setprecision(17) << "segment (" << a.x << ", " << a.y
      << ") (" << b.x << ", " << b.y << ")";
}

TEST(RasterizeSegmentTest, WalkInsideTheGuardMatchesTheReference) {
  Rng rng(201);
  for (int i = 0; i < kTrials; ++i) {
    const Point a = InGuard(rng);
    const Point b = InGuard(rng);
    ExpectSameWalk(a, b);
    ExpectSameWalk(a, a);                      // zero length
    ExpectSameWalk(a, {b.x, a.y});             // horizontal
    ExpectSameWalk(a, {a.x, b.y});             // vertical
    const Point ha{Snap(a.x, 1.0, 0.5), Snap(a.y, 1.0, 0.5)};
    const Point hb{Snap(b.x, 1.0, 0.5), Snap(b.y, 1.0, 0.5)};
    ExpectSameWalk(ha, hb);                    // half-integer endpoints
    ExpectSameWalk({Snap(a.x, 1.0, 0.0), Snap(a.y, 1.0, 0.0)},
                   {Snap(b.x, 1.0, 0.0), Snap(b.y, 1.0, 0.0)});  // corners
  }
  // The guard's own corners and edges.
  ExpectSameWalk({-1.0, -1.0}, {kW + 1.0, kH + 1.0});
  ExpectSameWalk({-1.0, kH + 1.0}, {kW + 1.0, -1.0});
  ExpectSameWalk({-1.0, 0.5}, {kW + 1.0, 0.5});
}

TEST(RasterizeSegmentTest, FarEndpointsEmitOnlyTheCanvasRow) {
  // Both ends 10^12 pixels off the canvas: the walk starts and ends on the
  // guard rectangle, so it emits row 0's eight pixels in a few steps.
  Fragments row;
  for (std::int32_t x = 0; x < 8; ++x) row.emplace_back(x, 0);
  EXPECT_EQ(SegmentWalk({-1e12, 0.5}, {1e12, 0.5}, 8, 8), row);
  const Fragments reversed(row.rbegin(), row.rend());
  EXPECT_EQ(SegmentWalk({1e12, 0.5}, {-1e12, 0.5}, 8, 8), reversed);
}

TEST(RasterizeSegmentTest, SegmentsMissingTheCanvasOrNotFiniteEmitNothing) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(SegmentWalk({-1e12, -5.0}, {1e12, -5.0}, 8, 8).empty());
  EXPECT_TRUE(SegmentWalk({20.0, -1e12}, {20.0, 1e12}, 8, 8).empty());
  EXPECT_TRUE(SegmentWalk({-1e12, 1e12}, {-5.0, 1e12}, 8, 8).empty());
  EXPECT_TRUE(SegmentWalk({-inf, 0.5}, {inf, 0.5}, 8, 8).empty());
  EXPECT_TRUE(SegmentWalk({nan, 0.5}, {4.5, 0.5}, 8, 8).empty());
  EXPECT_TRUE(SegmentWalk({4.5, 0.5}, {4.5, nan}, 8, 8).empty());
}

TEST(RasterizeSegmentTest, ExtremeFiniteEndpointsStayBoundedByTheCanvas) {
  // Both ends near the largest double: the clipped ends are only as exact
  // as the endpoints' ulp, but the walk stays on the canvas and short.
  const double big = std::numeric_limits<double>::max();
  for (const auto& [a, b] :
       {std::pair<Point, Point>{{-big, 0.5}, {big, 0.5}},
        std::pair<Point, Point>{{-big, -big}, {big, big}},
        std::pair<Point, Point>{{big, -big}, {-big, big}},
        std::pair<Point, Point>{{3.5, 2.5}, {-big, big}}}) {
    const Fragments walk = SegmentWalk(a, b, 8, 8);
    EXPECT_LE(walk.size(), 8u + 8u + 4u);
    for (const auto& [x, y] : walk) {
      EXPECT_TRUE(x >= 0 && x < 8 && y >= 0 && y < 8);
    }
  }
}

TEST(RasterizeSegmentTest, FarEndpointWalksAConnectedChainOnTheLine) {
  // One end on the canvas, the other up to 10^12 pixels away in any
  // direction: the emitted pixels form one 4-connected chain of at most
  // W + H + 4 pixels, each touching the segment's line, ending (or
  // starting) at the near end's pixel.
  Rng rng(202);
  for (int i = 0; i < kTrials; ++i) {
    const Point near{rng.Uniform(0.0, kW), rng.Uniform(0.0, kH)};
    const double angle = rng.Uniform(0.0, 2.0 * M_PI);
    const double distance = std::pow(10.0, rng.Uniform(0.0, 12.0));
    Point dir{std::cos(angle), std::sin(angle)};
    if (i % 8 == 0) dir = {1.0, 0.0};
    if (i % 8 == 1) dir = {0.0, -1.0};
    const Point far{near.x + distance * dir.x, near.y + distance * dir.y};
    const bool near_first = i % 2 == 0;
    const Point a = near_first ? near : far;
    const Point b = near_first ? far : near;
    SCOPED_TRACE(::testing::Message()
                 << std::setprecision(17) << "segment (" << a.x << ", "
                 << a.y << ") (" << b.x << ", " << b.y << ")");
    const Fragments walk = SegmentWalk(a, b, kW, kH);
    ASSERT_FALSE(walk.empty());
    EXPECT_LE(walk.size(), static_cast<std::size_t>(kW + kH + 4));
    const std::pair<std::int32_t, std::int32_t> near_pixel{
        static_cast<std::int32_t>(std::floor(near.x)),
        static_cast<std::int32_t>(std::floor(near.y))};
    EXPECT_EQ(near_first ? walk.front() : walk.back(), near_pixel);

    // Distance of a pixel corner from the line, measured from the near end
    // along the unit normal (well conditioned: the near end is on the
    // canvas).
    const double length = std::hypot(far.x - near.x, far.y - near.y);
    const Point normal{-(far.y - near.y) / length, (far.x - near.x) / length};
    for (std::size_t k = 0; k < walk.size(); ++k) {
      const auto [x, y] = walk[k];
      if (k > 0) {
        const auto [px, py] = walk[k - 1];
        EXPECT_EQ(std::abs(x - px) + std::abs(y - py), 1)
            << "gap or repeat at fragment " << k;
      }
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (const Point corner : {Point{x + 0.0, y + 0.0}, Point{x + 1.0, y + 0.0},
                                 Point{x + 0.0, y + 1.0},
                                 Point{x + 1.0, y + 1.0}}) {
        const double d = normal.x * (corner.x - near.x) +
                         normal.y * (corner.y - near.y);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
      EXPECT_TRUE(lo <= 1e-9 && hi >= -1e-9)
          << "pixel (" << x << ", " << y << ") misses the line";
    }
  }
}

}  // namespace
}  // namespace rj::raster
