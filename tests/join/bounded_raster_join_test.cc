#include "join/raster_join_bounded.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "data/datasets.h"
#include "geometry/pip.h"
#include "query/executor.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

struct JoinSetup {
  PolygonSet polys;
  TriangleSoup soup;
  PointTable points;
  BBox world;
};

JoinSetup MakeSetup(std::size_t num_polys, std::size_t num_points,
                std::uint64_t seed) {
  JoinSetup s;
  s.world = BBox(0, 0, 1000, 1000);
  auto polys = TinyRegions(num_polys, s.world, seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  auto soup = TriangulatePolygonSet(s.polys);
  EXPECT_TRUE(soup.ok());
  s.soup = soup.value();

  Rng rng(seed * 31 + 7);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return s;
}

gpu::Device MakeDevice(std::int32_t max_fbo = 2048,
                       std::size_t budget = 64 << 20) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = max_fbo;
  options.memory_budget_bytes = budget;
  options.num_workers = 1;
  return gpu::Device(options);
}

TEST(BoundedRasterJoinTest, TotalCountConservedForPartition) {
  // The polygons partition the extent, so every drawn point is counted in
  // exactly one polygon (up to boundary-pixel ambiguity, which reassigns
  // but never loses or duplicates). Total count == number of points.
  JoinSetup s = MakeSetup(10, 20000, 1);
  gpu::Device device = MakeDevice();
  BoundedRasterJoinOptions options;
  options.epsilon = 5.0;
  auto result = BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                  s.world, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  double total = 0.0;
  for (const double c : result.value().arrays.count) total += c;
  EXPECT_DOUBLE_EQ(total, 20000.0);
}

TEST(BoundedRasterJoinTest, ErrorShrinksWithEpsilon) {
  JoinSetup s = MakeSetup(8, 30000, 2);
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);

  double prev_err = std::numeric_limits<double>::infinity();
  for (const double eps : {80.0, 20.0, 5.0}) {
    gpu::Device device = MakeDevice();
    BoundedRasterJoinOptions options;
    options.epsilon = eps;
    auto result = BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                    s.world, options);
    ASSERT_TRUE(result.ok());
    double err = 0.0;
    for (std::size_t i = 0; i < s.polys.size(); ++i) {
      err += std::fabs(result.value().arrays.count[i] -
                       exact.arrays.count[i]);
    }
    EXPECT_LE(err, prev_err * 1.5)  // non-strict: allow plateau + noise
        << "eps " << eps;
    prev_err = err;
  }
  // At the finest ε tested, the relative L1 error should be small.
  EXPECT_LT(prev_err / 30000.0, 0.02);
}

TEST(BoundedRasterJoinTest, HausdorffBoundHolds) {
  // Property (the ε-Hausdorff bound): every misclassified point lies
  // within ε of its polygon's boundary.
  JoinSetup s = MakeSetup(6, 5000, 3);
  const double eps = 30.0;
  gpu::Device device = MakeDevice();
  BoundedRasterJoinOptions options;
  options.epsilon = eps;
  auto result = BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                  s.world, options);
  ASSERT_TRUE(result.ok());

  // Per-polygon: |approx - exact| can only come from points within ε of
  // the boundary. Verify the aggregate discrepancy is bounded by the
  // number of such points.
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  for (std::size_t pi = 0; pi < s.polys.size(); ++pi) {
    std::size_t near_boundary = 0;
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      if (s.polys[pi].DistanceToBoundary(s.points.At(i)) <= eps) {
        ++near_boundary;
      }
    }
    const double discrepancy = std::fabs(result.value().arrays.count[pi] -
                                         exact.arrays.count[pi]);
    EXPECT_LE(discrepancy, static_cast<double>(near_boundary))
        << "polygon " << pi;
  }
}

TEST(BoundedRasterJoinTest, MultiTileEqualsSingleTile) {
  // Fig. 5 invariant: tiling the canvas must not change the result.
  JoinSetup s = MakeSetup(5, 10000, 4);
  BoundedRasterJoinOptions options;
  options.epsilon = 4.0;  // needs ~354 px per side

  gpu::Device big = MakeDevice(/*max_fbo=*/1024);
  gpu::Device small = MakeDevice(/*max_fbo=*/128);  // forces 3×3 tiles

  BoundedRasterJoinStats stats_big, stats_small;
  auto r_big = BoundedRasterJoin(&big, s.points, s.polys, s.soup, s.world,
                                 options, &stats_big);
  auto r_small = BoundedRasterJoin(&small, s.points, s.polys, s.soup,
                                   s.world, options, &stats_small);
  ASSERT_TRUE(r_big.ok());
  ASSERT_TRUE(r_small.ok());
  EXPECT_EQ(stats_big.num_tiles, 1u);
  EXPECT_GT(stats_small.num_tiles, 1u);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(r_big.value().arrays.count[i],
                     r_small.value().arrays.count[i])
        << "polygon " << i;
  }
}

TEST(BoundedRasterJoinTest, BatchingEqualsSinglePass) {
  // Out-of-core invariant: any batch size yields identical results.
  JoinSetup s = MakeSetup(5, 8000, 5);
  BoundedRasterJoinOptions options;
  options.epsilon = 10.0;

  gpu::Device d1 = MakeDevice();
  auto whole = BoundedRasterJoin(&d1, s.points, s.polys, s.soup, s.world,
                                 options);
  ASSERT_TRUE(whole.ok());

  options.batch_size = 777;  // force many batches
  gpu::Device d2 = MakeDevice();
  BoundedRasterJoinStats stats;
  auto batched = BoundedRasterJoin(&d2, s.points, s.polys, s.soup, s.world,
                                   options, &stats);
  ASSERT_TRUE(batched.ok());
  EXPECT_GT(stats.num_batches, 1u);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(whole.value().arrays.count[i],
                     batched.value().arrays.count[i]);
  }
}

TEST(BoundedRasterJoinTest, TinyDeviceBudgetForcesBatches) {
  JoinSetup s = MakeSetup(4, 5000, 6);
  BoundedRasterJoinOptions options;
  options.epsilon = 10.0;
  // 5000 points × 8 B/pt = 40 kB; budget 16 kB → ≥3 batches.
  gpu::Device device = MakeDevice(2048, /*budget=*/16 << 10);
  BoundedRasterJoinStats stats;
  auto result = BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                  s.world, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(stats.num_batches, 3u);
  double total = 0.0;
  for (const double c : result.value().arrays.count) total += c;
  EXPECT_DOUBLE_EQ(total, 5000.0);
}

TEST(BoundedRasterJoinTest, SumAndAverageAggregates) {
  JoinSetup s = MakeSetup(6, 10000, 7);
  BoundedRasterJoinOptions options;
  options.epsilon = 2.0;
  options.weight_column = 0;
  gpu::Device device = MakeDevice(4096);
  auto result = BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                  s.world, options);
  ASSERT_TRUE(result.ok());

  const JoinResult exact = ReferenceJoin(s.points, s.polys, FilterSet(), 0);
  // Weighted sums approximate the exact sums within the boundary error.
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    if (exact.arrays.sum[i] == 0.0) continue;
    const double rel = std::fabs(result.value().arrays.sum[i] -
                                 exact.arrays.sum[i]) /
                       exact.arrays.sum[i];
    EXPECT_LT(rel, 0.05) << "polygon " << i;
  }
}

TEST(BoundedRasterJoinTest, FiltersApplied) {
  JoinSetup s = MakeSetup(5, 10000, 8);
  BoundedRasterJoinOptions options;
  options.epsilon = 5.0;
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kLess, 50.0f}).ok());
  gpu::Device device = MakeDevice();
  auto result = BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                  s.world, options);
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (const double c : result.value().arrays.count) total += c;
  // Uniform weights 0..99: roughly half pass the filter; totals must match
  // the filtered point count exactly (partition ⇒ conservation).
  std::size_t expected = 0;
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    expected += s.points.attribute(0)[i] < 50.0f;
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(expected));
}

TEST(BoundedRasterJoinTest, InputValidation) {
  JoinSetup s = MakeSetup(3, 100, 9);
  gpu::Device device = MakeDevice();
  BoundedRasterJoinOptions options;

  options.epsilon = -1.0;
  EXPECT_FALSE(BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                 s.world, options)
                   .ok());

  options.epsilon = 5.0;
  options.weight_column = 99;
  EXPECT_FALSE(BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                 s.world, options)
                   .ok());

  options.weight_column = PointTable::npos;
  PolygonSet bad_ids = s.polys;
  bad_ids[0].set_id(77);
  EXPECT_FALSE(BoundedRasterJoin(&device, s.points, bad_ids, s.soup, s.world,
                                 options)
                   .ok());
}

TEST(BoundedRasterJoinTest, EmptyPointsYieldZeros) {
  JoinSetup s = MakeSetup(4, 0, 10);
  gpu::Device device = MakeDevice();
  BoundedRasterJoinOptions options;
  options.epsilon = 5.0;
  auto result = BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                  s.world, options);
  ASSERT_TRUE(result.ok());
  for (const double c : result.value().arrays.count) EXPECT_EQ(c, 0.0);
}

TEST(BoundedRasterJoinTest, ZeroPipTestsExecuted) {
  // The headline property: the bounded variant never runs a PIP test.
  JoinSetup s = MakeSetup(6, 5000, 11);
  ResetPipTestCounter();
  gpu::Device device = MakeDevice();
  BoundedRasterJoinOptions options;
  options.epsilon = 10.0;
  auto result = BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                  s.world, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(GetPipTestCount(), 0u);
}

}  // namespace
}  // namespace rj
