#include "join/raster_join_accurate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data/datasets.h"
#include "data/taxi_generator.h"
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

  Rng rng(seed * 17 + 3);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(1000)) / 10.0f});
  }
  return s;
}

gpu::Device MakeDevice(std::size_t budget = 64 << 20) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = 512;
  options.memory_budget_bytes = budget;
  options.num_workers = 1;
  return gpu::Device(options);
}

TEST(AccurateRasterJoinTest, ExactlyMatchesReferenceCount) {
  // Invariant: accurate == brute-force reference, exactly.
  JoinSetup s = MakeSetup(8, 10000, 21);
  gpu::Device device = MakeDevice();
  AccurateRasterJoinOptions options;
  auto result = AccurateRasterJoin(&device, s.points, s.polys, s.soup,
                                   s.world, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i])
        << "polygon " << i;
  }
}

TEST(AccurateRasterJoinTest, ExactlyMatchesReferenceSumMinMax) {
  JoinSetup s = MakeSetup(6, 8000, 22);
  gpu::Device device = MakeDevice();
  AccurateRasterJoinOptions options;
  options.weight_column = 0;
  auto result = AccurateRasterJoin(&device, s.points, s.polys, s.soup,
                                   s.world, options);
  ASSERT_TRUE(result.ok());

  const JoinResult exact = ReferenceJoin(s.points, s.polys, FilterSet(), 0);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    // float accumulation in the FBO: sums match within float rounding.
    EXPECT_NEAR(result.value().arrays.sum[i], exact.arrays.sum[i],
                std::max(1.0, exact.arrays.sum[i]) * 1e-4);
    if (exact.arrays.count[i] > 0) {
      EXPECT_DOUBLE_EQ(result.value().arrays.min[i], exact.arrays.min[i]);
      EXPECT_DOUBLE_EQ(result.value().arrays.max[i], exact.arrays.max[i]);
    }
  }
}

TEST(AccurateRasterJoinTest, ExactUnderFilters) {
  JoinSetup s = MakeSetup(6, 8000, 23);
  gpu::Device device = MakeDevice();
  AccurateRasterJoinOptions options;
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kGreater, 40.0f}).ok());
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kLessEqual, 90.0f}).ok());
  auto result = AccurateRasterJoin(&device, s.points, s.polys, s.soup,
                                   s.world, options);
  ASSERT_TRUE(result.ok());

  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, options.filters, PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
  }
}

TEST(AccurateRasterJoinTest, FarFewerPipTestsThanPoints) {
  // The whole point of §4.3: only boundary-pixel points take PIP tests.
  JoinSetup s = MakeSetup(8, 20000, 24);
  gpu::Device device = MakeDevice();
  AccurateRasterJoinOptions options;
  AccurateRasterJoinStats stats;
  auto result = AccurateRasterJoin(&device, s.points, s.polys, s.soup,
                                   s.world, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.interior_points, 0u);
  EXPECT_LT(stats.boundary_points, s.points.size() / 2);
  EXPECT_EQ(stats.boundary_points + stats.interior_points, s.points.size());
}

TEST(AccurateRasterJoinTest, BatchingPreservesExactness) {
  JoinSetup s = MakeSetup(5, 6000, 25);
  AccurateRasterJoinOptions options;
  options.batch_size = 499;
  gpu::Device device = MakeDevice();
  AccurateRasterJoinStats stats;
  auto result = AccurateRasterJoin(&device, s.points, s.polys, s.soup,
                                   s.world, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.num_batches, 10u);

  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
  }
}

TEST(AccurateRasterJoinTest, OverlappingPolygonsBothCounted) {
  // The white-point case of Fig. 7: a point inside P1 but on the boundary
  // pixel of P2 must count for both correctly.
  JoinSetup s;
  s.world = BBox(0, 0, 100, 100);
  s.polys.emplace_back(Ring{{10, 10}, {70, 10}, {70, 70}, {10, 70}});
  s.polys.emplace_back(Ring{{40, 40}, {90, 40}, {90, 90}, {40, 90}});
  s.polys[0].set_id(0);
  s.polys[1].set_id(1);
  for (auto& p : s.polys) ASSERT_TRUE(p.Normalize().ok());
  auto soup = TriangulatePolygonSet(s.polys);
  ASSERT_TRUE(soup.ok());
  s.soup = soup.value();

  Rng rng(333);
  for (int i = 0; i < 20000; ++i) {
    s.points.Append(rng.Uniform(0, 100), rng.Uniform(0, 100));
  }

  gpu::Device device = MakeDevice();
  AccurateRasterJoinOptions options;
  auto result = AccurateRasterJoin(&device, s.points, s.polys, s.soup,
                                   s.world, options);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  EXPECT_DOUBLE_EQ(result.value().arrays.count[0], exact.arrays.count[0]);
  EXPECT_DOUBLE_EQ(result.value().arrays.count[1], exact.arrays.count[1]);
}

TEST(AccurateRasterJoinTest, SkewedDataExact) {
  // Taxi-like hot-spot skew (many points in few pixels).
  JoinSetup s;
  s.points = GenerateTaxiPoints(15000);
  s.world = NycExtentMeters();
  auto polys = TinyRegions(12, s.world, 26);
  ASSERT_TRUE(polys.ok());
  s.polys = polys.value();
  auto soup = TriangulatePolygonSet(s.polys);
  ASSERT_TRUE(soup.ok());
  s.soup = soup.value();

  gpu::Device device = MakeDevice();
  AccurateRasterJoinOptions options;
  auto result = AccurateRasterJoin(&device, s.points, s.polys, s.soup,
                                   s.world, options);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
  }
}

TEST(AccurateRasterJoinTest, PointsExactlyOnPolygonEdges) {
  // Boundary semantics: points exactly on shared edges count for both
  // neighbors (Contains() treats boundary as inside) — in the reference
  // AND in the accurate join.
  JoinSetup s;
  s.world = BBox(0, 0, 10, 10);
  s.polys.emplace_back(Ring{{0, 0}, {5, 0}, {5, 10}, {0, 10}});
  s.polys.emplace_back(Ring{{5, 0}, {10, 0}, {10, 10}, {5, 10}});
  s.polys[0].set_id(0);
  s.polys[1].set_id(1);
  for (auto& p : s.polys) ASSERT_TRUE(p.Normalize().ok());
  auto soup = TriangulatePolygonSet(s.polys);
  ASSERT_TRUE(soup.ok());
  s.soup = soup.value();

  for (int i = 1; i < 10; ++i) {
    s.points.Append(5.0, static_cast<double>(i));  // on the shared edge
  }
  s.points.Append(2.5, 5.0);  // interior of P0

  gpu::Device device = MakeDevice();
  AccurateRasterJoinOptions options;
  auto result = AccurateRasterJoin(&device, s.points, s.polys, s.soup,
                                   s.world, options);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  EXPECT_DOUBLE_EQ(result.value().arrays.count[0], exact.arrays.count[0]);
  EXPECT_DOUBLE_EQ(result.value().arrays.count[1], exact.arrays.count[1]);
  EXPECT_DOUBLE_EQ(exact.arrays.count[0], 10.0);  // 9 edge + 1 interior
  EXPECT_DOUBLE_EQ(exact.arrays.count[1], 9.0);   // 9 edge points
}

}  // namespace
}  // namespace rj
