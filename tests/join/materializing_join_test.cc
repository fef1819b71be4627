#include "join/materializing_join.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data/datasets.h"

namespace rj {
namespace {

struct JoinSetup {
  PolygonSet polys;
  PointTable points;
};

JoinSetup MakeSetup(std::size_t num_polys, std::size_t num_points,
                std::uint64_t seed) {
  JoinSetup s;
  auto polys = TinyRegions(num_polys, BBox(0, 0, 500, 500), seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  Rng rng(seed + 9);
  for (std::size_t i = 0; i < num_points; ++i) {
    s.points.Append(rng.Uniform(0, 500), rng.Uniform(0, 500));
  }
  return s;
}

gpu::Device BigDevice() {
  gpu::DeviceOptions options;
  options.memory_budget_bytes = 256 << 20;
  return gpu::Device(options);
}

TEST(MaterializingJoinTest, WithoutTruncationMatchesReference) {
  JoinSetup s = MakeSetup(8, 6000, 61);
  gpu::Device device = BigDevice();
  MaterializingJoinOptions options;
  options.truncate_coordinates = false;
  auto result = MaterializingJoin(&device, s.points, s.polys, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
  }
}

TEST(MaterializingJoinTest, TruncationIntroducesSmallError) {
  JoinSetup s = MakeSetup(8, 10000, 62);
  gpu::Device device = BigDevice();
  MaterializingJoinOptions options;
  options.truncate_coordinates = true;
  auto result = MaterializingJoin(&device, s.points, s.polys, options);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  double l1 = 0.0, total = 0.0;
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    l1 += std::fabs(result.value().arrays.count[i] - exact.arrays.count[i]);
    total += exact.arrays.count[i];
  }
  // 16-bit quantization error is tiny but may be nonzero.
  EXPECT_LT(l1 / total, 0.01);
}

TEST(MaterializingJoinTest, MaterializationMetered) {
  JoinSetup s = MakeSetup(6, 5000, 63);
  gpu::Device device = BigDevice();
  MaterializingJoinOptions options;
  MaterializingJoinStats stats;
  auto result = MaterializingJoin(&device, s.points, s.polys, options, &stats);
  ASSERT_TRUE(result.ok());
  // Polygons partition the extent: ~every point matches exactly one.
  EXPECT_GT(stats.pairs_materialized, 4000u);
  EXPECT_EQ(stats.bytes_materialized,
            stats.pairs_materialized * 16u);  // sizeof(MaterializedPair)
  EXPECT_GE(device.counters().bytes_transferred(),
            stats.bytes_materialized);
}

TEST(MaterializingJoinTest, FailsWhenPairsExceedDeviceMemory) {
  // Insight 1 of the paper: materialization needs join-sized memory.
  JoinSetup s = MakeSetup(6, 20000, 64);
  gpu::DeviceOptions small;
  small.memory_budget_bytes = 1 << 10;  // 1 kB: cannot hold the pairs
  gpu::Device device(small);
  MaterializingJoinOptions options;
  auto result = MaterializingJoin(&device, s.points, s.polys, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCapacityError);
}

TEST(MaterializingJoinTest, FiltersApplied) {
  JoinSetup s = MakeSetup(5, 4000, 65);
  // Add an attribute to filter on.
  PointTable pts;
  pts.AddAttribute("v");
  Rng rng(65);
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    pts.Append(s.points.xs()[i], s.points.ys()[i],
               {static_cast<float>(rng.UniformInt(10))});
  }
  gpu::Device device = BigDevice();
  MaterializingJoinOptions options;
  options.truncate_coordinates = false;
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kLess, 5.0f}).ok());
  auto result = MaterializingJoin(&device, pts, s.polys, options);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(pts, s.polys, options.filters, PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
  }
}

}  // namespace
}  // namespace rj
