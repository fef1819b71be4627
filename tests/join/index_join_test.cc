#include "join/index_join.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/datasets.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

struct JoinSetup {
  PolygonSet polys;
  PointTable points;
  BBox world;
};

JoinSetup MakeSetup(std::size_t num_polys, std::size_t num_points,
                std::uint64_t seed) {
  JoinSetup s;
  s.world = BBox(0, 0, 500, 500);
  auto polys = TinyRegions(num_polys, s.world, seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  Rng rng(seed + 100);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    s.points.Append(rng.Uniform(0, 500), rng.Uniform(0, 500),
                    {static_cast<float>(rng.UniformInt(50))});
  }
  return s;
}

TEST(IndexJoinDeviceTest, MatchesReference) {
  JoinSetup s = MakeSetup(10, 8000, 41);
  gpu::Device device;
  IndexJoinOptions options;
  auto result = IndexJoinDevice(&device, s.points, s.polys, s.world, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
  }
}

TEST(IndexJoinCpuTest, SingleThreadMatchesReference) {
  JoinSetup s = MakeSetup(8, 6000, 42);
  auto index = GridIndex::Build(s.polys, s.world, 64,
                                GridAssignMode::kExactGeometry);
  ASSERT_TRUE(index.ok());
  IndexJoinOptions options;
  auto result = IndexJoinCpu(s.points, s.polys, index.value(), options, 1);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
  }
}

TEST(IndexJoinCpuTest, MultiThreadMatchesSingleThread) {
  JoinSetup s = MakeSetup(8, 6000, 43);
  auto index = GridIndex::Build(s.polys, s.world, 64,
                                GridAssignMode::kExactGeometry);
  ASSERT_TRUE(index.ok());
  IndexJoinOptions options;
  options.weight_column = 0;
  auto one = IndexJoinCpu(s.points, s.polys, index.value(), options, 1);
  auto four = IndexJoinCpu(s.points, s.polys, index.value(), options, 4);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(one.value().arrays.count[i],
                     four.value().arrays.count[i]);
    EXPECT_DOUBLE_EQ(one.value().arrays.sum[i], four.value().arrays.sum[i]);
    EXPECT_DOUBLE_EQ(one.value().arrays.min[i], four.value().arrays.min[i]);
    EXPECT_DOUBLE_EQ(one.value().arrays.max[i], four.value().arrays.max[i]);
  }
}

TEST(IndexJoinCpuTest, FiltersRespected) {
  JoinSetup s = MakeSetup(6, 5000, 44);
  auto index = GridIndex::Build(s.polys, s.world, 64,
                                GridAssignMode::kExactGeometry);
  ASSERT_TRUE(index.ok());
  IndexJoinOptions options;
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kEqual, 7.0f}).ok());
  auto result = IndexJoinCpu(s.points, s.polys, index.value(), options, 1);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, options.filters, PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
  }
}

TEST(IndexJoinCpuTest, RejectsBadThreadCount) {
  JoinSetup s = MakeSetup(4, 100, 45);
  auto index =
      GridIndex::Build(s.polys, s.world, 16, GridAssignMode::kExactGeometry);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(
      IndexJoinCpu(s.points, s.polys, index.value(), IndexJoinOptions(), 0)
          .ok());
}

TEST(IndexJoinDeviceTest, MbrIndexStillExact) {
  // MBR cell assignment only affects candidate counts, not correctness.
  JoinSetup s = MakeSetup(8, 5000, 46);
  gpu::Device device;
  IndexJoinOptions options;
  options.assign_mode = GridAssignMode::kMbr;
  options.index_resolution = 32;
  auto result = IndexJoinDevice(&device, s.points, s.polys, s.world, options);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(s.points, s.polys, FilterSet(), PointTable::npos);
  for (std::size_t i = 0; i < s.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().arrays.count[i], exact.arrays.count[i]);
  }
}

TEST(IndexJoinDeviceTest, PipCounterMetered) {
  JoinSetup s = MakeSetup(6, 2000, 47);
  gpu::Device device;
  IndexJoinOptions options;
  auto result = IndexJoinDevice(&device, s.points, s.polys, s.world, options);
  ASSERT_TRUE(result.ok());
  // Every point probes the index; PIP tests ≥ points with ≥1 candidate.
  EXPECT_GT(device.counters().pip_tests(), 0u);
}

TEST(IndexJoinDeviceTest, PipMeteringExactAcrossBatchSizes) {
  // Batching splits the scan, never the metering: every batch size meters
  // exactly the PIP tests of one whole-table pass.
  JoinSetup s = MakeSetup(6, 37, 48);
  IndexJoinOptions base;

  gpu::Device whole;
  ASSERT_TRUE(IndexJoinDevice(&whole, s.points, s.polys, s.world, base).ok());
  const std::uint64_t expected_pips = whole.counters().pip_tests();
  ASSERT_GT(expected_pips, 0u);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
    gpu::Device batched;
    IndexJoinOptions options = base;
    options.batch_size = batch;
    ASSERT_TRUE(
        IndexJoinDevice(&batched, s.points, s.polys, s.world, options).ok());
    EXPECT_EQ(batched.counters().pip_tests(), expected_pips)
        << "batch=" << batch;
  }
}

}  // namespace
}  // namespace rj
