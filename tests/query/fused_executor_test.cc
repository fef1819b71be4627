/// \file fused_executor_test.cc
/// \brief Fused multi-query determinism: ExecuteFused over a compatible
/// group must be bitwise identical, member for member, to running each
/// query alone — across group sizes 1..4, shard counts, and both raster
/// variants, §5 result ranges included.
///
/// Weights are integer-valued floats, the exactly-representable regime the
/// determinism guarantee covers (see merge_partials.h); COUNT/MIN/MAX are
/// exact unconditionally.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "data/sharded_table.h"
#include "gpu/device_pool.h"
#include "join/raster_join_accurate.h"
#include "query/executor.h"

namespace rj {
namespace {

constexpr std::size_t kBudget = 32u << 20;
constexpr std::int32_t kFboDim = 1024;

struct JoinSetup {
  PolygonSet polys;
  PointTable points;
};

JoinSetup MakeSetup(std::size_t num_polys, std::size_t num_points,
                    std::uint64_t seed) {
  JoinSetup s;
  const BBox world(0, 0, 1000, 1000);
  auto polys = TinyRegions(num_polys, world, seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  Rng rng(seed * 131 + 5);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return s;
}

gpu::DeviceOptions DevOptions() {
  gpu::DeviceOptions options;
  options.max_fbo_dim = kFboDim;
  options.memory_budget_bytes = kBudget;
  return options;
}

void ExpectIdenticalResults(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const bool both_nan = std::isnan(a.values[i]) && std::isnan(b.values[i]);
    if (!both_nan) {
      EXPECT_EQ(a.values[i], b.values[i]) << "value slot " << i;
    }
    EXPECT_EQ(a.arrays.count[i], b.arrays.count[i]) << "count slot " << i;
    EXPECT_EQ(a.arrays.sum[i], b.arrays.sum[i]) << "sum slot " << i;
    EXPECT_EQ(a.arrays.min[i], b.arrays.min[i]) << "min slot " << i;
    EXPECT_EQ(a.arrays.max[i], b.arrays.max[i]) << "max slot " << i;
  }
  ASSERT_EQ(a.ranges.loose.size(), b.ranges.loose.size());
  for (std::size_t i = 0; i < a.ranges.loose.size(); ++i) {
    EXPECT_EQ(a.ranges.loose[i].lower, b.ranges.loose[i].lower);
    EXPECT_EQ(a.ranges.loose[i].upper, b.ranges.loose[i].upper);
    EXPECT_EQ(a.ranges.expected[i].lower, b.ranges.expected[i].lower);
    EXPECT_EQ(a.ranges.expected[i].upper, b.ranges.expected[i].upper);
  }
}

AttributeFilter F(std::size_t column, FilterOp op, float value) {
  AttributeFilter f;
  f.column = column;
  f.op = op;
  f.value = value;
  return f;
}

/// A 4-member bounded group sharing ε=8: members diverge only in the
/// per-query axes fusion supports — aggregate, filter, and §5 ranges.
/// ε=8 → canvas 125×125, single tile, so the ranges member exercises the
/// §5 path inside a fused scan.
std::vector<SpatialAggQuery> BoundedGroup() {
  std::vector<SpatialAggQuery> group;

  SpatialAggQuery count;
  count.variant = JoinVariant::kBoundedRaster;
  count.epsilon = 8.0;
  group.push_back(count);

  SpatialAggQuery sum;
  sum.variant = JoinVariant::kBoundedRaster;
  sum.epsilon = 8.0;
  sum.aggregate = AggregateKind::kSum;
  sum.aggregate_column = 0;
  group.push_back(sum);

  SpatialAggQuery filtered_avg;
  filtered_avg.variant = JoinVariant::kBoundedRaster;
  filtered_avg.epsilon = 8.0;
  filtered_avg.aggregate = AggregateKind::kAverage;
  filtered_avg.aggregate_column = 0;
  EXPECT_TRUE(
      filtered_avg.filters.Add(F(0, FilterOp::kGreater, 30.0f)).ok());
  group.push_back(filtered_avg);

  SpatialAggQuery count_ranges;
  count_ranges.variant = JoinVariant::kBoundedRaster;
  count_ranges.epsilon = 8.0;
  count_ranges.with_result_ranges = true;
  group.push_back(count_ranges);

  return group;
}

/// A 4-member accurate group sharing canvas_dim=512.
std::vector<SpatialAggQuery> AccurateGroup() {
  std::vector<SpatialAggQuery> group;

  SpatialAggQuery count;
  count.variant = JoinVariant::kAccurateRaster;
  count.accurate_canvas_dim = 512;
  group.push_back(count);

  SpatialAggQuery sum;
  sum.variant = JoinVariant::kAccurateRaster;
  sum.accurate_canvas_dim = 512;
  sum.aggregate = AggregateKind::kSum;
  sum.aggregate_column = 0;
  group.push_back(sum);

  SpatialAggQuery filtered_min;
  filtered_min.variant = JoinVariant::kAccurateRaster;
  filtered_min.accurate_canvas_dim = 512;
  filtered_min.aggregate = AggregateKind::kMin;
  filtered_min.aggregate_column = 0;
  EXPECT_TRUE(filtered_min.filters.Add(F(0, FilterOp::kLess, 70.0f)).ok());
  group.push_back(filtered_min);

  SpatialAggQuery max;
  max.variant = JoinVariant::kAccurateRaster;
  max.accurate_canvas_dim = 512;
  max.aggregate = AggregateKind::kMax;
  max.aggregate_column = 0;
  group.push_back(max);

  return group;
}

/// Unfused ground truth: every member run alone on a single device, the
/// configuration every other sweep must reproduce bitwise.
std::vector<QueryResult> Baseline(const JoinSetup& s,
                                  const std::vector<SpatialAggQuery>& group) {
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  std::vector<QueryResult> results;
  for (const SpatialAggQuery& q : group) {
    auto r = executor.ExecuteUncached(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).MoveValueUnsafe());
  }
  return results;
}

void ExpectFusedMatchesBaseline(Executor& executor,
                                const std::vector<SpatialAggQuery>& group,
                                const std::vector<QueryResult>& expected) {
  // Every prefix 1..group.size() is its own fusion group: size 1 pins the
  // degenerate path, larger sizes grow the member set one axis at a time.
  for (std::size_t n = 1; n <= group.size(); ++n) {
    const std::vector<SpatialAggQuery> prefix(group.begin(),
                                              group.begin() + n);
    auto fused = executor.ExecuteFused(prefix);
    ASSERT_TRUE(fused.ok()) << "group size " << n << ": "
                            << fused.status().ToString();
    ASSERT_EQ(fused.value().size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("group size " + std::to_string(n) + " member " +
                   std::to_string(i));
      ExpectIdenticalResults(expected[i], fused.value()[i]);
    }
  }
}

TEST(FusedDeterminismTest, BoundedGroupMatchesUnfusedBaseline) {
  const JoinSetup s = MakeSetup(8, 12000, 31);
  const std::vector<SpatialAggQuery> group = BoundedGroup();
  const std::vector<QueryResult> expected = Baseline(s, group);

  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  ExpectFusedMatchesBaseline(executor, group, expected);
}

TEST(FusedDeterminismTest, AccurateGroupMatchesUnfusedBaseline) {
  const JoinSetup s = MakeSetup(8, 12000, 32);
  const std::vector<SpatialAggQuery> group = AccurateGroup();
  const std::vector<QueryResult> expected = Baseline(s, group);

  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  ExpectFusedMatchesBaseline(executor, group, expected);
}

TEST(FusedDeterminismTest, ShardedFusionMatchesUnfusedBaseline) {
  const JoinSetup s = MakeSetup(6, 9000, 33);
  const std::vector<SpatialAggQuery> bounded = BoundedGroup();
  const std::vector<SpatialAggQuery> accurate = AccurateGroup();
  const std::vector<QueryResult> expected_bounded = Baseline(s, bounded);
  const std::vector<QueryResult> expected_accurate = Baseline(s, accurate);

  for (const std::size_t shards : {1, 2}) {
    data::ShardingOptions sharding;
    sharding.num_shards = shards;
    auto table = data::ShardedTable::Partition(s.points, sharding);
    ASSERT_TRUE(table.ok());

    gpu::DevicePoolOptions pool_options;
    pool_options.num_devices = shards;
    pool_options.device = DevOptions();
    gpu::DevicePool pool(pool_options);
    Executor executor(&pool, &table.value(), &s.polys);

    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExpectFusedMatchesBaseline(executor, bounded, expected_bounded);
    ExpectFusedMatchesBaseline(executor, accurate, expected_accurate);
  }
}

/// Every member of a fused accurate group reads the executor's one shared
/// canvas: each equals a direct AccurateRasterJoin of that member — which
/// prepares its own canvas — for groups of 1–4 members over 1, 2 and 4
/// shards, with canvas_dim 0 and an explicit max_fbo_dim.
TEST(FusedExecutorTest, AccurateGroupsOnTheSharedCanvasMatchPerCallJoins) {
  const JoinSetup s = MakeSetup(6, 9000, 40);
  auto soup = TriangulatePolygonSet(s.polys);
  ASSERT_TRUE(soup.ok());
  gpu::Device reference_device(DevOptions());
  const BBox world =
      Executor(&reference_device, &s.points, &s.polys).world();

  for (const std::int32_t dim : {0, kFboDim}) {
    std::vector<SpatialAggQuery> group = AccurateGroup();
    std::vector<QueryResult> expected;
    for (SpatialAggQuery& q : group) {
      q.accurate_canvas_dim = dim;
      AccurateRasterJoinOptions options;
      options.canvas_dim = dim;
      options.weight_column = q.EffectiveAggregateColumn();
      options.filters = q.filters;
      auto join = AccurateRasterJoin(&reference_device, s.points, s.polys,
                                     soup.value(), world, options);
      ASSERT_TRUE(join.ok()) << join.status().ToString();
      QueryResult r;
      r.arrays = join.value().arrays;
      r.values = FinalizeAggregate(q.aggregate, r.arrays);
      expected.push_back(std::move(r));
    }

    for (const std::size_t shards : {1, 2, 4}) {
      data::ShardingOptions sharding;
      sharding.num_shards = shards;
      auto table = data::ShardedTable::Partition(s.points, sharding);
      ASSERT_TRUE(table.ok());
      gpu::DevicePoolOptions pool_options;
      pool_options.num_devices = shards;
      pool_options.device = DevOptions();
      gpu::DevicePool pool(pool_options);
      Executor executor(&pool, &table.value(), &s.polys);

      SCOPED_TRACE("dim=" + std::to_string(dim) +
                   " shards=" + std::to_string(shards));
      ExpectFusedMatchesBaseline(executor, group, expected);
    }
  }
}

TEST(FusedExecutorTest, GrantCappedFusionStaysIdentical) {
  // A tiny shared grant forces multi-batch out-of-core fused scans;
  // per-member accumulation must be insensitive to batch boundaries.
  const JoinSetup s = MakeSetup(5, 9000, 34);
  std::vector<SpatialAggQuery> group = BoundedGroup();
  const std::vector<QueryResult> expected = Baseline(s, group);

  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  for (SpatialAggQuery& q : group) {
    q.device_memory_cap_bytes = 64 << 10;  // ~5k points per batch pair
  }
  ExpectFusedMatchesBaseline(executor, group, expected);
}

TEST(FusedExecutorTest, EmptyGroupIsRejected) {
  const JoinSetup s = MakeSetup(3, 200, 35);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  EXPECT_FALSE(executor.ExecuteFused({}).ok());
}

TEST(FusedExecutorTest, MixedEpsilonGroupIsRejected) {
  // Different ε ⇒ different canvases ⇒ no shared scan. The group must be
  // rejected outright, never silently executed on one member's canvas.
  const JoinSetup s = MakeSetup(3, 200, 36);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);

  std::vector<SpatialAggQuery> group = BoundedGroup();
  group[1].epsilon = 12.0;
  auto r = executor.ExecuteFused(group);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FusedExecutorTest, MixedVariantGroupIsRejected) {
  const JoinSetup s = MakeSetup(3, 200, 37);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);

  std::vector<SpatialAggQuery> group = BoundedGroup();
  group.push_back(AccurateGroup()[0]);
  EXPECT_FALSE(executor.ExecuteFused(group).ok());
}

TEST(FusedExecutorTest, IndexVariantGroupIsRejected) {
  // Fusion shares a raster scan; the index baselines have no raster to
  // share and must fall back to solo execution at the service layer.
  const JoinSetup s = MakeSetup(3, 200, 38);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);

  SpatialAggQuery a;
  a.variant = JoinVariant::kIndexDevice;
  SpatialAggQuery b = a;
  b.aggregate = AggregateKind::kSum;
  b.aggregate_column = 0;
  EXPECT_FALSE(executor.ExecuteFused({a, b}).ok());
}

TEST(FusedExecutorTest, FusedAdmissionCoversTheUnionOfColumns) {
  // The fused upload carries the union of member weight columns, so the
  // fused plan's stride must be ≥ any member's solo stride.
  const JoinSetup s = MakeSetup(4, 3000, 39);
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);

  const std::vector<SpatialAggQuery> group = BoundedGroup();
  auto fused_plan = executor.PlanFusedAdmission(group);
  ASSERT_TRUE(fused_plan.ok()) << fused_plan.status().ToString();
  for (const SpatialAggQuery& q : group) {
    auto solo = executor.PlanAdmission(q);
    ASSERT_TRUE(solo.ok());
    EXPECT_GE(fused_plan.value().bytes_per_point,
              solo.value().bytes_per_point);
    EXPECT_GE(fused_plan.value().full_bytes, solo.value().min_bytes);
  }
}

}  // namespace
}  // namespace rj
