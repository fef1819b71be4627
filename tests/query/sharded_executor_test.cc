/// \file sharded_executor_test.cc
/// \brief Sharded scatter-gather determinism: for every join variant, 1..4
/// shards × 1..8 workers must be bitwise identical to the single-device
/// baseline — aggregates and §5 result ranges alike.
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
#include "query/executor.h"
#include "query/result_cache.h"

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

gpu::DeviceOptions DevOptions(std::size_t num_workers) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = kFboDim;
  options.memory_budget_bytes = kBudget;
  options.num_workers = num_workers;
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

/// The cross-variant workload the determinism suite sweeps.
std::vector<SpatialAggQuery> Workload() {
  std::vector<SpatialAggQuery> queries;

  SpatialAggQuery bounded;
  bounded.variant = JoinVariant::kBoundedRaster;
  bounded.epsilon = 6.0;
  bounded.aggregate = AggregateKind::kSum;
  bounded.aggregate_column = 0;
  queries.push_back(bounded);

  SpatialAggQuery bounded_ranges;
  bounded_ranges.variant = JoinVariant::kBoundedRaster;
  bounded_ranges.epsilon = 10.0;
  bounded_ranges.with_result_ranges = true;
  queries.push_back(bounded_ranges);

  SpatialAggQuery accurate;
  accurate.variant = JoinVariant::kAccurateRaster;
  accurate.accurate_canvas_dim = 512;
  accurate.aggregate = AggregateKind::kAverage;
  accurate.aggregate_column = 0;
  queries.push_back(accurate);

  SpatialAggQuery index_device;
  index_device.variant = JoinVariant::kIndexDevice;
  index_device.aggregate = AggregateKind::kMin;
  index_device.aggregate_column = 0;
  queries.push_back(index_device);

  SpatialAggQuery index_cpu;
  index_cpu.variant = JoinVariant::kIndexCpu;
  index_cpu.aggregate = AggregateKind::kMax;
  index_cpu.aggregate_column = 0;
  queries.push_back(index_cpu);

  return queries;
}

/// Single-device ground truth for every workload query.
std::vector<QueryResult> Baseline(const JoinSetup& s) {
  gpu::Device device(DevOptions(1));
  Executor executor(&device, &s.points, &s.polys);
  std::vector<QueryResult> results;
  for (const SpatialAggQuery& q : Workload()) {
    auto r = executor.Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).MoveValueUnsafe());
  }
  return results;
}

class ShardedDeterminismTest
    : public ::testing::TestWithParam<data::ShardPolicy> {};

TEST_P(ShardedDeterminismTest, AllShardAndWorkerCountsMatchBaseline) {
  const JoinSetup s = MakeSetup(8, 12000, 21);
  const std::vector<QueryResult> expected = Baseline(s);
  const std::vector<SpatialAggQuery> workload = Workload();

  for (const std::size_t shards : {1, 2, 3, 4}) {
    data::ShardingOptions sharding;
    sharding.num_shards = shards;
    sharding.policy = GetParam();
    auto table = data::ShardedTable::Partition(s.points, sharding);
    ASSERT_TRUE(table.ok());

    for (const std::size_t workers : {1, 2, 8}) {
      gpu::DevicePoolOptions pool_options;
      pool_options.num_devices = shards;
      pool_options.device = DevOptions(workers);
      gpu::DevicePool pool(pool_options);
      Executor executor(&pool, &table.value(), &s.polys);

      for (std::size_t q = 0; q < workload.size(); ++q) {
        auto r = executor.Execute(workload[q]);
        ASSERT_TRUE(r.ok())
            << "shards=" << shards << " workers=" << workers << " query=" << q
            << ": " << r.status().ToString();
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " workers=" + std::to_string(workers) +
                     " query=" + std::to_string(q));
        ExpectIdenticalResults(expected[q], r.value());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ShardedDeterminismTest,
                         ::testing::Values(data::ShardPolicy::kRoundRobin,
                                           data::ShardPolicy::kHilbert),
                         [](const auto& info) {
                           return info.param == data::ShardPolicy::kRoundRobin
                                      ? "RoundRobin"
                                      : "Hilbert";
                         });

TEST(ShardedExecutorTest, MoreShardsThanDevicesWrapAroundAndStayIdentical) {
  // 4 shards on a 2-device pool: devices host two shards each, running
  // concurrently on one device — the merge order is still shard order.
  const JoinSetup s = MakeSetup(6, 8000, 22);
  const std::vector<QueryResult> expected = Baseline(s);

  data::ShardingOptions sharding;
  sharding.num_shards = 4;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 2;
  pool_options.device = DevOptions(2);
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);
  EXPECT_EQ(executor.ShardsPerDevice(), (std::vector<std::size_t>{2, 2}));

  const std::vector<SpatialAggQuery> workload = Workload();
  for (std::size_t q = 0; q < workload.size(); ++q) {
    auto r = executor.Execute(workload[q]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    SCOPED_TRACE("query=" + std::to_string(q));
    ExpectIdenticalResults(expected[q], r.value());
  }
}

TEST(ShardedExecutorTest, GrantCappedBatchingStaysIdentical) {
  // Tiny per-shard grant forces multi-batch out-of-core execution on
  // every shard; results must not move.
  const JoinSetup s = MakeSetup(5, 9000, 23);
  const std::vector<QueryResult> expected = Baseline(s);

  data::ShardingOptions sharding;
  sharding.num_shards = 3;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 3;
  pool_options.device = DevOptions(2);
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  const std::vector<SpatialAggQuery> workload = Workload();
  for (std::size_t q = 0; q < workload.size(); ++q) {
    SpatialAggQuery query = workload[q];
    query.device_memory_cap_bytes = 64 << 10;  // ~5k points per batch pair
    auto r = executor.Execute(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    SCOPED_TRACE("query=" + std::to_string(q));
    ExpectIdenticalResults(expected[q], r.value());
  }
}

TEST(ShardedExecutorTest, MixedFboLimitsAreRejected) {
  const JoinSetup s = MakeSetup(4, 500, 24);
  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DeviceOptions a = DevOptions(1);
  gpu::DeviceOptions b = DevOptions(1);
  b.max_fbo_dim = 2048;
  gpu::DevicePool pool(std::vector<gpu::DeviceOptions>{a, b});
  Executor executor(&pool, &table.value(), &s.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  EXPECT_FALSE(executor.Execute(query).ok());
}

TEST(ShardedExecutorTest, ShardedWorldMatchesSingleDeviceWorld) {
  const JoinSetup s = MakeSetup(4, 2000, 25);
  gpu::Device device(DevOptions(1));
  Executor single(&device, &s.points, &s.polys);

  data::ShardingOptions sharding;
  sharding.num_shards = 3;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 3;
  pool_options.device = DevOptions(1);
  gpu::DevicePool pool(pool_options);
  Executor sharded(&pool, &table.value(), &s.polys);

  // Identical canvases are the precondition for bitwise-equal rasters.
  EXPECT_EQ(single.world().min_x, sharded.world().min_x);
  EXPECT_EQ(single.world().max_x, sharded.world().max_x);
  EXPECT_EQ(single.world().min_y, sharded.world().min_y);
  EXPECT_EQ(single.world().max_y, sharded.world().max_y);
}

TEST(ShardedExecutorTest, AttributesPoolCountersToTheQuery) {
  const JoinSetup s = MakeSetup(4, 4000, 27);
  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 2;
  pool_options.device = DevOptions(1);
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 10.0;
  auto r = executor.Execute(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // No query overlapped, so the attributed delta is exactly the pool's
  // work: every shard transferred its points and drew one render pass.
  EXPECT_EQ(r.value().counters.bytes_transferred,
            pool.TotalCounters().bytes_transferred);
  EXPECT_GE(r.value().counters.render_passes, 2u);
  EXPECT_GE(r.value().counters.batches, 2u);
}

/// Quarter-extent selectivity: polygons covering one corner of the data
/// extent must let routing skip at least half of the Hilbert-cut shards —
/// while aggregates and §5 ranges stay bitwise identical to unrouted
/// execution AND to the single-device baseline, for every shard count ×
/// cut mode × replication configuration the placement layer distinguishes.
TEST(ShardedRoutingTest, QuarterExtentQueriesSkipHalfTheShardsBitwise) {
  const BBox world(0, 0, 1000, 1000);
  const BBox corner(0, 0, 250, 250);
  auto polys = TinyRegions(6, corner, 31);
  ASSERT_TRUE(polys.ok());
  JoinSetup s;
  s.polys = polys.value();
  Rng rng(777);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < 10000; ++i) {
    s.points.Append(rng.Uniform(world.min_x, world.max_x),
                    rng.Uniform(world.min_y, world.max_y),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  const std::vector<QueryResult> expected = Baseline(s);
  const std::vector<SpatialAggQuery> workload = Workload();

  for (const std::size_t shards : {2, 3, 4}) {
    for (const data::HilbertCutMode cut_mode :
         {data::HilbertCutMode::kQuantile,
          data::HilbertCutMode::kEqualRange}) {
      data::ShardingOptions sharding;
      sharding.num_shards = shards;
      sharding.policy = data::ShardPolicy::kHilbert;
      sharding.cut_mode = cut_mode;
      auto table = data::ShardedTable::Partition(s.points, sharding);
      ASSERT_TRUE(table.ok());

      for (const bool replicate : {false, true}) {
        gpu::DevicePoolOptions pool_options;
        pool_options.num_devices = shards;
        pool_options.device = DevOptions(1);
        gpu::DevicePool pool(pool_options);
        Executor executor(&pool, &table.value(), &s.polys);
        if (replicate) {
          // Every shard readable from every device: the adversarial
          // placement input (maximal routing freedom).
          std::vector<std::vector<std::size_t>> replicas(shards);
          for (std::size_t r = 0; r < shards; ++r) {
            for (std::size_t d = 0; d < shards; ++d) replicas[r].push_back(d);
          }
          executor.SetShardReplicas(std::move(replicas));
        }

        for (std::size_t q = 0; q < workload.size(); ++q) {
          SCOPED_TRACE("shards=" + std::to_string(shards) +
                       " cut=" + data::HilbertCutModeName(cut_mode) +
                       " replicate=" + std::to_string(replicate) +
                       " query=" + std::to_string(q));
          auto routed = executor.Execute(workload[q]);
          ASSERT_TRUE(routed.ok()) << routed.status().ToString();
          // The corner polygons fit one quadrant of the Hilbert order, so
          // at least half the shards are provably disjoint from the query
          // region and must be skipped.
          EXPECT_GE(routed.value().counters.shards_skipped * 2, shards);
          EXPECT_EQ(routed.value().counters.shards_routed +
                        routed.value().counters.shards_skipped,
                    shards);
          ExpectIdenticalResults(expected[q], routed.value());

          SpatialAggQuery unrouted = workload[q];
          unrouted.enable_shard_routing = false;
          auto full = executor.Execute(unrouted);
          ASSERT_TRUE(full.ok()) << full.status().ToString();
          EXPECT_EQ(full.value().counters.shards_skipped, 0u);
          EXPECT_EQ(full.value().counters.shards_routed, shards);
          ExpectIdenticalResults(expected[q], full.value());
          ExpectIdenticalResults(routed.value(), full.value());

          // The same query fused with a second member (different
          // aggregate, same canvas) routes too: a shard is skipped only
          // when no member can match it, and each member stays bitwise
          // equal to its unrouted solo run.
          if (workload[q].variant != JoinVariant::kBoundedRaster &&
              workload[q].variant != JoinVariant::kAccurateRaster) {
            continue;  // index variants have no raster pass to fuse
          }
          SpatialAggQuery partner = workload[q];
          partner.aggregate = AggregateKind::kMax;
          partner.aggregate_column = 0;
          partner.with_result_ranges = false;
          auto fused = executor.ExecuteFused({workload[q], partner});
          ASSERT_TRUE(fused.ok()) << fused.status().ToString();
          ASSERT_EQ(fused.value().size(), 2u);
          EXPECT_GT(fused.value()[0].counters.shards_skipped, 0u);
          EXPECT_EQ(fused.value()[0].counters.shards_routed +
                        fused.value()[0].counters.shards_skipped,
                    shards);
          SpatialAggQuery unrouted_partner = partner;
          unrouted_partner.enable_shard_routing = false;
          auto partner_full = executor.Execute(unrouted_partner);
          ASSERT_TRUE(partner_full.ok()) << partner_full.status().ToString();
          ExpectIdenticalResults(full.value(), fused.value()[0]);
          ExpectIdenticalResults(partner_full.value(), fused.value()[1]);
        }
      }
    }
  }
}

/// A query whose region misses every shard still merges to a well-formed
/// (all-zero counts) result: the planner force-keeps one shard so the
/// merge always sees one correctly-shaped partial.
TEST(ShardedRoutingTest, AllShardsSkippableStillMergesWellFormed) {
  const JoinSetup s = MakeSetup(4, 3000, 29);
  // Polygons live in [0,1000]^2 (TinyRegions over that world); points too —
  // so instead build a query that fails every zone on its *filter*: the
  // weight column is in [0,100), and the filter demands >= 1000.
  data::ShardingOptions sharding;
  sharding.num_shards = 3;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 3;
  pool_options.device = DevOptions(1);
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 10.0;
  ASSERT_TRUE(query.filters.Add({0, FilterOp::kGreaterEqual, 1000.0f}).ok());
  auto r = executor.Execute(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Force-keep: exactly one shard executed, the rest skipped.
  EXPECT_EQ(r.value().counters.shards_routed, 1u);
  EXPECT_EQ(r.value().counters.shards_skipped, 2u);
  ASSERT_EQ(r.value().arrays.count.size(), s.polys.size());
  for (const double c : r.value().arrays.count) EXPECT_EQ(c, 0.0);
}

/// Per-shard partial caching: a repeat of the same query plans every
/// shard as a cache hit, executes nothing, and returns bitwise-identical
/// results; disabling the knob plans a full execution again.
TEST(ShardedRoutingTest, PerShardCacheServesRepeatsBitwise) {
  const JoinSetup s = MakeSetup(6, 8000, 33);
  data::ShardingOptions sharding;
  sharding.num_shards = 3;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 3;
  pool_options.device = DevOptions(1);
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);
  query::ResultCache cache;
  executor.set_result_cache(&cache, /*dataset_key=*/42);

  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 8.0;
  query.aggregate = AggregateKind::kSum;
  query.aggregate_column = 0;

  auto first = executor.ExecuteUncached(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  auto plan = executor.PlanPlacement(query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().cache_hits, 3u);
  EXPECT_EQ(plan.value().executed, 0u);

  auto second = executor.ExecuteUncached(query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectIdenticalResults(first.value(), second.value());
  // A cached-partials merge executes no shard.
  EXPECT_EQ(second.value().counters.shards_routed, 0u);

  SpatialAggQuery uncached = query;
  uncached.enable_shard_cache = false;
  auto plan_off = executor.PlanPlacement(uncached);
  ASSERT_TRUE(plan_off.ok());
  EXPECT_EQ(plan_off.value().cache_hits, 0u);
  EXPECT_EQ(plan_off.value().executed, 3u);
  auto third = executor.ExecuteUncached(uncached);
  ASSERT_TRUE(third.ok());
  ExpectIdenticalResults(first.value(), third.value());

  // Version bump: the stale shard partials stop matching.
  executor.BumpDatasetVersion();
  auto plan_bumped = executor.PlanPlacement(query);
  ASSERT_TRUE(plan_bumped.ok());
  EXPECT_EQ(plan_bumped.value().cache_hits, 0u);
}

TEST(ShardedExecutorTest, PlanAdmissionIsPerShard) {
  const JoinSetup s = MakeSetup(4, 3000, 26);
  data::ShardingOptions sharding;
  sharding.num_shards = 3;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 3;
  pool_options.device = DevOptions(1);
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kIndexDevice;  // stride-only footprint
  auto plan = executor.PlanAdmission(query);
  ASSERT_TRUE(plan.ok());
  // full_bytes covers the *largest shard* resident, not the whole table.
  EXPECT_EQ(plan.value().full_bytes,
            table.value().max_shard_points() * plan.value().bytes_per_point);
}

}  // namespace
}  // namespace rj
