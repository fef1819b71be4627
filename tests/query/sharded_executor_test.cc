/// \file sharded_executor_test.cc
/// \brief Sharded scatter-gather determinism: for every join variant, 1..4
/// shards must be bitwise identical to the single-device baseline —
/// aggregates and §5 result ranges alike — and the baseline itself to the
/// per-call join outside Executor.
///
/// Weights are integer-valued floats, the exactly-representable regime the
/// determinism guarantee covers (see merge_partials.h); COUNT/MIN/MAX are
/// exact unconditionally.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "data/point_block_source.h"
#include "data/sharded_table.h"
#include "gpu/device_pool.h"
#include "join/index_join.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "query/executor.h"
#include "query/result_cache.h"
#include "raster/pipeline.h"

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

/// The cross-variant workload the determinism suite sweeps.
std::vector<SpatialAggQuery> Workload() {
  std::vector<SpatialAggQuery> queries;

  SpatialAggQuery bounded;
  bounded.spec.variant = JoinVariant::kBoundedRaster;
  bounded.spec.epsilon = 6.0;
  bounded.spec.aggregate = AggregateKind::kSum;
  bounded.spec.aggregate_column = 0;
  queries.push_back(bounded);

  SpatialAggQuery bounded_ranges;
  bounded_ranges.spec.variant = JoinVariant::kBoundedRaster;
  bounded_ranges.spec.epsilon = 10.0;
  bounded_ranges.spec.with_result_ranges = true;
  queries.push_back(bounded_ranges);

  SpatialAggQuery accurate;
  accurate.spec.variant = JoinVariant::kAccurateRaster;
  accurate.spec.canvas_dim = 512;
  accurate.spec.aggregate = AggregateKind::kAverage;
  accurate.spec.aggregate_column = 0;
  queries.push_back(accurate);

  SpatialAggQuery index_device;
  index_device.spec.variant = JoinVariant::kIndexDevice;
  index_device.spec.aggregate = AggregateKind::kMin;
  index_device.spec.aggregate_column = 0;
  queries.push_back(index_device);

  SpatialAggQuery index_cpu;
  index_cpu.spec.variant = JoinVariant::kIndexCpu;
  index_cpu.spec.aggregate = AggregateKind::kMax;
  index_cpu.spec.aggregate_column = 0;
  queries.push_back(index_cpu);

  return queries;
}

/// The per-call join `q`'s variant names (BoundedRasterJoin with §5
/// ranges, AccurateRasterJoin preparing its own canvas, IndexJoinDevice,
/// IndexJoinCpu), over the whole table on one device and `world`: the
/// reference outside Executor.
QueryResult PerCallJoin(const JoinSetup& s, const BBox& world,
                        const SpatialAggQuery& q) {
  gpu::Device device(DevOptions());
  auto soup = TriangulatePolygonSet(s.polys);
  EXPECT_TRUE(soup.ok());
  QueryResult r;
  Result<JoinResult> join = Status::Internal("variant not covered");
  if (q.spec.variant == JoinVariant::kBoundedRaster) {
    BoundedRasterJoinOptions options;
    options.epsilon = q.spec.epsilon;
    options.weight_column = q.spec.EffectiveAggregateColumn();
    options.filters = q.spec.filters;
    options.compute_result_ranges = q.spec.with_result_ranges;
    join = BoundedRasterJoin(&device, s.points, s.polys, soup.value(), world,
                             options, nullptr, &r.ranges);
  } else if (q.spec.variant == JoinVariant::kAccurateRaster) {
    AccurateRasterJoinOptions options;
    options.canvas_dim = q.spec.canvas_dim;
    options.weight_column = q.spec.EffectiveAggregateColumn();
    options.filters = q.spec.filters;
    join = AccurateRasterJoin(&device, s.points, s.polys, soup.value(), world,
                              options);
  } else {
    IndexJoinOptions options;
    options.weight_column = q.spec.EffectiveAggregateColumn();
    options.filters = q.spec.filters;
    if (q.spec.variant == JoinVariant::kIndexDevice) {
      join = IndexJoinDevice(&device, s.points, s.polys, world, options);
    } else if (q.spec.variant == JoinVariant::kIndexCpu) {
      options.assign_mode = GridAssignMode::kExactGeometry;
      auto index = GridIndex::Build(s.polys, world, options.index_resolution,
                                    options.assign_mode);
      EXPECT_TRUE(index.ok());
      join = IndexJoinCpu(s.points, s.polys, index.value(), options,
                          q.policy.cpu_threads);
    }
  }
  EXPECT_TRUE(join.ok()) << join.status().ToString();
  r.arrays = join.value().arrays;
  r.values = FinalizeAggregate(q.spec.aggregate, r.arrays);
  return r;
}

/// Single-device ground truth for every workload query, each checked
/// bitwise against the per-call join: the baseline and the sharded
/// subjects run one Executor body, so the reference must come from
/// outside it.
std::vector<QueryResult> Baseline(const JoinSetup& s) {
  gpu::Device device(DevOptions());
  Executor executor(&device, &s.points, &s.polys);
  std::vector<QueryResult> results;
  for (const SpatialAggQuery& q : Workload()) {
    auto r = executor.Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    SCOPED_TRACE("per-call reference, variant " +
                 JoinVariantName(q.spec.variant));
    ExpectIdenticalResults(PerCallJoin(s, executor.world(), q), r.value());
    results.push_back(std::move(r).MoveValueUnsafe());
  }
  return results;
}

class ShardedDeterminismTest
    : public ::testing::TestWithParam<data::ShardPolicy> {};

TEST_P(ShardedDeterminismTest, AllShardCountsMatchBaseline) {
  const JoinSetup s = MakeSetup(8, 12000, 21);
  const std::vector<QueryResult> expected = Baseline(s);
  const std::vector<SpatialAggQuery> workload = Workload();

  for (const std::size_t shards : {1, 2, 3, 4}) {
    data::ShardingOptions sharding;
    sharding.num_shards = shards;
    sharding.policy = GetParam();
    auto table = data::ShardedTable::Partition(s.points, sharding);
    ASSERT_TRUE(table.ok());

    gpu::DevicePoolOptions pool_options;
    pool_options.num_devices = shards;
    pool_options.device = DevOptions();
    gpu::DevicePool pool(pool_options);
    Executor executor(&pool, &table.value(), &s.polys);

    for (std::size_t q = 0; q < workload.size(); ++q) {
      auto r = executor.Execute(workload[q]);
      ASSERT_TRUE(r.ok()) << "shards=" << shards << " query=" << q << ": "
                          << r.status().ToString();
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " query=" + std::to_string(q));
      ExpectIdenticalResults(expected[q], r.value());
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
  pool_options.device = DevOptions();
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
  pool_options.device = DevOptions();
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  const std::vector<SpatialAggQuery> workload = Workload();
  for (std::size_t q = 0; q < workload.size(); ++q) {
    SpatialAggQuery query = workload[q];
    // ~5k points per batch pair.
    query.policy.device_memory_cap_bytes = 64 << 10;
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

  gpu::DeviceOptions a = DevOptions();
  gpu::DeviceOptions b = DevOptions();
  b.max_fbo_dim = 2048;
  gpu::DevicePool pool(std::vector<gpu::DeviceOptions>{a, b});
  Executor executor(&pool, &table.value(), &s.polys);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  EXPECT_FALSE(executor.Execute(query).ok());
}

TEST(ShardedExecutorTest, ShardedWorldMatchesSingleDeviceWorld) {
  const JoinSetup s = MakeSetup(4, 2000, 25);
  gpu::Device device(DevOptions());
  Executor single(&device, &s.points, &s.polys);

  data::ShardingOptions sharding;
  sharding.num_shards = 3;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 3;
  pool_options.device = DevOptions();
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
  pool_options.device = DevOptions();
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 10.0;
  auto r = executor.Execute(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // No query overlapped, so the attributed delta is exactly the pool's
  // work: every shard transferred its points and drew one render pass.
  EXPECT_EQ(r.value().counters.bytes_transferred,
            pool.TotalCounters().bytes_transferred);
  EXPECT_GE(r.value().counters.render_passes, 2u);
  EXPECT_GE(r.value().counters.batches, 2u);

  // One device is one shard: a single-device executor over the table, and
  // one over a block source of it, attribute their device's work too.
  const data::TableBlockSource source(&s.points, /*block_capacity=*/1000);
  for (const bool over_source : {false, true}) {
    SCOPED_TRACE(over_source ? "block source" : "table");
    gpu::Device device(DevOptions());
    Executor single = over_source ? Executor(&device, &source, &s.polys)
                                  : Executor(&device, &s.points, &s.polys);
    auto one = single.Execute(query);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    EXPECT_GT(one.value().counters.bytes_transferred, 0u);
    EXPECT_EQ(one.value().counters.bytes_transferred,
              device.counters().bytes_transferred());
    EXPECT_EQ(one.value().counters.shards_routed, 1u);
  }
}

/// Quarter-extent selectivity: polygons covering one corner of the data
/// extent must let routing skip at least half of the Hilbert-cut shards —
/// while aggregates and §5 ranges stay bitwise identical to unrouted
/// execution AND to the single-device baseline, for every shard count.
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
    data::ShardingOptions sharding;
    sharding.num_shards = shards;
    sharding.policy = data::ShardPolicy::kHilbert;
    auto table = data::ShardedTable::Partition(s.points, sharding);
    ASSERT_TRUE(table.ok());

    gpu::DevicePoolOptions pool_options;
    pool_options.num_devices = shards;
    pool_options.device = DevOptions();
    gpu::DevicePool pool(pool_options);
    Executor executor(&pool, &table.value(), &s.polys);

    for (std::size_t q = 0; q < workload.size(); ++q) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
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
      unrouted.policy.shard_routing = false;
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
      if (workload[q].spec.variant != JoinVariant::kBoundedRaster &&
          workload[q].spec.variant != JoinVariant::kAccurateRaster) {
        continue;  // index variants have no raster pass to fuse
      }
      SpatialAggQuery partner = workload[q];
      partner.spec.aggregate = AggregateKind::kMax;
      partner.spec.aggregate_column = 0;
      partner.spec.with_result_ranges = false;
      auto fused = executor.ExecuteFused({workload[q], partner});
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      ASSERT_EQ(fused.value().size(), 2u);
      EXPECT_GT(fused.value()[0].counters.shards_skipped, 0u);
      EXPECT_EQ(fused.value()[0].counters.shards_routed +
                    fused.value()[0].counters.shards_skipped,
                shards);
      SpatialAggQuery unrouted_partner = partner;
      unrouted_partner.policy.shard_routing = false;
      auto partner_full = executor.Execute(unrouted_partner);
      ASSERT_TRUE(partner_full.ok()) << partner_full.status().ToString();
      ExpectIdenticalResults(full.value(), fused.value()[0]);
      ExpectIdenticalResults(partner_full.value(), fused.value()[1]);
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
  pool_options.device = DevOptions();
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 10.0;
  FilterSet& filters = query.spec.filters;
  ASSERT_TRUE(filters.Add({0, FilterOp::kGreaterEqual, 1000.0f}).ok());
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
  pool_options.device = DevOptions();
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);
  query::ResultCache cache;
  executor.set_result_cache(&cache, /*dataset_key=*/42);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 8.0;
  query.spec.aggregate = AggregateKind::kSum;
  query.spec.aggregate_column = 0;

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
  uncached.policy.shard_cache = false;
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

SpatialAggQuery Accurate(std::int32_t canvas_dim, AggregateKind aggregate) {
  SpatialAggQuery q;
  q.spec.variant = JoinVariant::kAccurateRaster;
  q.spec.canvas_dim = canvas_dim;
  q.spec.aggregate = aggregate;
  if (aggregate != AggregateKind::kCount) q.spec.aggregate_column = 0;
  return q;
}

/// Fragments the boundary pass of a dim × dim canvas over `world` meters.
std::uint64_t BoundaryPassFragments(const PolygonSet& polys, const BBox& world,
                                    std::int32_t dim) {
  gpu::Counters counters;
  raster::BoundaryMask mask(dim, dim);
  raster::DrawBoundaries(raster::Viewport(world, dim, dim), polys,
                         /*conservative=*/true, &mask, &counters);
  return counters.fragments();
}

/// Every shard of a scatter reads the executor's one canvas: results equal
/// a direct AccurateRasterJoin that prepares its own, for 1, 2 and 4
/// shards, and canvas_dim 0 resolves to the same canvas as an explicit
/// max_fbo_dim.
TEST(SharedCanvasTest, ShardedQueriesMatchPerCallAccurateJoin) {
  const JoinSetup s = MakeSetup(8, 12000, 41);
  for (const std::size_t shards : {1, 2, 4}) {
    data::ShardingOptions sharding;
    sharding.num_shards = shards;
    sharding.policy = data::ShardPolicy::kHilbert;
    auto table = data::ShardedTable::Partition(s.points, sharding);
    ASSERT_TRUE(table.ok());
    gpu::DevicePoolOptions pool_options;
    pool_options.num_devices = shards;
    pool_options.device = DevOptions();
    gpu::DevicePool pool(pool_options);
    Executor executor(&pool, &table.value(), &s.polys);

    for (const std::int32_t dim : {0, kFboDim}) {
      for (const AggregateKind aggregate :
           {AggregateKind::kCount, AggregateKind::kSum,
            AggregateKind::kMax}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " dim=" + std::to_string(dim));
        const SpatialAggQuery q = Accurate(dim, aggregate);
        auto r = executor.ExecuteUncached(q);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ExpectIdenticalResults(PerCallJoin(s, executor.world(), q),
                               r.value());
      }
    }
    auto by_default = executor.GetAccurateCanvas(0);
    auto by_limit = executor.GetAccurateCanvas(kFboDim);
    ASSERT_TRUE(by_default.ok() && by_limit.ok());
    EXPECT_EQ(by_default.value(), by_limit.value());
    EXPECT_EQ(by_default.value()->dim, kFboDim);
    // The canvas's index is the executor's one device index.
    auto device_index = executor.GetDeviceIndex(kDefaultGridResolution);
    ASSERT_TRUE(device_index.ok());
    EXPECT_EQ(by_default.value()->index.get(), device_index.value());
  }
}

/// The canvas is built once: a repeat of the same query does exactly the
/// first run's work minus the boundary pass — PIP tests and atomic adds
/// repeat exactly.
TEST(SharedCanvasTest, RepeatQueryReusesTheCanvas) {
  const JoinSetup s = MakeSetup(8, 12000, 43);
  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 2;
  pool_options.device = DevOptions();
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  const SpatialAggQuery q = Accurate(512, AggregateKind::kSum);
  const std::uint64_t boundary_fragments =
      BoundaryPassFragments(s.polys, executor.world(), 512);
  ASSERT_GT(boundary_fragments, 0u);

  std::vector<QueryResult> results;
  std::vector<gpu::CountersSnapshot> deltas;
  for (int run = 0; run < 2; ++run) {
    const gpu::CountersSnapshot before = pool.TotalCounters();
    auto r = executor.ExecuteUncached(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    deltas.push_back(pool.TotalCounters().DeltaSince(before));
    results.push_back(std::move(r).MoveValueUnsafe());
  }
  EXPECT_EQ(deltas[0].fragments - deltas[1].fragments, boundary_fragments);
  EXPECT_EQ(deltas[0].pip_tests, deltas[1].pip_tests);
  EXPECT_GT(deltas[1].pip_tests, 0u);
  EXPECT_EQ(deltas[0].atomic_adds, deltas[1].atomic_adds);
  ExpectIdenticalResults(results[0], results[1]);
}

/// Eight threads use one canvas for the first time at once, on a fresh
/// executor: every result equals the sequential one, and the pool meters
/// the boundary pass exactly once.
TEST(SharedCanvasTest, ConcurrentFirstUseBuildsOneCanvas) {
  const JoinSetup s = MakeSetup(8, 12000, 44);
  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 2;
  pool_options.device = DevOptions();

  std::vector<SpatialAggQuery> queries;
  for (const AggregateKind aggregate :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax}) {
    queries.push_back(Accurate(512, aggregate));
    SpatialAggQuery filtered = Accurate(512, aggregate);
    ASSERT_TRUE(
        filtered.spec.filters.Add({0, FilterOp::kGreaterEqual, 40.0f}).ok());
    queries.push_back(filtered);
  }

  // Sequential reference, and each query's work on a warm canvas.
  gpu::DevicePool seq_pool(pool_options);
  Executor seq(&seq_pool, &table.value(), &s.polys);
  std::vector<QueryResult> expected;
  std::uint64_t warm_fragments = 0;
  for (const SpatialAggQuery& q : queries) {
    ASSERT_TRUE(seq.GetAccurateCanvas(q.spec.canvas_dim).ok());
    const gpu::CountersSnapshot before = seq_pool.TotalCounters();
    auto r = seq.ExecuteUncached(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    warm_fragments += seq_pool.TotalCounters().DeltaSince(before).fragments;
    expected.push_back(std::move(r).MoveValueUnsafe());
  }

  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);
  std::vector<Result<QueryResult>> got(queries.size(),
                                       Status::Internal("not run"));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      got[i] = executor.ExecuteUncached(queries[i]);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query=" + std::to_string(i));
    ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
    ExpectIdenticalResults(expected[i], got[i].value());
  }
  EXPECT_EQ(pool.TotalCounters().fragments,
            warm_fragments +
                BoundaryPassFragments(s.polys, executor.world(), 512));
}

/// More canvas sizes than the cache holds, cycled by concurrent clients:
/// entries are evicted while other queries still run on them, and every
/// result stays equal to the per-call join. A canvas held by a caller
/// outlives its eviction.
TEST(SharedCanvasTest, EvictionUnderConcurrentTrafficStaysCorrect) {
  const JoinSetup s = MakeSetup(6, 6000, 45);
  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 2;
  pool_options.device = DevOptions();
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  const std::vector<std::int32_t> dims = {64, 96, 128, 160, 192, 224};
  ASSERT_GT(dims.size(), Executor::kMaxAccurateCanvases);
  std::vector<QueryResult> expected;
  for (const std::int32_t dim : dims) {
    expected.push_back(PerCallJoin(
        s, executor.world(), Accurate(dim, AggregateKind::kSum)));
  }
  auto held = executor.GetAccurateCanvas(dims[0]);
  ASSERT_TRUE(held.ok());

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 2;
  std::vector<std::vector<Result<QueryResult>>> got(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t k = 0; k < kRounds * dims.size(); ++k) {
        const std::int32_t dim = dims[(k + c) % dims.size()];
        got[c].push_back(
            executor.ExecuteUncached(Accurate(dim, AggregateKind::kSum)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t k = 0; k < got[c].size(); ++k) {
      SCOPED_TRACE("client=" + std::to_string(c) + " k=" + std::to_string(k));
      ASSERT_TRUE(got[c][k].ok()) << got[c][k].status().ToString();
      ExpectIdenticalResults(expected[(k + c) % dims.size()],
                             got[c][k].value());
    }
  }

  // Four other sizes since: dims[0] is rebuilt, bitwise equal to the
  // evicted copy its holder still reads.
  for (std::size_t i = 1; i <= Executor::kMaxAccurateCanvases; ++i) {
    ASSERT_TRUE(executor.GetAccurateCanvas(dims[i]).ok());
  }
  auto rebuilt = executor.GetAccurateCanvas(dims[0]);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(rebuilt.value(), held.value());
  EXPECT_EQ(rebuilt.value()->boundary.words(),
            held.value()->boundary.words());
}

/// A canvas above the device's max_fbo_dim is an InvalidArgument at every
/// layer that resolves it — never an allocation failure — and the
/// executor keeps serving.
TEST(SharedCanvasTest, OversizedCanvasIsInvalidArgument) {
  const JoinSetup s = MakeSetup(4, 2000, 46);
  gpu::DeviceOptions options = DevOptions();
  options.max_fbo_dim = 4096;
  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::Device device(options);
  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 2;
  pool_options.device = options;
  gpu::DevicePool pool(pool_options);
  Executor single(&device, &s.points, &s.polys);
  Executor sharded(&pool, &table.value(), &s.polys);

  for (const std::int32_t dim :
       {std::int32_t{1} << 20, std::numeric_limits<std::int32_t>::max()}) {
    const SpatialAggQuery q = Accurate(dim, AggregateKind::kCount);
    for (Executor* executor : {&single, &sharded}) {
      auto r = executor->ExecuteUncached(q);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << r.status().ToString();
    }
    auto placement = sharded.PlanPlacement(q);  // routing region
    ASSERT_FALSE(placement.ok());
    EXPECT_EQ(placement.status().code(), StatusCode::kInvalidArgument);

    auto soup = TriangulatePolygonSet(s.polys);
    ASSERT_TRUE(soup.ok());
    AccurateRasterJoinOptions direct;
    direct.canvas_dim = dim;
    auto join = AccurateRasterJoin(&device, s.points, s.polys, soup.value(),
                                   single.world(), direct);
    ASSERT_FALSE(join.ok());
    EXPECT_EQ(join.status().code(), StatusCode::kInvalidArgument);
  }

  const SpatialAggQuery fits = Accurate(256, AggregateKind::kCount);
  for (Executor* executor : {&single, &sharded}) {
    auto r = executor->ExecuteUncached(fits);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectIdenticalResults(PerCallJoin(s, executor->world(), fits),
                           r.value());
  }
}

TEST(ShardedExecutorTest, PlanAdmissionIsPerShard) {
  const JoinSetup s = MakeSetup(4, 3000, 26);
  data::ShardingOptions sharding;
  sharding.num_shards = 3;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DevicePoolOptions pool_options;
  pool_options.num_devices = 3;
  pool_options.device = DevOptions();
  gpu::DevicePool pool(pool_options);
  Executor executor(&pool, &table.value(), &s.polys);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kIndexDevice;  // stride-only footprint
  auto plan = executor.PlanAdmission(query);
  ASSERT_TRUE(plan.ok());
  // full_bytes covers the *largest shard* resident, not the whole table.
  EXPECT_EQ(plan.value().full_bytes,
            table.value().max_shard_points() * plan.value().bytes_per_point);
}

}  // namespace
}  // namespace rj
