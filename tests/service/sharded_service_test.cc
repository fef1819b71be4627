/// \file sharded_service_test.cc
/// \brief QueryService over a gpu::DevicePool: per-device admission grants,
/// placement rejection, utilization stats, and sharded determinism under
/// concurrent clients.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "data/sharded_table.h"
#include "gpu/device_pool.h"
#include "query/executor.h"
#include "service/query_service.h"

namespace rj::service {
namespace {

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
  Rng rng(seed * 17 + 3);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(50))});
  }
  return s;
}

gpu::DevicePoolOptions PoolOptions(std::size_t devices, std::size_t budget) {
  gpu::DevicePoolOptions options;
  options.num_devices = devices;
  options.device.memory_budget_bytes = budget;
  options.device.max_fbo_dim = 1024;
  return options;
}

std::vector<SpatialAggQuery> Mix() {
  std::vector<SpatialAggQuery> mix;
  SpatialAggQuery bounded;
  bounded.variant = JoinVariant::kBoundedRaster;
  bounded.epsilon = 8.0;
  bounded.aggregate = AggregateKind::kSum;
  bounded.aggregate_column = 0;
  mix.push_back(bounded);

  SpatialAggQuery ranges;
  ranges.variant = JoinVariant::kBoundedRaster;
  ranges.epsilon = 12.0;
  ranges.with_result_ranges = true;
  mix.push_back(ranges);

  SpatialAggQuery accurate;
  accurate.variant = JoinVariant::kAccurateRaster;
  accurate.accurate_canvas_dim = 256;
  mix.push_back(accurate);
  return mix;
}

bool Identical(const QueryResult& a, const QueryResult& b) {
  if (a.values.size() != b.values.size()) return false;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const bool both_nan = std::isnan(a.values[i]) && std::isnan(b.values[i]);
    if (!both_nan && a.values[i] != b.values[i]) return false;
  }
  if (a.ranges.loose.size() != b.ranges.loose.size()) return false;
  for (std::size_t i = 0; i < a.ranges.loose.size(); ++i) {
    if (a.ranges.loose[i].lower != b.ranges.loose[i].lower) return false;
    if (a.ranges.loose[i].upper != b.ranges.loose[i].upper) return false;
    if (a.ranges.expected[i].lower != b.ranges.expected[i].lower) return false;
    if (a.ranges.expected[i].upper != b.ranges.expected[i].upper) return false;
  }
  return true;
}

TEST(ShardedServiceTest, ConcurrentShardedQueriesMatchSequentialBaseline) {
  const JoinSetup s = MakeSetup(8, 10000, 31);

  // Ground truth: unsharded, single device, sequential.
  gpu::Device baseline_device(PoolOptions(1, 64u << 20).device);
  Executor baseline(&baseline_device, &s.points, &s.polys);
  std::vector<QueryResult> expected;
  for (const SpatialAggQuery& q : Mix()) {
    auto r = baseline.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r).MoveValueUnsafe());
  }

  data::ShardingOptions sharding;
  sharding.num_shards = 3;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DevicePool pool(PoolOptions(3, 64u << 20));
  ServiceOptions service_options;
  service_options.num_dispatchers = 4;
  QueryService service(&pool, service_options);
  const std::size_t dataset =
      service.RegisterShardedDataset(&table.value(), &s.polys);

  std::atomic<bool> all_identical{true};
  const std::vector<SpatialAggQuery> mix = Mix();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < 6; ++q) {
        const std::size_t pick = (q + c) % mix.size();
        ServiceResponse response = service.Submit(dataset, mix[pick]).get();
        if (!response.result.ok() ||
            !Identical(expected[pick], response.result.value())) {
          all_identical = false;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_TRUE(all_identical.load());

  // Every device saw work (3 shards on 3 devices).
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.devices.size(), 3u);
  for (const gpu::DeviceUtilization& u : stats.devices) {
    EXPECT_GT(u.counters.bytes_transferred, 0u);
    EXPECT_GT(u.peak_reserved_bytes, 0u);
  }
}

TEST(ShardedServiceTest, PerDeviceReservationsNeverExceedAnyBudget) {
  const JoinSetup s = MakeSetup(6, 20000, 32);
  // Budget small enough that concurrent queries contend for grants and
  // each query's shard must batch out-of-core.
  constexpr std::size_t kBudget = 256u << 10;

  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DevicePool pool(PoolOptions(2, kBudget));
  ServiceOptions service_options;
  service_options.num_dispatchers = 4;
  QueryService service(&pool, service_options);
  const std::size_t dataset =
      service.RegisterShardedDataset(&table.value(), &s.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 10.0;
  query.aggregate = AggregateKind::kSum;
  query.aggregate_column = 0;

  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(12);
  for (int i = 0; i < 12; ++i) futures.push_back(service.Submit(dataset, query));
  for (auto& f : futures) {
    ServiceResponse response = f.get();
    // Oversubscribed capacity queues queries; it must not fail them.
    EXPECT_TRUE(response.result.ok())
        << response.result.status().ToString();
    EXPECT_GT(response.stats.granted_bytes, 0u);
    ASSERT_EQ(response.stats.granted_bytes_per_device.size(), 2u);
    EXPECT_GT(response.stats.granted_bytes_per_device[0], 0u);
    EXPECT_GT(response.stats.granted_bytes_per_device[1], 0u);
  }

  // The no-oversubscription invariant, per device: Σ concurrent grants
  // and Σ concurrent allocations never passed the budget.
  for (std::size_t d = 0; d < pool.size(); ++d) {
    EXPECT_LE(pool.device(d)->peak_bytes_reserved(), kBudget) << "device " << d;
    EXPECT_LE(pool.device(d)->peak_bytes_allocated(), kBudget)
        << "device " << d;
  }
}

TEST(ShardedServiceTest, ImpossiblePlacementIsRejectedNotQueued) {
  const JoinSetup s = MakeSetup(4, 5000, 33);
  // 4 shards on 1 device: the device must hold 4 shards' minimum footprint
  // at once — 4 × (2 in-flight one-point buffers × 8-byte stride) = 64
  // bytes. A 40-byte budget can host one shard's minimum but never all
  // four concurrently — reject, don't queue.
  data::ShardingOptions sharding;
  sharding.num_shards = 4;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DevicePool pool(PoolOptions(1, 40));
  QueryService service(&pool);
  const std::size_t dataset =
      service.RegisterShardedDataset(&table.value(), &s.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kIndexDevice;
  ServiceResponse response = service.Submit(dataset, query).get();
  EXPECT_FALSE(response.result.ok());
  EXPECT_EQ(response.result.status().code(), StatusCode::kCapacityError)
      << response.result.status().ToString();
}

TEST(ShardedServiceTest, MixedShardedAndUnshardedDatasetsCoexist) {
  const JoinSetup s = MakeSetup(5, 4000, 34);
  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());

  gpu::DevicePool pool(PoolOptions(2, 64u << 20));
  QueryService service(&pool);
  const std::size_t plain = service.RegisterDataset(&s.points, &s.polys);
  const std::size_t sharded =
      service.RegisterShardedDataset(&table.value(), &s.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 8.0;
  ServiceResponse a = service.Submit(plain, query).get();
  ServiceResponse b = service.Submit(sharded, query).get();
  ASSERT_TRUE(a.result.ok()) << a.result.status().ToString();
  ASSERT_TRUE(b.result.ok()) << b.result.status().ToString();
  EXPECT_TRUE(Identical(a.result.value(), b.result.value()));

  // The unsharded dataset reserves only on the primary device.
  ASSERT_EQ(a.stats.granted_bytes_per_device.size(), 2u);
  EXPECT_GT(a.stats.granted_bytes_per_device[0], 0u);
  EXPECT_EQ(a.stats.granted_bytes_per_device[1], 0u);
}

TEST(ShardedServiceTest, RoutingStatsPartitionTheShardCount) {
  // Polygons in one corner of the data extent: routing must skip the
  // Hilbert shards that cannot intersect them, and the response stats
  // must partition the shard count exactly.
  JoinSetup s;
  auto polys = TinyRegions(5, BBox(0, 0, 250, 250), 41);
  ASSERT_TRUE(polys.ok());
  s.polys = polys.value();
  Rng rng(991);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < 8000; ++i) {
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(50))});
  }
  gpu::Device baseline_device(PoolOptions(1, 64u << 20).device);
  Executor baseline(&baseline_device, &s.points, &s.polys);

  data::ShardingOptions sharding;
  sharding.num_shards = 4;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePool pool(PoolOptions(4, 64u << 20));
  QueryService service(&pool);
  const std::size_t dataset =
      service.RegisterShardedDataset(&table.value(), &s.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 8.0;
  query.aggregate = AggregateKind::kSum;
  query.aggregate_column = 0;
  auto want = baseline.Execute(query);
  ASSERT_TRUE(want.ok());

  ServiceResponse routed = service.Submit(dataset, query).get();
  ASSERT_TRUE(routed.result.ok()) << routed.result.status().ToString();
  EXPECT_TRUE(Identical(want.value(), routed.result.value()));
  EXPECT_GE(routed.stats.shards_skipped, 2u);  // >= 50% of 4 shards
  EXPECT_EQ(routed.stats.shards_routed + routed.stats.shards_skipped +
                routed.stats.shard_cache_hits,
            4u);

  SpatialAggQuery unrouted = query;
  unrouted.enable_shard_routing = false;
  ServiceResponse full = service.Submit(dataset, unrouted).get();
  ASSERT_TRUE(full.result.ok());
  EXPECT_TRUE(Identical(routed.result.value(), full.result.value()));
  EXPECT_EQ(full.stats.shards_skipped, 0u);
  EXPECT_EQ(full.stats.shards_routed, 4u);
}

TEST(ShardedServiceTest, HotShardReplicationStaysBitwiseIdentical) {
  const JoinSetup s = MakeSetup(6, 8000, 35);
  gpu::Device baseline_device(PoolOptions(1, 64u << 20).device);
  Executor baseline(&baseline_device, &s.points, &s.polys);
  std::vector<QueryResult> expected;
  for (const SpatialAggQuery& q : Mix()) {
    auto r = baseline.Execute(q);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(r).MoveValueUnsafe());
  }

  data::ShardingOptions sharding;
  sharding.num_shards = 3;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePool pool(PoolOptions(3, 64u << 20));

  ServiceOptions service_options;
  service_options.replicate_hot_shards = 2;
  service_options.shard_heat_alpha = 1.0;  // heat == last visit
  service_options.replica_update_interval = 2;
  QueryService service(&pool, service_options);
  const std::size_t dataset =
      service.RegisterShardedDataset(&table.value(), &s.polys);

  // Enough traffic to cross several replica-refresh intervals; every
  // response — before and after replicas install — must stay identical
  // to the single-device baseline.
  const std::vector<SpatialAggQuery> mix = Mix();
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t q = 0; q < mix.size(); ++q) {
      ServiceResponse response = service.Submit(dataset, mix[q]).get();
      ASSERT_TRUE(response.result.ok())
          << response.result.status().ToString();
      EXPECT_TRUE(Identical(expected[q], response.result.value()))
          << "round " << round << " query " << q;
    }
  }
  // The heat tracker installed read replicas for the K hottest shards.
  const auto replicas = service.dataset_executor(dataset)->shard_replicas();
  ASSERT_EQ(replicas.size(), 3u);
  std::size_t replicated = 0;
  for (const auto& r : replicas) replicated += r.empty() ? 0 : 1;
  EXPECT_EQ(replicated, 2u);
}

TEST(ShardedServiceTest, ShardedResultsServeFromServiceCache) {
  const JoinSetup s = MakeSetup(5, 6000, 36);
  data::ShardingOptions sharding;
  sharding.num_shards = 2;
  sharding.policy = data::ShardPolicy::kHilbert;
  auto table = data::ShardedTable::Partition(s.points, sharding);
  ASSERT_TRUE(table.ok());
  gpu::DevicePool pool(PoolOptions(2, 64u << 20));

  ServiceOptions service_options;
  service_options.result_cache_bytes = 8u << 20;
  QueryService service(&pool, service_options);
  const std::size_t dataset =
      service.RegisterShardedDataset(&table.value(), &s.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 10.0;
  ServiceResponse first = service.Submit(dataset, query).get();
  ASSERT_TRUE(first.result.ok());
  EXPECT_FALSE(first.stats.cache_hit);
  EXPECT_EQ(first.stats.shards_routed + first.stats.shards_skipped, 2u);

  ServiceResponse second = service.Submit(dataset, query).get();
  ASSERT_TRUE(second.result.ok());
  EXPECT_TRUE(second.stats.cache_hit);
  // Whole-query cache hits never touch the placement layer.
  EXPECT_EQ(second.stats.shards_routed, 0u);
  EXPECT_EQ(second.stats.shard_cache_hits, 0u);
  EXPECT_TRUE(Identical(first.result.value(), second.result.value()));
}

TEST(ShardedServiceTest, StatsReportPerDeviceUtilization) {
  gpu::DevicePool pool(PoolOptions(3, 8u << 20));
  QueryService service(&pool);
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.devices.size(), 3u);
  for (const gpu::DeviceUtilization& u : stats.devices) {
    EXPECT_EQ(u.budget_bytes, 8u << 20);
    EXPECT_EQ(u.reserved_bytes, 0u);
  }
}

}  // namespace
}  // namespace rj::service
