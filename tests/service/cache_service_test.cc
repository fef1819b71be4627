/// \file cache_service_test.cc
/// \brief QueryService + ResultCache: hits bypass admission with fresh
/// stats, single-flight under concurrency, LRU churn, and invalidation.
///
/// The TSan concurrency hammer lives here: N client threads submit a mix
/// of identical and distinct queries through a cache-enabled service, and
/// the test asserts (a) the join executed exactly once per distinct key
/// (device counters frozen once warm), (b) every response is bitwise
/// identical to an uncached Execute, (c) LRU capacity holds under churn,
/// and (d) InvalidateDataset invalidates.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "query/executor.h"

namespace rj::service {
namespace {

struct Dataset {
  PolygonSet polys;
  PointTable points;
};

Dataset MakeDataset(std::size_t num_polys, std::size_t num_points,
                    std::uint64_t seed) {
  Dataset d;
  auto polys = TinyRegions(num_polys, BBox(0, 0, 1000, 1000), seed);
  EXPECT_TRUE(polys.ok());
  d.polys = polys.value();
  Rng rng(seed * 131 + 7);
  d.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    // Integer-valued weights: double-exact sums for any accumulation order.
    d.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return d;
}

gpu::DeviceOptions DeviceConfig(std::size_t budget) {
  gpu::DeviceOptions options;
  options.memory_budget_bytes = budget;
  options.max_fbo_dim = 1024;
  return options;
}

ServiceOptions CachedService(std::size_t cache_bytes,
                             std::size_t dispatchers) {
  ServiceOptions options;
  options.num_dispatchers = dispatchers;
  options.max_queue_depth = 256;
  options.result_cache_bytes = cache_bytes;
  return options;
}

/// Distinct query shapes (distinct cache keys) covering every variant.
std::vector<SpatialAggQuery> DistinctQueries() {
  std::vector<SpatialAggQuery> mix;

  SpatialAggQuery bounded;
  bounded.spec.variant = JoinVariant::kBoundedRaster;
  bounded.spec.epsilon = 6.0;
  mix.push_back(bounded);

  SpatialAggQuery bounded_ranges;
  bounded_ranges.spec.variant = JoinVariant::kBoundedRaster;
  bounded_ranges.spec.epsilon = 9.0;
  bounded_ranges.spec.aggregate = AggregateKind::kSum;
  bounded_ranges.spec.aggregate_column = 0;
  bounded_ranges.spec.with_result_ranges = true;
  mix.push_back(bounded_ranges);

  SpatialAggQuery accurate;
  accurate.spec.variant = JoinVariant::kAccurateRaster;
  accurate.spec.canvas_dim = 256;
  accurate.spec.aggregate = AggregateKind::kAverage;
  accurate.spec.aggregate_column = 0;
  mix.push_back(accurate);

  SpatialAggQuery filtered;
  filtered.spec.variant = JoinVariant::kIndexDevice;
  FilterSet& filters = filtered.spec.filters;
  EXPECT_TRUE(filters.Add({0, FilterOp::kGreaterEqual, 25.0f}).ok());
  mix.push_back(filtered);

  SpatialAggQuery cpu_max;
  cpu_max.spec.variant = JoinVariant::kIndexCpu;
  cpu_max.spec.aggregate = AggregateKind::kMax;
  cpu_max.spec.aggregate_column = 0;
  mix.push_back(cpu_max);

  return mix;
}

void ExpectIdenticalResults(const QueryResult& expected,
                            const QueryResult& actual) {
  ASSERT_EQ(expected.values.size(), actual.values.size());
  for (std::size_t i = 0; i < expected.values.size(); ++i) {
    if (std::isnan(expected.values[i])) {
      EXPECT_TRUE(std::isnan(actual.values[i])) << "value slot " << i;
    } else {
      EXPECT_EQ(expected.values[i], actual.values[i]) << "value slot " << i;
    }
    EXPECT_EQ(expected.arrays.count[i], actual.arrays.count[i]) << i;
    EXPECT_EQ(expected.arrays.sum[i], actual.arrays.sum[i]) << i;
    EXPECT_EQ(expected.arrays.min[i], actual.arrays.min[i]) << i;
    EXPECT_EQ(expected.arrays.max[i], actual.arrays.max[i]) << i;
  }
  ASSERT_EQ(expected.ranges.loose.size(), actual.ranges.loose.size());
  for (std::size_t i = 0; i < expected.ranges.loose.size(); ++i) {
    EXPECT_EQ(expected.ranges.loose[i].lower, actual.ranges.loose[i].lower);
    EXPECT_EQ(expected.ranges.loose[i].upper, actual.ranges.loose[i].upper);
    EXPECT_EQ(expected.ranges.expected[i].lower,
              actual.ranges.expected[i].lower);
    EXPECT_EQ(expected.ranges.expected[i].upper,
              actual.ranges.expected[i].upper);
  }
}

TEST(CacheServiceTest, HitReportsFreshStatsAndMovesNoDeviceCounters) {
  Dataset data = MakeDataset(8, 8000, 41);
  gpu::Device device(DeviceConfig(8 << 20));
  QueryService service(&device, CachedService(16 << 20, 2));
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);

  QuerySpec spec;
  spec.variant = JoinVariant::kBoundedRaster;
  spec.epsilon = 7.0;

  const ServiceResponse miss = service.Submit(dataset, spec).get();
  ASSERT_TRUE(miss.result.ok()) << miss.result.status().ToString();
  EXPECT_FALSE(miss.stats.cache_hit);
  EXPECT_GT(miss.stats.granted_bytes, 0u);

  // Quiesce, then hit: no device counter may move, and the hit's stats
  // must be fresh — zero grants, equal counter snapshots, no replayed
  // phase timings — instead of the miss's execution stats. The hit names
  // its dataset where the miss did not: the id is the dataset's identity,
  // so the name never splits the cache entry.
  service.Drain();
  const gpu::CountersSnapshot before = device.counters().Snapshot();
  QuerySpec named = spec;
  named.dataset = "taxi";
  const ServiceResponse hit = service.Submit(dataset, named).get();
  ASSERT_TRUE(hit.result.ok());
  EXPECT_TRUE(hit.stats.cache_hit);
  EXPECT_TRUE(hit.result.value().cache_hit);
  EXPECT_EQ(hit.stats.granted_bytes, 0u);
  ASSERT_EQ(hit.stats.granted_bytes_per_device.size(), 1u);
  EXPECT_EQ(hit.stats.granted_bytes_per_device[0], 0u);

  const gpu::CountersSnapshot after = device.counters().Snapshot();
  const gpu::CountersSnapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.bytes_transferred, 0u);
  EXPECT_EQ(delta.fragments, 0u);
  EXPECT_EQ(delta.vertices, 0u);
  EXPECT_EQ(delta.render_passes, 0u);
  EXPECT_EQ(delta.batches, 0u);
  EXPECT_EQ(delta.pip_tests, 0u);

  // The per-query counter window is degenerate (before == after) and the
  // result's phase breakdown is scrubbed, not the miss's.
  const gpu::CountersSnapshot window =
      hit.stats.device_counters_after.DeltaSince(
          hit.stats.device_counters_before);
  EXPECT_EQ(window.bytes_transferred, 0u);
  EXPECT_EQ(window.fragments, 0u);
  EXPECT_EQ(hit.result.value().timing.Total(), 0.0);
  EXPECT_EQ(hit.result.value().timing.Get(phase::kTransfer), 0.0);
  EXPECT_EQ(hit.result.value().timing.Get(phase::kProcessing), 0.0);

  ExpectIdenticalResults(miss.result.value(), hit.result.value());
  EXPECT_EQ(service.stats().cache.hits, 1u);
}

TEST(CacheServiceTest, ConcurrentHammerSingleFlightAndBitwiseIdentical) {
  Dataset data = MakeDataset(10, 12000, 43);
  const std::vector<SpatialAggQuery> mix = DistinctQueries();

  // Uncached ground truth on a private device.
  gpu::Device seq_device(DeviceConfig(64 << 20));
  Executor seq_executor(&seq_device, &data.points, &data.polys);
  std::vector<QueryResult> expected;
  for (const SpatialAggQuery& q : mix) {
    auto r = seq_executor.ExecuteUncached(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r).MoveValueUnsafe());
  }

  gpu::Device device(DeviceConfig(4 << 20));
  QueryService service(&device, CachedService(32 << 20, 4));
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);

  // Phase 1: N threads × R rounds of the same distinct queries — identical
  // submissions race, single-flight must deduplicate them.
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kRepeats = 3;
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> executions_seen{0};  // responses w/o cache_hit
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t rep = 0; rep < kRepeats; ++rep) {
          for (std::size_t q = 0; q < mix.size(); ++q) {
            const std::size_t pick = (q + c + rep) % mix.size();
            // Vary execution-only knobs per client: they are excluded
            // from the key, so these must all collapse onto one entry.
            SpatialAggQuery query = mix[pick];
            query.policy.cpu_threads = 1 + static_cast<int>(c % 3);
            query.policy.overlap_transfers = (c % 2) == 0;
            ServiceResponse response =
                service.Submit(dataset, query.spec, query.policy).get();
            if (!response.result.ok()) {
              ADD_FAILURE() << response.result.status().ToString();
              ++failures;
              continue;
            }
            if (!response.stats.cache_hit) ++executions_seen;
            ExpectIdenticalResults(expected[pick], response.result.value());
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  service.Drain();
  EXPECT_EQ(failures.load(), 0);

  // Single-flight: the join ran exactly once per distinct key. Responses
  // without cache_hit are the leader executions, one per key.
  EXPECT_EQ(executions_seen.load(), mix.size());
  const ServiceStats mid = service.stats();
  EXPECT_EQ(mid.cache.misses, mix.size());
  EXPECT_EQ(mid.cache.hits + mid.cache.shared_flights,
            kClients * kRepeats * mix.size() - mix.size());

  // Phase 2: warm device counters are frozen — another full wave does no
  // device work at all (every submission is a hit).
  const gpu::CountersSnapshot warm = device.counters().Snapshot();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (const SpatialAggQuery& q : mix) {
          ServiceResponse response =
              service.Submit(dataset, q.spec, q.policy).get();
          if (!response.result.ok() || !response.stats.cache_hit) {
            ++failures;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  service.Drain();
  EXPECT_EQ(failures.load(), 0);
  const gpu::CountersSnapshot frozen =
      device.counters().Snapshot().DeltaSince(warm);
  EXPECT_EQ(frozen.bytes_transferred, 0u);
  EXPECT_EQ(frozen.fragments, 0u);
  EXPECT_EQ(frozen.render_passes, 0u);
  EXPECT_EQ(frozen.pip_tests, 0u);
}

TEST(CacheServiceTest, LruCapacityHoldsUnderChurn) {
  Dataset data = MakeDataset(6, 2000, 45);
  gpu::Device device(DeviceConfig(8 << 20));
  // Tiny single-shard cache: a few KB forces steady eviction across an
  // epsilon sweep (with the default 8 shards each slice would be smaller
  // than one entry and nothing would ever be stored).
  ServiceOptions options = CachedService(8192, 2);
  options.result_cache_shards = 1;
  QueryService service(&device, options);
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);

  for (int round = 0; round < 2; ++round) {
    std::vector<std::future<ServiceResponse>> futures;
    for (int i = 0; i < 24; ++i) {
      SpatialAggQuery query;
      query.spec.variant = JoinVariant::kBoundedRaster;
      query.spec.epsilon = 5.0 + i;  // distinct keys
      futures.push_back(service.Submit(dataset, query.spec, query.policy));
    }
    for (auto& f : futures) {
      ASSERT_TRUE(f.get().result.ok());
    }
  }
  const query::ResultCacheStats stats = service.stats().cache;
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_used, stats.capacity_bytes);
  EXPECT_EQ(service.stats().failed, 0u);
}

TEST(CacheServiceTest, InvalidateDatasetMakesTheNextSubmitMiss) {
  Dataset data = MakeDataset(6, 3000, 47);
  gpu::Device device(DeviceConfig(16 << 20));
  QueryService service(&device, CachedService(16 << 20, 2));
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 10.0;

  ASSERT_TRUE(
      service.Submit(dataset, query.spec, query.policy).get().result.ok());
  EXPECT_TRUE(
      service.Submit(dataset, query.spec, query.policy).get().stats.cache_hit);

  // The out-of-band mutation hook: the cached entry stops matching, and
  // the re-executed result is cached under the new version.
  service.InvalidateDataset(dataset);
  const ServiceResponse after =
      service.Submit(dataset, query.spec, query.policy).get();
  ASSERT_TRUE(after.result.ok());
  EXPECT_FALSE(after.stats.cache_hit);
  EXPECT_TRUE(
      service.Submit(dataset, query.spec, query.policy).get().stats.cache_hit);
}

TEST(CacheServiceTest, ReRegistrationReturnsSameIdAndBumpsVersion) {
  Dataset data = MakeDataset(5, 1000, 49);
  gpu::Device device(DeviceConfig(16 << 20));
  QueryService service(&device, CachedService(16 << 20, 1));
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);
  const std::uint64_t version =
      service.dataset_executor(dataset)->dataset_version();

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kIndexCpu;
  ASSERT_TRUE(
      service.Submit(dataset, query.spec, query.policy).get().result.ok());
  EXPECT_TRUE(
      service.Submit(dataset, query.spec, query.policy).get().stats.cache_hit);

  const std::size_t again = service.RegisterDataset(&data.points,
                                                    &data.polys);
  EXPECT_EQ(again, dataset);
  EXPECT_GT(service.dataset_executor(dataset)->dataset_version(), version);
  EXPECT_FALSE(
      service.Submit(dataset, query.spec, query.policy).get().stats.cache_hit);

  // A genuinely different dataset still gets a fresh id.
  Dataset other = MakeDataset(5, 1000, 50);
  const std::size_t other_id = service.RegisterDataset(&other.points,
                                                       &other.polys);
  EXPECT_NE(other_id, dataset);
}

TEST(CacheServiceTest, CacheOffBehavesAsBefore) {
  Dataset data = MakeDataset(5, 2000, 51);
  gpu::Device device(DeviceConfig(16 << 20));
  QueryService service(&device, {});  // result_cache_bytes == 0
  EXPECT_EQ(service.result_cache(), nullptr);
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);
  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  for (int i = 0; i < 2; ++i) {
    const ServiceResponse r =
        service.Submit(dataset, query.spec, query.policy).get();
    ASSERT_TRUE(r.result.ok());
    EXPECT_FALSE(r.stats.cache_hit);
    EXPECT_GT(r.stats.granted_bytes, 0u);
  }
  EXPECT_EQ(service.stats().cache.hits, 0u);
}

}  // namespace
}  // namespace rj::service
