/// \file fused_service_test.cc
/// \brief QueryService fusion-group behavior: compatible queued queries
/// share one fused scan (observable via QueryStats::fused_group_size),
/// incompatible queries never group, every fused response stays bitwise
/// identical to running the query alone, and the result cache keeps
/// serving fused members under their own keys.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <future>
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

/// Four compatible bounded queries (shared ε=8, distinct aggregates and
/// filters — including one §5 ranges member) that a fusion-enabled
/// dispatcher must run as one scan.
std::vector<SpatialAggQuery> CompatibleGroup() {
  std::vector<SpatialAggQuery> group;

  SpatialAggQuery count;
  count.variant = JoinVariant::kBoundedRaster;
  count.epsilon = 8.0;
  group.push_back(count);

  SpatialAggQuery sum;
  sum = count;
  sum.aggregate = AggregateKind::kSum;
  sum.aggregate_column = 0;
  group.push_back(sum);

  SpatialAggQuery filtered_avg = count;
  filtered_avg.aggregate = AggregateKind::kAverage;
  filtered_avg.aggregate_column = 0;
  EXPECT_TRUE(
      filtered_avg.filters.Add({0, FilterOp::kGreater, 30.0f}).ok());
  group.push_back(filtered_avg);

  SpatialAggQuery count_ranges = count;
  count_ranges.with_result_ranges = true;
  group.push_back(count_ranges);

  return group;
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

/// A deliberately slow head-of-line query that keeps the single dispatcher
/// busy while the test queues the group behind it.
SpatialAggQuery Warmup() {
  SpatialAggQuery warmup;
  warmup.variant = JoinVariant::kAccurateRaster;
  warmup.accurate_canvas_dim = 1024;
  return warmup;
}

TEST(FusedServiceTest, QueuedCompatibleQueriesFuseAndStayIdentical) {
  Dataset data = MakeDataset(8, 20000, 41);
  const std::vector<SpatialAggQuery> group = CompatibleGroup();

  // Solo ground truth on a private device.
  gpu::Device seq_device(DeviceConfig(64 << 20));
  Executor seq_executor(&seq_device, &data.points, &data.polys);
  std::vector<QueryResult> expected;
  for (const SpatialAggQuery& q : group) {
    auto r = seq_executor.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r).MoveValueUnsafe());
  }

  // One dispatcher: the warmup query occupies it while the group queues
  // behind, so the next dispatch finds all four members waiting.
  gpu::Device device(DeviceConfig(16 << 20));
  ServiceOptions options;
  options.num_dispatchers = 1;
  options.max_fusion_group_size = 4;
  QueryService service(&device, options);
  const std::size_t dataset =
      service.RegisterDataset(&data.points, &data.polys);

  std::future<ServiceResponse> head = service.Submit(dataset, Warmup());
  std::vector<std::future<ServiceResponse>> futures;
  for (const SpatialAggQuery& q : group) {
    futures.push_back(service.Submit(dataset, q));
  }
  ASSERT_TRUE(head.get().result.ok());

  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServiceResponse response = futures[i].get();
    ASSERT_TRUE(response.result.ok())
        << response.result.status().ToString();
    SCOPED_TRACE("member " + std::to_string(i));
    ExpectIdenticalResults(expected[i], response.result.value());
    // All four were queued when the dispatcher freed up, so they ran as
    // one fused scan.
    EXPECT_EQ(response.stats.fused_group_size, 4u);
    EXPECT_GT(response.stats.granted_bytes, 0u);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_LE(device.peak_bytes_reserved(), device.memory_budget_bytes());
}

TEST(FusedServiceTest, IncompatibleQueriesNeverGroup) {
  Dataset data_a = MakeDataset(6, 12000, 42);
  Dataset data_b = MakeDataset(6, 12000, 43);

  gpu::Device device(DeviceConfig(16 << 20));
  ServiceOptions options;
  options.num_dispatchers = 1;
  options.max_fusion_group_size = 8;
  QueryService service(&device, options);
  const std::size_t ds_a =
      service.RegisterDataset(&data_a.points, &data_a.polys);
  const std::size_t ds_b =
      service.RegisterDataset(&data_b.points, &data_b.polys);

  // Pairwise incompatible: differing ε, differing canvas family, an index
  // variant (nothing to fuse), and a same-shape query on another dataset.
  SpatialAggQuery bounded5;
  bounded5.variant = JoinVariant::kBoundedRaster;
  bounded5.epsilon = 5.0;
  SpatialAggQuery bounded8 = bounded5;
  bounded8.epsilon = 8.0;
  SpatialAggQuery accurate;
  accurate.variant = JoinVariant::kAccurateRaster;
  accurate.accurate_canvas_dim = 256;
  SpatialAggQuery index_device;
  index_device.variant = JoinVariant::kIndexDevice;

  std::future<ServiceResponse> head = service.Submit(ds_a, Warmup());
  std::vector<std::future<ServiceResponse>> futures;
  futures.push_back(service.Submit(ds_a, bounded5));
  futures.push_back(service.Submit(ds_a, bounded8));
  futures.push_back(service.Submit(ds_a, accurate));
  futures.push_back(service.Submit(ds_a, index_device));
  futures.push_back(service.Submit(ds_b, bounded5));
  ASSERT_TRUE(head.get().result.ok());

  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServiceResponse response = futures[i].get();
    ASSERT_TRUE(response.result.ok())
        << response.result.status().ToString();
    // Every pair differs in dataset, resolved variant, or canvas — none
    // may share a scan, max_fusion_group_size notwithstanding.
    EXPECT_EQ(response.stats.fused_group_size, 1u) << "query " << i;
  }
  EXPECT_EQ(service.stats().failed, 0u);
}

TEST(FusedServiceTest, FusedMembersPopulateTheResultCache) {
  Dataset data = MakeDataset(8, 16000, 44);
  const std::vector<SpatialAggQuery> group = CompatibleGroup();

  gpu::Device device(DeviceConfig(16 << 20));
  ServiceOptions options;
  options.num_dispatchers = 1;
  options.max_fusion_group_size = 4;
  options.result_cache_bytes = 8 << 20;
  QueryService service(&device, options);
  const std::size_t dataset =
      service.RegisterDataset(&data.points, &data.polys);

  // Round 1: queue the group behind a warmup so it fuses; every member
  // lands in the cache under its own key.
  std::future<ServiceResponse> head = service.Submit(dataset, Warmup());
  std::vector<std::future<ServiceResponse>> round1;
  for (const SpatialAggQuery& q : group) {
    round1.push_back(service.Submit(dataset, q));
  }
  ASSERT_TRUE(head.get().result.ok());
  std::vector<QueryResult> first;
  for (auto& f : round1) {
    ServiceResponse response = f.get();
    ASSERT_TRUE(response.result.ok());
    EXPECT_FALSE(response.stats.cache_hit);
    first.push_back(response.result.value());
  }
  service.Drain();

  // Round 2: every member is a hit — no device work, no fusion, and the
  // cached value is the fused execution's (bitwise equal to round 1).
  for (std::size_t i = 0; i < group.size(); ++i) {
    ServiceResponse response = service.Submit(dataset, group[i]).get();
    ASSERT_TRUE(response.result.ok());
    EXPECT_TRUE(response.stats.cache_hit) << "member " << i;
    EXPECT_EQ(response.stats.fused_group_size, 1u);
    EXPECT_EQ(response.stats.granted_bytes, 0u);
    ExpectIdenticalResults(first[i], response.result.value());
  }
  EXPECT_GE(service.stats().cache.hits, group.size());
}

TEST(FusedServiceTest, DuplicateQueriesDedupeInsideTheGroup) {
  // Four copies of one cacheable query queue behind the warmup: the group
  // dedupes to a single fused slot (fused_group_size stays 1 — one
  // distinct query executed) and all four futures resolve identically.
  Dataset data = MakeDataset(6, 12000, 45);

  gpu::Device device(DeviceConfig(16 << 20));
  ServiceOptions options;
  options.num_dispatchers = 1;
  options.max_fusion_group_size = 4;
  options.result_cache_bytes = 8 << 20;
  QueryService service(&device, options);
  const std::size_t dataset =
      service.RegisterDataset(&data.points, &data.polys);

  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 8.0;
  query.aggregate = AggregateKind::kSum;
  query.aggregate_column = 0;

  std::future<ServiceResponse> head = service.Submit(dataset, Warmup());
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.Submit(dataset, query));
  }
  ASSERT_TRUE(head.get().result.ok());

  std::vector<QueryResult> results;
  for (auto& f : futures) {
    ServiceResponse response = f.get();
    ASSERT_TRUE(response.result.ok())
        << response.result.status().ToString();
    EXPECT_EQ(response.stats.fused_group_size, 1u);
    results.push_back(response.result.value());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE("duplicate " + std::to_string(i));
    ExpectIdenticalResults(results[0], results[i]);
  }
  EXPECT_EQ(service.stats().failed, 0u);
}

TEST(FusedServiceTest, FusionOffNeverGroups) {
  // Default options (max_fusion_group_size = 1): compatible queued
  // queries still run one at a time.
  Dataset data = MakeDataset(6, 12000, 46);

  gpu::Device device(DeviceConfig(16 << 20));
  ServiceOptions options;
  options.num_dispatchers = 1;
  QueryService service(&device, options);
  const std::size_t dataset =
      service.RegisterDataset(&data.points, &data.polys);

  std::future<ServiceResponse> head = service.Submit(dataset, Warmup());
  std::vector<std::future<ServiceResponse>> futures;
  for (const SpatialAggQuery& q : CompatibleGroup()) {
    futures.push_back(service.Submit(dataset, q));
  }
  ASSERT_TRUE(head.get().result.ok());
  for (auto& f : futures) {
    ServiceResponse response = f.get();
    ASSERT_TRUE(response.result.ok());
    EXPECT_EQ(response.stats.fused_group_size, 1u);
  }
}

}  // namespace
}  // namespace rj::service
