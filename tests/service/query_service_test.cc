/// \file query_service_test.cc
/// \brief Concurrent-correctness and admission-policy tests for
/// rj::service::QueryService.
///
/// The load-bearing guarantee: running a query through the service — with
/// any number of concurrent client threads, any dispatcher count, and any
/// admission grant (hence batch size) — produces results bitwise identical
/// to a sequential Executor::Execute of the same query. Weights are
/// integer-valued floats so every SUM is exactly representable, the regime
/// the determinism guarantee covers (COUNT/MIN/MAX are always exact).
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <future>
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

/// The query mix every concurrency test runs: every join variant, with and
/// without weights/filters/result ranges.
std::vector<SpatialAggQuery> QueryMix() {
  std::vector<SpatialAggQuery> mix;

  SpatialAggQuery bounded_count;
  bounded_count.spec.variant = JoinVariant::kBoundedRaster;
  bounded_count.spec.epsilon = 5.0;
  mix.push_back(bounded_count);

  SpatialAggQuery bounded_sum_ranges;
  bounded_sum_ranges.spec.variant = JoinVariant::kBoundedRaster;
  bounded_sum_ranges.spec.epsilon = 8.0;
  bounded_sum_ranges.spec.aggregate = AggregateKind::kSum;
  bounded_sum_ranges.spec.aggregate_column = 0;
  bounded_sum_ranges.spec.with_result_ranges = true;
  mix.push_back(bounded_sum_ranges);

  SpatialAggQuery accurate_avg;
  accurate_avg.spec.variant = JoinVariant::kAccurateRaster;
  accurate_avg.spec.canvas_dim = 256;
  accurate_avg.spec.aggregate = AggregateKind::kAverage;
  accurate_avg.spec.aggregate_column = 0;
  mix.push_back(accurate_avg);

  SpatialAggQuery filtered_device;
  filtered_device.spec.variant = JoinVariant::kIndexDevice;
  FilterSet& filters = filtered_device.spec.filters;
  EXPECT_TRUE(filters.Add({0, FilterOp::kGreaterEqual, 25.0f}).ok());
  mix.push_back(filtered_device);

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
    // NaN (empty AVG groups) must match as NaN.
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

TEST(QueryServiceTest, ConcurrentMixBitwiseIdenticalToSequential) {
  Dataset data = MakeDataset(10, 20000, 21);
  const std::vector<SpatialAggQuery> mix = QueryMix();

  // Sequential ground truth: a private device with a comfortable budget
  // (so batch planning differs from the service's grant-capped batches —
  // results must be identical anyway).
  gpu::Device seq_device(DeviceConfig(64 << 20));
  Executor seq_executor(&seq_device, &data.points, &data.polys);
  std::vector<QueryResult> expected;
  std::uint64_t pips_per_mix = 0;  // device-metered PIP tests, one mix pass
  for (const SpatialAggQuery& q : mix) {
    const std::uint64_t pips_before = seq_device.counters().pip_tests();
    auto r = seq_executor.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r).MoveValueUnsafe());
    pips_per_mix += seq_device.counters().pip_tests() - pips_before;
  }

  // Shared device: small budget forces batching, and concurrent queries
  // share the device.
  gpu::Device device(DeviceConfig(2 << 20));
  ServiceOptions options;
  options.num_dispatchers = 4;
  options.max_queue_depth = 128;
  QueryService service(&device, options);
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kRepeats = 2;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::atomic<int> mismatches{0};
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        // Stagger the mix per client so different variants overlap.
        for (std::size_t q = 0; q < mix.size(); ++q) {
          const std::size_t pick = (q + c) % mix.size();
          SubmitOptions submit;
          submit.priority = (c + q) % 3 == 0 ? Priority::kHigh
                                             : Priority::kNormal;
          const SpatialAggQuery& query = mix[pick];
          ServiceResponse response =
              service.Submit(dataset, query.spec, query.policy, submit).get();
          if (!response.result.ok()) {
            ADD_FAILURE() << response.result.status().ToString();
            ++mismatches;
            continue;
          }
          ExpectIdenticalResults(expected[pick], response.result.value());
          EXPECT_GE(response.stats.execute_seconds, 0.0);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  service.Drain();

  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kRepeats * mix.size());
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  // Admission invariant: reservations never oversubscribed the budget.
  EXPECT_LE(device.peak_bytes_reserved(), device.memory_budget_bytes());
  EXPECT_LE(device.peak_bytes_allocated(), device.memory_budget_bytes());
  // PIP metering uses per-thread windows, so concurrent queries must not
  // absorb each other's tests: the shared device's total equals the
  // sequential per-mix total times the number of mix passes exactly.
  EXPECT_EQ(device.counters().pip_tests(),
            pips_per_mix * kClients * kRepeats);
}

TEST(QueryServiceTest, OversubscribingQueriesQueueNotFail) {
  Dataset data = MakeDataset(6, 32768, 22);

  // Each query's full working set (32768 points × 8 B) is 4× the budget;
  // with a 50% share cap two queries fit at a time and the rest must wait
  // for grants — and every one must succeed.
  gpu::Device device(DeviceConfig(64 << 10));
  ServiceOptions options;
  options.num_dispatchers = 4;
  options.max_device_share = 0.5;
  QueryService service(&device, options);
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 10.0;

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(service.Submit(dataset, query.spec, query.policy));
  }
  for (auto& f : futures) {
    ServiceResponse response = f.get();
    ASSERT_TRUE(response.result.ok()) << response.result.status().ToString();
    EXPECT_GT(response.stats.granted_bytes, 0u);
    EXPECT_LE(response.stats.granted_bytes, device.memory_budget_bytes());
    // A table dataset is one shard, placed on every execution.
    EXPECT_EQ(response.stats.shards_routed, 1u);
    EXPECT_EQ(response.stats.shards_skipped, 0u);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_LE(device.peak_bytes_reserved(), device.memory_budget_bytes());
  EXPECT_LE(device.peak_bytes_allocated(), device.memory_budget_bytes());
}

TEST(QueryServiceTest, TinyBudgetNeverExceedsBudgetAndStaysCorrect) {
  Dataset data = MakeDataset(5, 5000, 23);

  // Ground truth on a roomy device.
  gpu::Device seq_device(DeviceConfig(64 << 20));
  Executor seq_executor(&seq_device, &data.points, &data.polys);
  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kIndexDevice;  // no fixed triangle VBO
  auto expected = seq_executor.Execute(query);
  ASSERT_TRUE(expected.ok());

  // 2 KiB of device memory: ~256-point batches, dozens per query.
  gpu::Device device(DeviceConfig(2048));
  ServiceOptions options;
  options.num_dispatchers = 3;
  QueryService service(&device, options);
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);

  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(dataset, query.spec, query.policy));
  }
  for (auto& f : futures) {
    ServiceResponse response = f.get();
    ASSERT_TRUE(response.result.ok()) << response.result.status().ToString();
    ExpectIdenticalResults(expected.value(), response.result.value());
  }
  EXPECT_LE(device.peak_bytes_allocated(), 2048u);
  EXPECT_LE(device.peak_bytes_reserved(), 2048u);
}

TEST(QueryServiceTest, ImpossibleFootprintIsRejectedNotQueued) {
  Dataset data = MakeDataset(8, 100, 24);
  // The bounded variant must upload the whole triangle VBO at once; a
  // budget smaller than that can never run the query, so the service must
  // fail it instead of queueing it forever.
  gpu::Device probe(DeviceConfig(64 << 20));
  Executor probe_executor(&probe, &data.points, &data.polys);
  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  auto plan = probe_executor.PlanAdmission(query);
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(plan.value().fixed_bytes, 64u);

  gpu::Device device(DeviceConfig(plan.value().min_bytes - 1));
  QueryService service(&device, {});
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);
  ServiceResponse response =
      service.Submit(dataset, query.spec, query.policy).get();
  ASSERT_FALSE(response.result.ok());
  EXPECT_EQ(response.result.status().code(), StatusCode::kCapacityError);
}

TEST(QueryServiceTest, PriorityLaneDispatchesBeforeLaterFifo) {
  Dataset data = MakeDataset(8, 100000, 25);
  gpu::Device device(DeviceConfig(8 << 20));
  ServiceOptions options;
  options.num_dispatchers = 1;  // serialize dispatch to observe the order
  QueryService service(&device, options);
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);

  SpatialAggQuery heavy;
  heavy.spec.variant = JoinVariant::kBoundedRaster;
  heavy.spec.epsilon = 4.0;
  SpatialAggQuery light;
  light.spec.variant = JoinVariant::kIndexCpu;

  // While the dispatcher is busy with `heavy`, queue FIFO a, then HIGH c,
  // then FIFO b. In every interleaving c must dispatch before b: b is
  // submitted after c, and whenever both are queued the priority lane
  // drains first.
  auto blocker = service.Submit(dataset, heavy.spec, heavy.policy);
  auto a = service.Submit(dataset, light.spec, light.policy);
  SubmitOptions high;
  high.priority = Priority::kHigh;
  auto c = service.Submit(dataset, light.spec, light.policy, high);
  auto b = service.Submit(dataset, light.spec, light.policy);

  (void)blocker.get();
  (void)a.get();
  const ServiceResponse rc = c.get();
  const ServiceResponse rb = b.get();
  ASSERT_TRUE(rc.result.ok());
  ASSERT_TRUE(rb.result.ok());
  EXPECT_LT(rc.stats.dispatch_order, rb.stats.dispatch_order);
}

TEST(QueryServiceTest, TrySubmitBackpressureRejectsWhenQueueFull) {
  Dataset data = MakeDataset(6, 150000, 26);
  gpu::Device device(DeviceConfig(8 << 20));
  ServiceOptions options;
  options.num_dispatchers = 1;
  options.max_queue_depth = 2;
  QueryService service(&device, options);
  const std::size_t dataset = service.RegisterDataset(&data.points,
                                                      &data.polys);

  SpatialAggQuery heavy;
  heavy.spec.variant = JoinVariant::kBoundedRaster;
  heavy.spec.epsilon = 4.0;

  std::vector<std::future<ServiceResponse>> accepted;
  std::size_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    auto r = service.TrySubmit(dataset, heavy.spec, heavy.policy);
    if (r.ok()) {
      accepted.push_back(std::move(r).MoveValueUnsafe());
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kCapacityError);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(service.stats().rejected, rejected);
  for (auto& f : accepted) {
    EXPECT_TRUE(f.get().result.ok());
  }
}

TEST(QueryServiceTest, UnknownDatasetResolvesFutureWithError) {
  gpu::Device device(DeviceConfig(1 << 20));
  QueryService service(&device, {});
  SpatialAggQuery query;
  ServiceResponse response = service.Submit(42, query.spec, query.policy).get();
  ASSERT_FALSE(response.result.ok());
  EXPECT_EQ(response.result.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(response.result.status().retryable());
}

TEST(QueryServiceTest, OversizedCanvasResolvesFutureWithInvalidArgument) {
  // An accurate canvas above the device's max_fbo_dim is rejected at
  // submit, like a bad column, and the service keeps serving. Variants
  // that do not render the accurate canvas ignore canvas_dim.
  Dataset data = MakeDataset(4, 2000, 26);
  gpu::Device device(DeviceConfig(16 << 20));
  QueryService service(&device, {});
  const std::size_t id = service.RegisterDataset(&data.points, &data.polys);

  SpatialAggQuery accurate;
  accurate.spec.variant = JoinVariant::kAccurateRaster;
  accurate.spec.canvas_dim = 1 << 20;
  ServiceResponse rejected =
      service.Submit(id, accurate.spec, accurate.policy).get();
  ASSERT_FALSE(rejected.result.ok());
  EXPECT_EQ(rejected.result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(rejected.result.status().retryable());

  SpatialAggQuery bounded;
  bounded.spec.variant = JoinVariant::kBoundedRaster;
  bounded.spec.canvas_dim = 1 << 20;
  ServiceResponse served =
      service.Submit(id, bounded.spec, bounded.policy).get();
  EXPECT_TRUE(served.result.ok()) << served.result.status().ToString();

  accurate.spec.canvas_dim = 256;
  served = service.Submit(id, accurate.spec, accurate.policy).get();
  ASSERT_TRUE(served.result.ok()) << served.result.status().ToString();
  Result<QueryResult> expected =
      service.dataset_executor(id)->ExecuteUncached(accurate);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(served.result.value().values, expected.value().values);
}

TEST(QueryServiceTest, DestructorDrainsAcceptedQueries) {
  Dataset data = MakeDataset(6, 20000, 27);
  gpu::Device device(DeviceConfig(4 << 20));
  std::vector<std::future<ServiceResponse>> futures;
  {
    ServiceOptions options;
    options.num_dispatchers = 2;
    QueryService service(&device, options);
    const std::size_t dataset = service.RegisterDataset(&data.points,
                                                        &data.polys);
    SpatialAggQuery query;
    query.spec.variant = JoinVariant::kBoundedRaster;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(service.Submit(dataset, query.spec, query.policy));
    }
    // Service destroyed here with queries still queued.
  }
  for (auto& f : futures) {
    ServiceResponse response = f.get();
    EXPECT_TRUE(response.result.ok()) << response.result.status().ToString();
  }
}

}  // namespace
}  // namespace rj::service
