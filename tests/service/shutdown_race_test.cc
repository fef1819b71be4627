/// \file shutdown_race_test.cc
/// \brief Regression test for the shared drain implementation: the
/// destructor drain and the public Shutdown() are one code path, and no
/// submission racing the drain cut can ever run against a torn-down
/// Executor. Clients hammer TrySubmit while the service shuts down; every
/// accepted future must resolve — with a correct result or the retryable
/// shutdown error — and accounting must balance exactly.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "query/query_spec.h"

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
    d.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return d;
}

gpu::DeviceOptions DeviceConfig() {
  gpu::DeviceOptions options;
  options.memory_budget_bytes = 8 << 20;
  options.max_fbo_dim = 1024;
  return options;
}

TEST(QueryServiceShutdownTest, RacingTrySubmitNeverObservesTornDownState) {
  for (int round = 0; round < 3; ++round) {
    Dataset data = MakeDataset(6, 4000, 100 + round);
    gpu::Device device(DeviceConfig());
    ServiceOptions options;
    options.num_dispatchers = 3;
    options.max_queue_depth = 8;
    auto service = std::make_unique<QueryService>(&device, options);
    const std::size_t dataset =
        service->RegisterDataset(&data.points, &data.polys);
    const std::size_t num_polys = data.polys.size();

    auto spec = QuerySpecBuilder()
                    .Variant(JoinVariant::kBoundedRaster)
                    .Epsilon(5.0)
                    .Build();
    ASSERT_TRUE(spec.ok());
    const SpatialAggQuery query = spec.value().ToQuery();

    std::atomic<std::uint64_t> resolved_ok{0};
    std::atomic<std::uint64_t> resolved_shutdown{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<int> failures{0};

    constexpr std::size_t kClients = 4;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        // Keep submitting until the drain cut is observed; every accepted
        // future must resolve either with a real result or the retryable
        // shutdown error — never hang, never crash.
        for (;;) {
          Result<std::future<ServiceResponse>> submitted =
              service->TrySubmit(dataset, query.spec, query.policy);
          if (!submitted.ok()) {
            // Queue-full fast fail; keep hammering until shutdown.
            ++rejected;
            if (submitted.status().code() != StatusCode::kCapacityError) {
              ++failures;
              ADD_FAILURE() << submitted.status().ToString();
              return;
            }
            std::this_thread::yield();
            continue;
          }
          ServiceResponse response = submitted.value().get();
          if (response.result.ok()) {
            ++resolved_ok;
            if (response.result.value().values.size() != num_polys) {
              ++failures;
              ADD_FAILURE() << "truncated result";
            }
          } else {
            const Status& st = response.result.status();
            ++resolved_shutdown;
            if (st.code() != StatusCode::kCapacityError || !st.retryable()) {
              ++failures;
              ADD_FAILURE() << st.ToString();
            }
            return;  // drain cut observed; stop submitting
          }
        }
      });
    }

    // Let the clients get in flight, then cut.
    std::this_thread::sleep_for(std::chrono::milliseconds(30 + 20 * round));
    service->Shutdown();
    for (std::thread& t : clients) t.join();

    // Everything accepted before the cut completed; nothing leaked.
    const ServiceStats stats = service->stats();
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.running, 0u);
    EXPECT_EQ(failures.load(), 0);

    // After Shutdown() returns, submissions keep failing cleanly (and the
    // failure is classified retryable — clients may come back elsewhere).
    Result<std::future<ServiceResponse>> late =
        service->TrySubmit(dataset, query.spec, query.policy);
    if (late.ok()) {
      ServiceResponse response = late.value().get();
      ASSERT_FALSE(response.result.ok());
      EXPECT_EQ(response.result.status().code(), StatusCode::kCapacityError);
      EXPECT_TRUE(response.result.status().retryable());
    } else {
      EXPECT_EQ(late.status().code(), StatusCode::kCapacityError);
    }

    // The destructor re-enters the same drain; call_once makes it a no-op.
    service.reset();
  }
}

}  // namespace
}  // namespace rj::service
