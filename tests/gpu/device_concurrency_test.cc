/// \file device_concurrency_test.cc
/// \brief Thread-safety hammer for the shared gpu::Device.
///
/// QueryService shares one Device between concurrent queries, so
/// Allocate/Free/TryReserve/CopyToDevice and every budget query must be
/// safe from many threads. These tests are the ThreadSanitizer targets the
/// CI tsan job runs; without synchronization in Device they fail under
/// TSan (data races on the budget counters) and can trip the allocation
/// asserts under any build.
#include "gpu/device.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace rj::gpu {
namespace {

constexpr std::size_t kBudget = 1 << 20;

DeviceOptions HammerDevice() {
  DeviceOptions options;
  options.memory_budget_bytes = kBudget;
  return options;
}

TEST(DeviceConcurrencyTest, AllocateFreeCopyHammer) {
  Device device(HammerDevice());
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 300;

  std::atomic<std::uint64_t> successes{0};
  std::atomic<bool> corrupted{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&device, &successes, &corrupted, t] {
      Rng rng(0xC0FFEE + t);
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t bytes = 64 + rng.UniformInt(4096);
        auto buf = device.Allocate(BufferKind::kVertexBuffer, bytes);
        if (!buf.ok()) continue;  // budget contention is expected
        ++successes;

        // Round-trip a thread-unique pattern through the buffer.
        std::vector<std::uint8_t> src(bytes,
                                      static_cast<std::uint8_t>(t + 1));
        ASSERT_TRUE(
            device.CopyToDevice(buf.value().get(), 0, src.data(), bytes)
                .ok());
        std::vector<std::uint8_t> dst(bytes, 0);
        ASSERT_TRUE(
            device.CopyToHost(buf.value().get(), 0, dst.data(), bytes).ok());
        if (dst != src) corrupted = true;

        // Interleave budget queries with the churn.
        EXPECT_LE(device.bytes_allocated(), kBudget);
        (void)device.bytes_free();
        (void)device.MaxResidentElements(8);
        device.Free(buf.value());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(corrupted.load());
  EXPECT_GT(successes.load(), 0u);
  EXPECT_EQ(device.bytes_allocated(), 0u);
  EXPECT_LE(device.peak_bytes_allocated(), kBudget);
}

TEST(DeviceConcurrencyTest, ReservationHammerNeverOversubscribes) {
  Device device(HammerDevice());
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 400;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&device, t] {
      Rng rng(0xBEEF + t);
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t want = 1 + rng.UniformInt(kBudget / 2);
        auto grant = device.TryReserve(want);
        if (!grant.ok()) {
          EXPECT_EQ(grant.status().code(), StatusCode::kCapacityError);
          continue;
        }
        // While held, a grant-backed allocation within the ticket must
        // succeed in aggregate terms: total reserved never tops the budget.
        EXPECT_LE(device.bytes_reserved(), kBudget);
        grant.value().Release();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(device.bytes_reserved(), 0u);
  EXPECT_LE(device.peak_bytes_reserved(), kBudget);
}

TEST(DeviceConcurrencyTest, MixedAllocationAndReservationChurn) {
  Device device(HammerDevice());
  constexpr std::size_t kThreads = 6;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&device, t] {
      Rng rng(0xF00D + t);
      for (std::size_t i = 0; i < 200; ++i) {
        if (rng.Chance(0.5)) {
          auto grant = device.TryReserve(1 + rng.UniformInt(kBudget / 4));
          (void)grant;  // released on scope exit
        } else {
          auto buf = device.Allocate(BufferKind::kShaderStorage,
                                     1 + rng.UniformInt(kBudget / 4));
          if (buf.ok()) device.Free(buf.value());
        }
        device.set_memory_budget_bytes(kBudget);  // idempotent write path
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(device.bytes_allocated(), 0u);
  EXPECT_EQ(device.bytes_reserved(), 0u);
}

}  // namespace
}  // namespace rj::gpu
