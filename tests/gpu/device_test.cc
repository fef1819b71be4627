#include "gpu/device.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace rj::gpu {
namespace {

DeviceOptions SmallDevice() {
  DeviceOptions options;
  options.memory_budget_bytes = 1024;
  options.max_fbo_dim = 64;
  return options;
}

TEST(DeviceTest, AllocateWithinBudget) {
  Device device(SmallDevice());
  auto buf = device.Allocate(BufferKind::kVertexBuffer, 512);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(device.bytes_allocated(), 512u);
  EXPECT_EQ(device.bytes_free(), 512u);
}

TEST(DeviceTest, AllocateBeyondBudgetFails) {
  Device device(SmallDevice());
  auto a = device.Allocate(BufferKind::kVertexBuffer, 800);
  ASSERT_TRUE(a.ok());
  auto b = device.Allocate(BufferKind::kVertexBuffer, 300);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kCapacityError);
}

TEST(DeviceTest, FreeReturnsBudget) {
  Device device(SmallDevice());
  auto buf = device.Allocate(BufferKind::kShaderStorage, 1000);
  ASSERT_TRUE(buf.ok());
  device.Free(buf.value());
  EXPECT_EQ(device.bytes_allocated(), 0u);
  EXPECT_TRUE(device.Allocate(BufferKind::kShaderStorage, 1000).ok());
}

TEST(DeviceTest, CopyRoundTripAndMetering) {
  Device device(SmallDevice());
  auto buf = device.Allocate(BufferKind::kVertexBuffer, 256);
  ASSERT_TRUE(buf.ok());
  std::vector<std::uint8_t> src(256);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(device
                  .Upload(buf.value().get(), 0, 256,
                          [&](std::uint8_t* dst) {
                            std::memcpy(dst, src.data(), 256);
                          })
                  .ok());
  EXPECT_EQ(std::memcmp(src.data(), buf.value()->data(), 256), 0);
  EXPECT_EQ(device.counters().bytes_transferred(), 256u);
}

TEST(DeviceTest, CopyOverflowRejected) {
  Device device(SmallDevice());
  auto buf = device.Allocate(BufferKind::kVertexBuffer, 64);
  ASSERT_TRUE(buf.ok());
  bool filled = false;
  const auto fill = [&](std::uint8_t*) { filled = true; };
  // Past the end, at the end plus one byte, and an offset whose sum with
  // the size wraps around: each is OutOfRange, runs no fill, meters 0.
  EXPECT_EQ(device.Upload(buf.value().get(), 0, 128, fill).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(device.Upload(buf.value().get(), 32, 33, fill).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(device.Upload(buf.value().get(), 65, 0, fill).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(device
                .Upload(buf.value().get(), 32,
                        std::numeric_limits<std::size_t>::max() - 16, fill)
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(filled);
  EXPECT_EQ(device.counters().bytes_transferred(), 0u);
  // The last in-range byte is writable, and metered.
  EXPECT_TRUE(device.Upload(buf.value().get(), 63, 1, fill).ok());
  EXPECT_TRUE(filled);
  EXPECT_EQ(device.counters().bytes_transferred(), 1u);
}

TEST(DeviceTest, BytesFreeClampsWhenBudgetShrinksBelowAllocated) {
  // Regression: shrinking the budget below the allocated bytes used to
  // wrap bytes_free() to a near-2^64 value, which the executor's batch
  // planner then treated as unlimited memory.
  Device device(SmallDevice());
  auto buf = device.Allocate(BufferKind::kVertexBuffer, 800);
  ASSERT_TRUE(buf.ok());
  device.set_memory_budget_bytes(512);
  EXPECT_EQ(device.memory_budget_bytes(), 512u);
  EXPECT_EQ(device.bytes_free(), 0u);
  EXPECT_FALSE(device.Allocate(BufferKind::kVertexBuffer, 1).ok());
  device.Free(buf.value());
  EXPECT_EQ(device.bytes_free(), 512u);
}

TEST(DeviceTest, ReservationsGateAdmission) {
  Device device(SmallDevice());  // 1024-byte budget
  auto r1 = device.TryReserve(600);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(device.bytes_reserved(), 600u);

  // The unreserved remainder is too small for a second 600-byte grant...
  auto r2 = device.TryReserve(600);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kCapacityError);
  // ...but a grant that fits is admitted alongside.
  auto r3 = device.TryReserve(424);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(device.bytes_reserved(), 1024u);

  r1.value().Release();
  EXPECT_EQ(device.bytes_reserved(), 424u);
  EXPECT_TRUE(device.TryReserve(600).ok());  // released on scope exit
  EXPECT_EQ(device.bytes_reserved(), 424u);
  EXPECT_EQ(device.peak_bytes_reserved(), 1024u);
}

TEST(DeviceTest, ReservationMoveTransfersOwnership) {
  Device device(SmallDevice());
  auto r = device.TryReserve(512);
  ASSERT_TRUE(r.ok());
  MemoryReservation moved = std::move(r.value());
  EXPECT_FALSE(r.value().active());
  EXPECT_TRUE(moved.active());
  EXPECT_EQ(moved.bytes(), 512u);
  r.value().Release();  // releasing a moved-from token is a no-op
  EXPECT_EQ(device.bytes_reserved(), 512u);
  moved.Release();
  EXPECT_EQ(device.bytes_reserved(), 0u);
}

TEST(DeviceTest, PeakAllocationTracking) {
  Device device(SmallDevice());
  auto a = device.Allocate(BufferKind::kVertexBuffer, 400);
  ASSERT_TRUE(a.ok());
  auto b = device.Allocate(BufferKind::kVertexBuffer, 500);
  ASSERT_TRUE(b.ok());
  device.Free(a.value());
  device.Free(b.value());
  EXPECT_EQ(device.bytes_allocated(), 0u);
  EXPECT_EQ(device.peak_bytes_allocated(), 900u);
}

TEST(CountersTest, ResetClearsEverything) {
  Counters counters;
  counters.AddFragments(10);
  counters.AddPipTests(5);
  counters.AddBytesTransferred(100);
  counters.Reset();
  EXPECT_EQ(counters.fragments(), 0u);
  EXPECT_EQ(counters.pip_tests(), 0u);
  EXPECT_EQ(counters.bytes_transferred(), 0u);
}

TEST(CountersTest, ToStringContainsFields) {
  Counters counters;
  counters.AddFragments(42);
  const std::string s = counters.ToString();
  EXPECT_NE(s.find("fragments=42"), std::string::npos);
}

TEST(DeviceTest, SimulatedTransferHybridWaitStaysAccurate) {
  // The simulated PCIe wait sleeps through the bulk and spins only the
  // final slice (a pure busy-wait would pin the core BatchPipeline's
  // prefetch thread shares with the drawing thread). Regression: the hybrid
  // wait must neither undershoot the simulated duration nor overshoot it
  // by more than scheduler jitter.
  DeviceOptions options;
  options.memory_budget_bytes = 1 << 20;
  options.transfer_bandwidth_bytes_per_sec = 50.0e6;  // 1 MiB ≈ 21 ms
  Device device(options);
  auto buf = device.Allocate(BufferKind::kVertexBuffer, 1 << 20);
  ASSERT_TRUE(buf.ok());
  std::vector<std::uint8_t> src(1 << 20, 7);

  Timer timer;
  ASSERT_TRUE(device
                  .Upload(buf.value().get(), 0, src.size(),
                          [&](std::uint8_t* dst) {
                            std::memcpy(dst, src.data(), src.size());
                          })
                  .ok());
  const double elapsed = timer.ElapsedSeconds();
  const double expected = static_cast<double>(1 << 20) / 50.0e6;
  EXPECT_GE(elapsed, expected * 0.95);
  // Upper bound only guards against a grossly coarse wait (e.g. a whole
  // scheduler quantum per transfer); generous because loaded CI runners
  // can oversleep a single sleep_for by tens of milliseconds.
  EXPECT_LE(elapsed, expected + 0.25);
}

}  // namespace
}  // namespace rj::gpu
