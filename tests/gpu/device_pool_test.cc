/// \file device_pool_test.cc
/// \brief gpu::DevicePool construction, utilization snapshots, and
/// all-or-nothing pool reservations.
#include "gpu/device_pool.h"

#include <gtest/gtest.h>

namespace rj::gpu {
namespace {

DevicePoolOptions PoolOf(std::size_t n, std::size_t budget) {
  DevicePoolOptions options;
  options.num_devices = n;
  options.device.memory_budget_bytes = budget;
  return options;
}

TEST(DevicePoolTest, OwnsIndependentDevices) {
  DevicePool pool(PoolOf(3, 1 << 20));
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.primary(), pool.device(0));
  EXPECT_NE(pool.device(0), pool.device(1));

  // Budgets are independent: allocating on one device leaves the others
  // untouched.
  auto buf = pool.device(1)->Allocate(BufferKind::kVertexBuffer, 1024);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(pool.device(0)->bytes_allocated(), 0u);
  EXPECT_EQ(pool.device(1)->bytes_allocated(), 1024u);
  EXPECT_EQ(pool.device(2)->bytes_allocated(), 0u);
  pool.device(1)->Free(buf.value());
}

TEST(DevicePoolTest, ZeroDevicesClampsToOne) {
  DevicePool pool(PoolOf(0, 1 << 20));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(DevicePoolTest, HeterogeneousAndUniformFboLimits) {
  DeviceOptions small;
  small.max_fbo_dim = 1024;
  DeviceOptions big;
  big.max_fbo_dim = 4096;
  DevicePool mixed(std::vector<DeviceOptions>{small, big});
  EXPECT_FALSE(mixed.UniformFboLimit());
  DevicePool uniform(std::vector<DeviceOptions>{small, small});
  EXPECT_TRUE(uniform.UniformFboLimit());
}

TEST(DevicePoolTest, NonOwningWrapKeepsIdentity) {
  Device device;
  DevicePool pool(std::vector<Device*>{&device});
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.primary(), &device);
}

TEST(DevicePoolTest, EmptyNonOwningWrapFallsBackToOneDevice) {
  DevicePool pool(std::vector<Device*>{});
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_NE(pool.primary(), nullptr);
}

TEST(DevicePoolTest, UtilizationSnapshotsPerDevice) {
  DevicePool pool(PoolOf(2, 1 << 20));
  auto grant = pool.device(1)->TryReserve(4096);
  ASSERT_TRUE(grant.ok());

  const std::vector<DeviceUtilization> u = pool.Utilization();
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u[0].budget_bytes, std::size_t{1} << 20);
  EXPECT_EQ(u[0].reserved_bytes, 0u);
  EXPECT_EQ(u[1].reserved_bytes, 4096u);
  EXPECT_EQ(u[1].peak_reserved_bytes, 4096u);
}

TEST(DevicePoolTest, UtilizationPeaksAreMonotoneAcrossSnapshots) {
  // Regression lock for the peak-accounting contract: peak_allocated /
  // peak_reserved are monotone *lifetime* high-water marks. An intervening
  // snapshot read must not reset them, and later activity below the old
  // peak must not lower them — a second snapshot is always >= the first,
  // field by field, even after the high allocation is long gone.
  DevicePool pool(PoolOf(1, 1 << 20));
  Device* dev = pool.device(0);

  auto big = dev->Allocate(BufferKind::kVertexBuffer, 512 << 10);
  ASSERT_TRUE(big.ok());
  auto big_grant = dev->TryReserve(256 << 10);
  ASSERT_TRUE(big_grant.ok());

  const DeviceUtilization first = pool.Utilization()[0];
  EXPECT_EQ(first.allocated_bytes, std::size_t{512} << 10);
  EXPECT_EQ(first.peak_allocated_bytes, std::size_t{512} << 10);
  EXPECT_EQ(first.reserved_bytes, std::size_t{256} << 10);
  EXPECT_EQ(first.peak_reserved_bytes, std::size_t{256} << 10);

  // Drop the high-water usage, then run far below it.
  dev->Free(big.value());
  big_grant.value().Release();
  auto small = dev->Allocate(BufferKind::kVertexBuffer, 64 << 10);
  ASSERT_TRUE(small.ok());
  auto small_grant = dev->TryReserve(16 << 10);
  ASSERT_TRUE(small_grant.ok());

  const DeviceUtilization second = pool.Utilization()[0];
  EXPECT_EQ(second.allocated_bytes, std::size_t{64} << 10);
  EXPECT_EQ(second.reserved_bytes, std::size_t{16} << 10);
  // Monotone: the first snapshot's read did not reset the peaks, and the
  // smaller second-phase usage did not lower them.
  EXPECT_GE(second.peak_allocated_bytes, first.peak_allocated_bytes);
  EXPECT_GE(second.peak_reserved_bytes, first.peak_reserved_bytes);
  EXPECT_EQ(second.peak_allocated_bytes, std::size_t{512} << 10);
  EXPECT_EQ(second.peak_reserved_bytes, std::size_t{256} << 10);
  dev->Free(small.value());
}

TEST(DevicePoolTest, TotalCountersSumAcrossDevices) {
  DevicePool pool(PoolOf(2, 1 << 20));
  pool.device(0)->counters().AddFragments(10);
  pool.device(1)->counters().AddFragments(5);
  pool.device(1)->counters().AddBatches(2);
  const CountersSnapshot total = pool.TotalCounters();
  EXPECT_EQ(total.fragments, 15u);
  EXPECT_EQ(total.batches, 2u);
}

TEST(PoolReservationTest, GrantsPerDeviceAndReleasesAll) {
  DevicePool pool(PoolOf(3, 1 << 20));
  auto grant = TryReservePool(&pool, {1024, 0, 2048});
  ASSERT_TRUE(grant.ok());
  EXPECT_TRUE(grant.value().active());
  EXPECT_EQ(grant.value().total_bytes(), 3072u);
  EXPECT_EQ(grant.value().bytes_on(0), 1024u);
  EXPECT_EQ(grant.value().bytes_on(1), 0u);
  EXPECT_EQ(grant.value().bytes_on(2), 2048u);
  EXPECT_EQ(pool.device(0)->bytes_reserved(), 1024u);
  EXPECT_EQ(pool.device(2)->bytes_reserved(), 2048u);

  grant.value().Release();
  EXPECT_FALSE(grant.value().active());
  EXPECT_EQ(pool.device(0)->bytes_reserved(), 0u);
  EXPECT_EQ(pool.device(2)->bytes_reserved(), 0u);
}

TEST(PoolReservationTest, ReleaseOnDestruction) {
  DevicePool pool(PoolOf(2, 1 << 20));
  {
    auto grant = TryReservePool(&pool, {512, 512});
    ASSERT_TRUE(grant.ok());
    EXPECT_EQ(pool.device(0)->bytes_reserved(), 512u);
  }
  EXPECT_EQ(pool.device(0)->bytes_reserved(), 0u);
  EXPECT_EQ(pool.device(1)->bytes_reserved(), 0u);
}

TEST(PoolReservationTest, AllOrNothingOnCapacityError) {
  DevicePool pool(PoolOf(3, 1 << 20));
  // Device 2 cannot hold 2 MB: the whole reservation must fail and the
  // grants already taken on devices 0 and 1 must be returned.
  auto grant = TryReservePool(&pool, {1024, 1024, 2u << 20});
  EXPECT_FALSE(grant.ok());
  EXPECT_EQ(pool.device(0)->bytes_reserved(), 0u);
  EXPECT_EQ(pool.device(1)->bytes_reserved(), 0u);
  EXPECT_EQ(pool.device(2)->bytes_reserved(), 0u);
}

TEST(PoolReservationTest, TooManyDevicesIsError) {
  DevicePool pool(PoolOf(1, 1 << 20));
  EXPECT_FALSE(TryReservePool(&pool, {10, 10}).ok());
}

}  // namespace
}  // namespace rj::gpu
