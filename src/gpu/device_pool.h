/// \file device_pool.h
/// \brief A pool of simulated gpu::Device instances for sharded execution.
///
/// The paper runs on one GTX 1060; the ROADMAP north star is a service
/// whose datasets exceed any single device's memory and raster throughput.
/// DevicePool owns N independent Device instances — each with its own
/// memory budget, counters, and worker pool — so a ShardedTable can place
/// one shard per device and the Executor can scatter a query across them
/// (docs/SERVICE.md "Device pool and sharding").
///
/// The pool itself is mostly passive: placement is the Executor's job
/// (shard s runs on device s mod size()) and admission is QueryService's
/// (per-device MemoryReservation grants via TryReservePool). What the pool
/// provides is uniform construction, utilization snapshots for the
/// scheduler/stats plumbing, and the all-or-nothing PoolReservation that
/// keeps multi-device grants deadlock-free.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "gpu/counters.h"
#include "gpu/device.h"

namespace rj::gpu {

/// Configuration of an owned, homogeneous device pool.
struct DevicePoolOptions {
  /// Number of devices (≥ 1).
  std::size_t num_devices = 1;
  /// Per-device configuration, applied to every device. A homogeneous pool
  /// keeps canvas planning aligned across shards: PlanCanvas depends on
  /// max_fbo_dim, and sharded determinism requires every shard to rasterize
  /// on the same pixel grid.
  DeviceOptions device;
};

/// Point-in-time utilization of one pool device (ServiceStats plumbing).
/// Snapshots are pure reads: `peak_*` are monotone lifetime high-water
/// marks (Device contract) — an intervening snapshot never resets them, so
/// for two snapshots taken in order, `later.peak_* >= earlier.peak_*`
/// always holds (regression-tested in tests/gpu/device_pool_test.cc).
struct DeviceUtilization {
  std::size_t budget_bytes = 0;
  std::size_t allocated_bytes = 0;
  std::size_t reserved_bytes = 0;
  std::size_t peak_allocated_bytes = 0;
  std::size_t peak_reserved_bytes = 0;
  CountersSnapshot counters;
};

/// A fixed set of gpu::Device instances. Devices are constructed once and
/// never added/removed, so device(i) pointers are stable for the pool's
/// lifetime and may be used without synchronization (each Device is
/// internally thread-safe).
class DevicePool {
 public:
  /// Owned pool: constructs `options.num_devices` identical devices.
  explicit DevicePool(DevicePoolOptions options);

  /// Owned heterogeneous pool (tests; capacity-skewed deployments).
  explicit DevicePool(const std::vector<DeviceOptions>& per_device);

  /// Non-owning wrapper around externally-owned devices (the single-device
  /// QueryService and Executor constructors wrap their Device* this way).
  /// The devices must outlive the pool.
  explicit DevicePool(std::vector<Device*> external);

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  std::size_t size() const { return devices_.size(); }
  Device* device(std::size_t i) const { return devices_[i]; }
  /// Device 0: hosts one-shard datasets and gather-phase work.
  Device* primary() const { return devices_.front(); }

  /// True when every device shares one max_fbo_dim — the precondition for
  /// cross-shard canvas alignment (sharded Executor validates this).
  bool UniformFboLimit() const;

  /// Per-device utilization snapshot, in device order.
  std::vector<DeviceUtilization> Utilization() const;

  /// Counters summed across every device (pool-wide work).
  CountersSnapshot TotalCounters() const;

 private:
  std::vector<std::unique_ptr<Device>> owned_;
  std::vector<Device*> devices_;
};

/// RAII bundle of per-device admission grants for one query. Obtained from
/// TryReservePool; releases every grant on destruction. Like
/// MemoryReservation, this is an accounting ticket: Σ grants on a device ≤
/// its budget, so a pool-admitted query set can never oversubscribe any
/// device.
class PoolReservation {
 public:
  PoolReservation() = default;
  PoolReservation(PoolReservation&&) = default;
  PoolReservation& operator=(PoolReservation&&) = default;
  PoolReservation(const PoolReservation&) = delete;
  PoolReservation& operator=(const PoolReservation&) = delete;

  /// True when at least one per-device grant is held.
  [[nodiscard]] bool active() const;
  /// Total bytes held across every device.
  [[nodiscard]] std::size_t total_bytes() const;
  /// Bytes held on device i (0 when the query places nothing there).
  [[nodiscard]] std::size_t bytes_on(std::size_t i) const {
    return i < grants_.size() ? grants_[i].bytes() : 0;
  }

  /// Releases every per-device grant (idempotent). Takes each device's
  /// internal (leaf) mutex in turn — never call while holding any lock
  /// above Device in the hierarchy except QueryService::mutex_, whose
  /// mutex_ → device-mutex order is the documented one.
  void Release();

 private:
  friend Result<PoolReservation> TryReservePool(
      DevicePool* pool, const std::vector<std::size_t>& bytes_per_device);
  /// Single-owner move-only state: no mutex. A PoolReservation is handed
  /// between threads only with external happens-before (the service queue),
  /// never shared; the thread-safety lives inside each MemoryReservation's
  /// Device.
  std::vector<MemoryReservation> grants_;
};

/// All-or-nothing reservation across the pool: grants bytes_per_device[i]
/// on device i (entries of 0 are skipped). On any device's CapacityError
/// the grants already acquired are released before returning, so a query
/// never holds a partial multi-device grant — the hold-and-wait ingredient
/// of admission deadlock between concurrent queries. `bytes_per_device`
/// must not be longer than the pool.
[[nodiscard]] Result<PoolReservation> TryReservePool(
    DevicePool* pool, const std::vector<std::size_t>& bytes_per_device);

}  // namespace rj::gpu
