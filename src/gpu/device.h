/// \file device.h
/// \brief Simulated graphics device: bounded memory, metered transfers and
/// work counters. Draw calls run on the calling thread.
///
/// It stands in for the paper's GPU (README.md). The device enforces the two
/// GPU constraints the paper's algorithms are designed around:
///  1. bounded device memory → out-of-core point batching (§5), and
///  2. a maximum FBO resolution → multi-canvas tiling for small ε (Fig. 5).
/// Host→device uploads go through CopyToDevice(), which both meters bytes
/// (gpu::Counters) and spends real wall time proportional to a configurable
/// bandwidth, so transfer/compute breakdowns have the paper's shape.
///
/// Thread-safety contract (docs/SERVICE.md): a Device may be shared by
/// concurrent queries. Allocation, freeing, reservation, and budget
/// queries are serialized on an internal mutex; transfers touch only the
/// caller-owned buffer plus atomic counters, so they run without a lock.
/// Admission layers (rj::QueryService) carve the budget into per-query
/// grants with TryReserve() before dispatching, so concurrent queries'
/// allocations can never oversubscribe `memory_budget_bytes`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "gpu/buffer.h"
#include "gpu/counters.h"

namespace rj::gpu {

/// Configuration of the simulated device.
struct DeviceOptions {
  /// Device memory budget in bytes (paper limits the GTX 1060 to 3 GB).
  /// Benches shrink this to force out-of-core batching at reduced scale.
  std::size_t memory_budget_bytes = 512ull << 20;

  /// Maximum FBO side length in pixels (paper: 8192).
  std::int32_t max_fbo_dim = 8192;

  /// Simulated host→device bandwidth in bytes/second. Transfers wait a
  /// proportional amount (hybrid sleep+spin, so a prefetch thread does not
  /// pin a core the drawing thread needs) so phase breakdowns are realistic.
  /// 0 disables the wait (bytes are still metered).
  double transfer_bandwidth_bytes_per_sec = 0.0;

  /// Read by nothing: every draw call runs on the calling thread, and the
  /// work counters do not depend on how many threads draw. Kept only
  /// because the benchmark harness still assigns it.
  std::size_t num_workers = 0;
};

class Device;

/// RAII admission grant against a Device's memory budget. Obtained from
/// Device::TryReserve; releases its bytes on destruction (or Release()).
/// A reservation is an accounting ticket for an admission controller, not
/// backing store: the holder promises its concurrent Allocate() peak stays
/// within the granted bytes, and because every admitted query holds such a
/// ticket and Σ grants ≤ budget, the device can never oversubscribe.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  MemoryReservation(MemoryReservation&& other) noexcept;
  MemoryReservation& operator=(MemoryReservation&& other) noexcept;
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  ~MemoryReservation();

  /// True when this token holds bytes against a device.
  [[nodiscard]] bool active() const { return device_ != nullptr; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

  /// Returns the granted bytes to the device budget (idempotent).
  void Release();

 private:
  friend class Device;
  MemoryReservation(Device* device, std::size_t bytes)
      : device_(device), bytes_(bytes) {}

  Device* device_ = nullptr;
  std::size_t bytes_ = 0;
};

/// A simulated graphics device instance.
class Device {
 public:
  explicit Device(DeviceOptions options = {});

  /// Construction-time configuration. `options().memory_budget_bytes` is
  /// the initial budget; the live (possibly resized) value is
  /// memory_budget_bytes().
  const DeviceOptions& options() const { return options_; }
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// Current budget (thread-safe; see set_memory_budget_bytes).
  std::size_t memory_budget_bytes() const RJ_EXCLUDES(mutex_);

  std::size_t bytes_allocated() const RJ_EXCLUDES(mutex_);
  /// Remaining budget, clamped at zero: shrinking the budget below the
  /// allocated bytes (tests do this to force the out-of-core regime) must
  /// not wrap around to a huge value.
  std::size_t bytes_free() const RJ_EXCLUDES(mutex_);

  /// Bytes currently promised to admitted-but-possibly-running queries.
  std::size_t bytes_reserved() const RJ_EXCLUDES(mutex_);

  /// High-water marks since construction (admission-test observability).
  /// Monotone for the device's lifetime: reading them (here or via
  /// DevicePool::Utilization snapshots) never resets them, and no code
  /// path lowers them — two snapshots taken in order always satisfy
  /// `later.peak_* >= earlier.peak_*`.
  std::size_t peak_bytes_allocated() const RJ_EXCLUDES(mutex_);
  std::size_t peak_bytes_reserved() const RJ_EXCLUDES(mutex_);

  /// Shrinks/grows the budget at runtime (tests; capacity reconfiguration).
  /// Existing allocations and reservations are not revoked; a budget below
  /// the allocated bytes simply reports zero free until frees catch up.
  void set_memory_budget_bytes(std::size_t bytes) RJ_EXCLUDES(mutex_);

  /// Allocates a device buffer; CapacityError when the budget is exceeded
  /// (the trigger for out-of-core batching in the executor). Thread-safe.
  Result<std::shared_ptr<Buffer>> Allocate(BufferKind kind, std::size_t bytes)
      RJ_EXCLUDES(mutex_);

  /// Releases a buffer's reservation. The buffer must have come from this
  /// device; double-free is a programming error (assert). Thread-safe.
  void Free(const std::shared_ptr<Buffer>& buffer) RJ_EXCLUDES(mutex_);

  /// Grants `bytes` of the budget to an admission controller, or
  /// CapacityError when the unreserved budget is smaller (the caller
  /// queues and retries after another grant releases — it must not treat
  /// this as query failure). Thread-safe. Discarding the Result would
  /// either leak the grant until the temporary dies or silently drop a
  /// CapacityError, so it is a compile error.
  [[nodiscard]] Result<MemoryReservation> TryReserve(std::size_t bytes)
      RJ_EXCLUDES(mutex_);

  /// Copies host memory into a device buffer at `offset`, metering bytes
  /// and (optionally) spending bandwidth-proportional wall time.
  Status CopyToDevice(Buffer* dst, std::size_t offset, const void* src,
                      std::size_t bytes);

  /// Copies device memory back to the host (result readback; also metered).
  Status CopyToHost(const Buffer* src, std::size_t offset, void* dst,
                    std::size_t bytes);

  /// Largest number of points (each `point_bytes` wide) that fits in the
  /// remaining budget — the executor's batch-size planner.
  std::size_t MaxResidentElements(std::size_t point_bytes) const
      RJ_EXCLUDES(mutex_);

 private:
  friend class MemoryReservation;
  void ReleaseReservation(std::size_t bytes) RJ_EXCLUDES(mutex_);

  void SimulateTransferTime(std::size_t bytes);

  DeviceOptions options_;
  Counters counters_;

  /// Guards the budget accounting below. `options_` itself stays immutable
  /// after construction so options() can be read without synchronization.
  /// Leaf lock in the repo-wide hierarchy (docs/CONCURRENCY.md): nothing
  /// else is ever acquired while it is held.
  mutable Mutex mutex_;
  std::size_t memory_budget_bytes_ RJ_GUARDED_BY(mutex_) = 0;
  std::size_t bytes_allocated_ RJ_GUARDED_BY(mutex_) = 0;
  std::size_t bytes_reserved_ RJ_GUARDED_BY(mutex_) = 0;
  std::size_t peak_bytes_allocated_ RJ_GUARDED_BY(mutex_) = 0;
  std::size_t peak_bytes_reserved_ RJ_GUARDED_BY(mutex_) = 0;
};

}  // namespace rj::gpu
