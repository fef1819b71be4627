#include "gpu/device.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

namespace rj::gpu {

MemoryReservation::MemoryReservation(MemoryReservation&& other) noexcept
    : device_(other.device_), bytes_(other.bytes_) {
  other.device_ = nullptr;
  other.bytes_ = 0;
}

MemoryReservation& MemoryReservation::operator=(
    MemoryReservation&& other) noexcept {
  if (this != &other) {
    Release();
    device_ = other.device_;
    bytes_ = other.bytes_;
    other.device_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

MemoryReservation::~MemoryReservation() { Release(); }

void MemoryReservation::Release() {
  if (device_ != nullptr) {
    device_->ReleaseReservation(bytes_);
    device_ = nullptr;
    bytes_ = 0;
  }
}

Device::Device(DeviceOptions options)
    : options_(options), memory_budget_bytes_(options.memory_budget_bytes) {}

std::size_t Device::memory_budget_bytes() const {
  MutexLock lock(mutex_);
  return memory_budget_bytes_;
}

std::size_t Device::bytes_allocated() const {
  MutexLock lock(mutex_);
  return bytes_allocated_;
}

namespace {
// Clamp: the budget may have been shrunk below the used bytes, and an
// unsigned wrap here would report a near-infinite remainder (the joins'
// batch planner consumes bytes_free()).
std::size_t ClampedRemaining(std::size_t used, std::size_t budget) {
  return used >= budget ? 0 : budget - used;
}
}  // namespace

std::size_t Device::bytes_free() const {
  MutexLock lock(mutex_);
  return ClampedRemaining(bytes_allocated_, memory_budget_bytes_);
}

std::size_t Device::bytes_reserved() const {
  MutexLock lock(mutex_);
  return bytes_reserved_;
}

std::size_t Device::peak_bytes_allocated() const {
  MutexLock lock(mutex_);
  return peak_bytes_allocated_;
}

std::size_t Device::peak_bytes_reserved() const {
  MutexLock lock(mutex_);
  return peak_bytes_reserved_;
}

void Device::set_memory_budget_bytes(std::size_t bytes) {
  MutexLock lock(mutex_);
  memory_budget_bytes_ = bytes;
}

Result<std::shared_ptr<Buffer>> Device::Allocate(BufferKind kind,
                                                 std::size_t bytes) {
  {
    MutexLock lock(mutex_);
    if (bytes_allocated_ + bytes > memory_budget_bytes_) {
      return Status::CapacityError(
          "device memory budget exceeded: requested " + std::to_string(bytes) +
          " bytes with " +
          std::to_string(
              ClampedRemaining(bytes_allocated_, memory_budget_bytes_)) +
          " free");
    }
    bytes_allocated_ += bytes;
    peak_bytes_allocated_ = std::max(peak_bytes_allocated_, bytes_allocated_);
  }
  // Buffer construction (a host-RAM allocation) happens outside the lock;
  // roll the accounting back if the host is out of memory, or the charged
  // bytes would leak from the budget with no buffer to Free. The peak is
  // deliberately NOT rolled back: peaks are monotone lifetime high-water
  // marks (DeviceUtilization contract) — the bytes really were charged for
  // a moment, and lowering the mark here could make a later Utilization()
  // snapshot report a smaller peak than an earlier one.
  try {
    return std::make_shared<Buffer>(kind, bytes);
  } catch (const std::bad_alloc&) {
    MutexLock lock(mutex_);
    bytes_allocated_ -= bytes;
    return Status::CapacityError("host allocation of " +
                                 std::to_string(bytes) +
                                 " bytes for device buffer failed");
  }
}

void Device::Free(const std::shared_ptr<Buffer>& buffer) {
  assert(buffer != nullptr);
  MutexLock lock(mutex_);
  assert(bytes_allocated_ >= buffer->size());
  bytes_allocated_ -= buffer->size();
}

Result<MemoryReservation> Device::TryReserve(std::size_t bytes) {
  MutexLock lock(mutex_);
  if (bytes_reserved_ + bytes > memory_budget_bytes_) {
    return Status::CapacityError(
        "device budget cannot grant " + std::to_string(bytes) + " bytes: " +
        std::to_string(
            ClampedRemaining(bytes_reserved_, memory_budget_bytes_)) +
        " unreserved");
  }
  bytes_reserved_ += bytes;
  peak_bytes_reserved_ = std::max(peak_bytes_reserved_, bytes_reserved_);
  return MemoryReservation(this, bytes);
}

void Device::ReleaseReservation(std::size_t bytes) {
  MutexLock lock(mutex_);
  assert(bytes_reserved_ >= bytes);
  bytes_reserved_ -= bytes;
}

void Device::MeterTransfer(std::size_t bytes) {
  counters_.AddBytesTransferred(bytes);
  const double bw = options_.transfer_bandwidth_bytes_per_sec;
  if (bw <= 0.0) return;
  const double seconds = static_cast<double>(bytes) / bw;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(seconds));
  // Hybrid wait: sleep through the bulk of the simulated transfer and spin
  // only the final slice. A pure busy-wait would pin a hardware thread for
  // the whole transfer — with uploads running on join::BatchPipeline's
  // prefetch thread that would starve the drawing thread the overlap is
  // supposed to feed; a pure sleep is too coarse for small per-batch
  // transfers. The spin slice absorbs the scheduler's wakeup jitter.
  constexpr std::chrono::microseconds kSpinSlice(50);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return;
    const auto remaining = deadline - now;
    if (remaining > kSpinSlice) {
      std::this_thread::sleep_for(remaining - kSpinSlice);
    }
    // else: spin; the loop re-checks the clock until the deadline.
  }
}

}  // namespace rj::gpu
