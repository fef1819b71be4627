#include "join/batch_pipeline.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <utility>

namespace rj::join {

namespace {
// Retry budget for capacity pressure none of our own buffers can relieve
// (a concurrent query on a shared device): one immediate retry, then
// sleeps of 2/4/8/16/32 ms before latching CapacityError.
constexpr int kMaxTransientRetries = 6;
}  // namespace

BatchPipeline::BatchPipeline(gpu::Device* device, ScanPlan scan,
                             std::vector<std::size_t> columns)
    : device_(device), scan_(std::move(scan)), columns_(std::move(columns)) {
  num_batches_ = scan_.blocks.size();
  // A single batch has nothing to prefetch behind it; stay serialized and
  // keep the working set at one buffer (full_bytes in the admission plan).
  overlap_ = scan_.overlap_transfers && num_batches_ > 1;
  // Disk-resident sources add the third stage: a reader thread views
  // block b+2 while block b+1 uploads and block b draws. The extra slot
  // never holds a device buffer while loading, so the resident VBO count
  // stays ≤ 2 — the same working set the admission plan reserves for
  // plain double buffering.
  disk_staged_ = overlap_ && scan_.source->disk_resident();
  slots_.resize(disk_staged_ ? 3 : (overlap_ ? 2 : 1));
  if (overlap_) {
    thread_ = std::thread([this] { TransferLoop(); });
  }
  if (disk_staged_) {
    reader_thread_ = std::thread([this] { ReaderLoop(); });
  }
}

BatchPipeline::~BatchPipeline() {
  // Destructor cannot propagate the drain status; callers that care call
  // Drain() themselves first (the executor paths all do).
  (void)Drain(nullptr);
}

Result<std::shared_ptr<gpu::Buffer>> BatchPipeline::AllocateWithBackoff(
    const Slot* slot, std::size_t bytes) {
  int transient_retries = 0;
  for (;;) {
    Result<std::shared_ptr<gpu::Buffer>> vbo =
        device_->Allocate(gpu::BufferKind::kVertexBuffer, bytes);
    if (vbo.ok() || vbo.status().code() != StatusCode::kCapacityError) {
      return vbo;
    }
    if (bytes > device_->memory_budget_bytes()) {
      return vbo;  // can never fit, no matter what gets freed
    }
    // Memory pressure while the previously uploaded batch is still
    // resident (double-buffering needs 2× the batch bytes): degrade to
    // serialized — wait for the consumer to draw and free that batch,
    // then retry. Progress beats prefetch.
    {
      MutexLock lock(mutex_);
      if (canceled_) return vbo;
      bool ours_resident = false;
      for (const Slot& s : slots_) {
        if (&s != slot && s.state == Slot::State::kReady) {
          ours_resident = true;
          break;
        }
      }
      if (ours_resident) {
        // Wait on the free *generation*, not on the neighbor slot reaching
        // kFree: once the consumer frees the buffer, the disk reader may
        // take the slot for the next block (kFree → kLoading) before this
        // waiter re-acquires the mutex, so a state predicate can miss the
        // kFree window entirely and wait forever while the consumer blocks
        // on this very upload. The counter only moves forward, so the
        // freed buffer is observed no matter how far the state has moved
        // on.
        const std::uint64_t observed = frees_;
        while (!canceled_ && frees_ <= observed) cv_producer_.Wait(lock);
        if (canceled_) return vbo;
        transient_retries = 0;
        continue;
      }
      // None of our buffers is resident — the neighbor slots are empty or
      // merely loading behind this very upload — so no consumer progress
      // can return memory to us. The pressure is a concurrent query on a
      // shared device: retry with a bounded backoff so a transient
      // neighbor allocation degrades throughput instead of failing the
      // stream.
      if (transient_retries >= kMaxTransientRetries) return vbo;
      ++transient_retries;
    }
    if (transient_retries > 1) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1u << (transient_retries - 1)));
    }
  }
}

Status BatchPipeline::UploadSlot(Slot* slot) {
  Timer timer;
  const data::BlockView& rows = slot->rows;
  // Stride from the layout's single definition, so the packed/metered
  // bytes can never drift from what PlanUpload/PlanAdmission reserve.
  const std::size_t bytes = rows.size * UploadStrideBytes(columns_);
  Status status = Status::OK();
  if (bytes > 0) {
    Result<std::shared_ptr<gpu::Buffer>> vbo =
        AllocateWithBackoff(slot, bytes);
    if (vbo.ok()) {
      slot->vbo = std::move(vbo).MoveValueUnsafe();
      // Pack the interleaved [x, y, col...] float32 image straight from the
      // block's storage into the VBO: the only host pass over the batch.
      // The byte stores may alias any heap object, so the loop's bounds and
      // column pointers are copied into locals first; read through `rows`
      // or `columns_`, they would be reloaded after every store.
      std::vector<const float*> cols;
      cols.reserve(columns_.size());
      for (const std::size_t c : columns_) cols.push_back(rows.attrs[c]);
      status = device_->Upload(
          slot->vbo.get(), 0, bytes, [&](std::uint8_t* out) {
            const double* xs = rows.xs;
            const double* ys = rows.ys;
            const float* const* col = cols.data();
            const std::size_t n = rows.size;
            const std::size_t k = cols.size();
            const auto put = [&out](float v) {
              std::memcpy(out, &v, sizeof(v));
              out += sizeof(v);
            };
            for (std::size_t i = 0; i < n; ++i) {
              put(static_cast<float>(xs[i]));
              put(static_cast<float>(ys[i]));
              for (std::size_t j = 0; j < k; ++j) put(col[j][i]);
            }
          });
      if (!status.ok()) {
        device_->Free(slot->vbo);
        slot->vbo.reset();
      }
    } else {
      status = vbo.status();
    }
  }
  {
    MutexLock lock(mutex_);
    transfer_seconds_ += timer.ElapsedSeconds();
  }
  return status;
}

Status BatchPipeline::ReadBlockInto(Slot* slot, std::size_t ordinal) {
  Timer timer;
  Result<data::BlockView> view =
      scan_.source->ViewBlock(scan_.blocks[ordinal]);
  // Transfer time and disk time are separate phases: only disk-resident
  // sources spend wall time here worth reporting (the in-memory adapter's
  // ViewBlock is a pointer adjustment).
  if (scan_.source->disk_resident()) {
    MutexLock lock(mutex_);
    disk_seconds_ += timer.ElapsedSeconds();
  }
  if (!view.ok()) return view.status();
  slot->rows = std::move(view).MoveValueUnsafe();
  return Status::OK();
}

void BatchPipeline::ReaderLoop() {
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t b = 0; b < num_batches_; ++b) {
      Slot& slot = slots_[b % slots_.size()];
      {
        MutexLock lock(mutex_);
        while (!canceled_ && slot.state != Slot::State::kFree) {
          cv_producer_.Wait(lock);
        }
        if (canceled_) return;
        slot.state = Slot::State::kLoading;
      }
      const Status status = ReadBlockInto(&slot, b);
      {
        MutexLock lock(mutex_);
        if (!status.ok()) {
          error_ = status;
          // Both downstream stages must observe the latch: the consumer
          // waits on cv_consumer_, the transfer thread on cv_producer_.
          cv_consumer_.NotifyAll();
          cv_producer_.NotifyAll();
          return;
        }
        slot.batch_index = b;
        slot.state = Slot::State::kLoaded;
        cv_producer_.NotifyAll();  // the transfer thread waits here too
      }
    }
    // Pass complete. Park until the consumer rewinds for the next tile
    // pass (or drains) — the thread stays warm across passes.
    MutexLock lock(mutex_);
    while (!canceled_ && rewinds_ <= pass) cv_producer_.Wait(lock);
    if (canceled_) return;
  }
}

void BatchPipeline::TransferLoop() {
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t b = 0; b < num_batches_; ++b) {
      Slot& slot = slots_[b % slots_.size()];
      if (disk_staged_) {
        // Three-stage: wait for the reader thread to hand over the block's
        // view (mutex acquisition orders its write of `rows` before the
        // pack below).
        MutexLock lock(mutex_);
        while (!canceled_ && error_.ok() &&
               !(slot.state == Slot::State::kLoaded &&
                 slot.batch_index == b)) {
          cv_producer_.Wait(lock);
        }
        if (canceled_ || !error_.ok()) return;
      } else {
        {
          MutexLock lock(mutex_);
          while (!canceled_ && slot.state != Slot::State::kFree) {
            cv_producer_.Wait(lock);
          }
          if (canceled_) return;
        }
        const Status status = ReadBlockInto(&slot, b);
        if (!status.ok()) {
          MutexLock lock(mutex_);
          error_ = status;
          cv_consumer_.NotifyAll();
          return;
        }
      }
      const Status status = UploadSlot(&slot);
      {
        MutexLock lock(mutex_);
        if (!status.ok()) {
          error_ = status;
          cv_consumer_.NotifyAll();
          cv_producer_.NotifyAll();  // wake the disk reader too
          return;
        }
        slot.batch_index = b;
        slot.state = Slot::State::kReady;
        cv_consumer_.NotifyAll();
      }
    }
    // Pass complete. Park until the consumer rewinds for the next tile
    // pass (or drains) — the thread stays warm across passes.
    MutexLock lock(mutex_);
    while (!canceled_ && rewinds_ <= pass) cv_producer_.Wait(lock);
    if (canceled_) return;
  }
}

Result<std::optional<BatchPipeline::BatchView>> BatchPipeline::Acquire() {
  // Holding a view starves AllocateWithBackoff when the budget fits only
  // one batch: the prefetcher waits for a free only Release can produce.
  assert(!view_outstanding_ && "Release the previous batch before Acquire");
  if (next_acquire_ >= num_batches_) {
    return std::optional<BatchView>();
  }
  Slot& slot = slots_[next_acquire_ % slots_.size()];
  if (!overlap_) {
    assert(slot.state == Slot::State::kFree && "Release the previous batch");
    RJ_RETURN_NOT_OK(ReadBlockInto(&slot, next_acquire_));
    RJ_RETURN_NOT_OK(UploadSlot(&slot));
    slot.batch_index = next_acquire_;
    slot.state = Slot::State::kReady;
    view_outstanding_ = true;
    return std::optional<BatchView>(BatchView{next_acquire_++, slot.rows});
  }
  MutexLock lock(mutex_);
  while (error_.ok() && !(slot.state == Slot::State::kReady &&
                          slot.batch_index == next_acquire_)) {
    cv_consumer_.Wait(lock);
  }
  // A batch that made it to the device is consumable even when a *later*
  // prefetch already failed; the error surfaces when the consumer reaches
  // the batch that never became ready.
  if (slot.state == Slot::State::kReady &&
      slot.batch_index == next_acquire_) {
    ++next_acquire_;
    view_outstanding_ = true;
    return std::optional<BatchView>(BatchView{slot.batch_index, slot.rows});
  }
  return error_;
}

void BatchPipeline::Release(const BatchView& view) {
  view_outstanding_ = false;
  Slot& slot = slots_[view.index % slots_.size()];
  // Free before flipping the state: the prefetcher touches the slot only
  // after observing kFree under the mutex.
  if (slot.vbo != nullptr) {
    device_->Free(slot.vbo);
    slot.vbo.reset();
  }
  if (overlap_) {
    MutexLock lock(mutex_);
    slot.state = Slot::State::kFree;
    ++frees_;
    cv_producer_.NotifyAll();
  } else {
    slot.state = Slot::State::kFree;
  }
}

Status BatchPipeline::Rewind() {
  assert(next_acquire_ >= num_batches_ && "Rewind mid-pass");
  assert(!view_outstanding_ && "Release the final batch before Rewind");
  next_acquire_ = 0;
  if (!overlap_) return Status::OK();  // serialized: uploads happen inline
  MutexLock lock(mutex_);
  if (!error_.ok()) return error_;
  ++rewinds_;
  cv_producer_.NotifyAll();
  return Status::OK();
}

Status BatchPipeline::Drain(PhaseTimer* timing) {
  {
    MutexLock lock(mutex_);
    canceled_ = true;
    cv_producer_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  if (reader_thread_.joinable()) reader_thread_.join();
  // Free whatever is still resident: a prefetched-but-unconsumed batch, or
  // the buffer of a batch the consumer abandoned mid-draw.
  for (Slot& slot : slots_) {
    if (slot.vbo != nullptr) {
      device_->Free(slot.vbo);
      slot.vbo.reset();
    }
    slot.rows = data::BlockView();
    slot.state = Slot::State::kFree;
  }
  MutexLock lock(mutex_);
  if (timing != nullptr && !drained_) {
    timing->Add(phase::kTransfer, transfer_seconds_);
    if (disk_seconds_ > 0.0) {
      timing->Add(phase::kDiskRead, disk_seconds_);
    }
  }
  drained_ = true;
  return error_;
}

}  // namespace rj::join
