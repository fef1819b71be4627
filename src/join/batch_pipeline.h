/// \file batch_pipeline.h
/// \brief Double-buffered host→device upload pipeline for the out-of-core
/// regime (§5, Figures 9/13).
///
/// The paper's out-of-core analysis assumes the host→device transfer of
/// point batch b+1 is hidden behind the draw of batch b. BatchPipeline
/// implements that overlap for the simulated device: a dedicated transfer
/// thread allocates the next batch's VBO and packs the interleaved
/// [x, y, col...] image straight into it through Device::Upload — which
/// meters the bytes and spends the simulated PCIe wait — while the
/// caller's thread draws the current batch. Each point byte is copied
/// once on its way to the device: a batch is a data::BlockView of the
/// source's own storage (the resident table, or a block file's mapping),
/// read in place by both the pack and the draw. Two device VBO slots
/// bound the look-ahead: at most batches b and b+1 are resident at once,
/// which is why admission plans (Executor::PlanAdmission) reserve 2× the
/// upload stride when overlap is enabled.
///
/// Results are bitwise independent of the overlap: batches are handed to
/// the consumer strictly in order and every draw runs on the consumer's
/// thread exactly as in the serialized path — the pipeline only moves
/// the transfer wait off the critical path. `overlap_transfers = false`
/// reproduces today's serialized transfer→draw timing (one buffer in
/// flight, uploads inline), which the paper-shape breakdown benches use as
/// the comparison baseline.
///
/// The pipeline streams the blocks of a ScanPlan (join_common.h) — one
/// device batch per block — and the consumer loops Acquire()/Release()
/// until Acquire returns nullopt, then calls Rewind() to re-stream every
/// block for the next tile pass (the threads survive across passes) or
/// Drain() when done. A resident table is scanned through the plan's
/// in-memory adapter (data::TableBlockSource), whose blocks are the planned
/// batch slices. When the source is disk-resident and transfers overlap,
/// the scan runs three-staged: a reader thread produces the view of block
/// b+2 (metered under phase::kDiskRead) while the transfer thread packs and
/// uploads block b+1 and the consumer draws block b. A fresh mapping's
/// page-ins therefore land in the pack, on the transfer thread. Three
/// slots cover the three stages, but a loading slot holds no device buffer
/// yet, so at most two VBOs are ever resident — the same 2× stride the
/// admission plan reserves for plain double buffering.
///
/// Error handling: the first failure (device allocation, upload) is
/// latched; batches that already made it to the device are still handed
/// out in order, and the error surfaces from Acquire when the consumer
/// reaches the batch that never became ready (and from Drain).
/// Memory pressure is not an error: when the budget cannot hold two
/// batches, the prefetcher waits for the in-flight batch to be drawn and
/// freed before allocating (AllocateWithBackoff) — double-buffering
/// degrades to serialized instead of failing a query that fits one batch.
/// The destructor always cancels and joins the transfer thread and frees
/// any slot buffers, so an error — or a consumer that stops mid-stream —
/// can never leak the thread or device memory.
///
/// Transfer time accounting: the wall time of allocate + pack + upload is
/// accumulated internally (the PhaseTimer API is not thread-safe) and
/// folded into phase::kTransfer by Drain(). With overlap on, that phase
/// reports the time *spent* transferring, which no longer adds to
/// end-to-end latency — exactly the paper's "transfer is hidden" claim the
/// Fig. 9 bench checks.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "data/point_block_source.h"
#include "gpu/device.h"
#include "join/join_common.h"

namespace rj::join {

class BatchPipeline {
 public:
  /// One uploaded batch, resident on the device until Release()d: `rows`
  /// views the batch's block in the source's own storage (for a resident
  /// table, a row window of it; for a block file, its mapping).
  struct BatchView {
    std::size_t index = 0;  ///< batch ordinal (ascending)
    data::BlockView rows;
  };

  /// Streams `scan.blocks` (ordinals into `scan.source`, ascending — the
  /// zone-map-selected scan list) as one device batch each, packing
  /// `columns` after x and y. The plan moves in, together with the table
  /// adapter it may own; a source it does not own must outlive the
  /// pipeline. Starts the transfer thread when `scan.overlap_transfers` is
  /// set and there is more than one batch, plus the disk reader thread for
  /// disk-resident sources.
  BatchPipeline(gpu::Device* device, ScanPlan scan,
                std::vector<std::size_t> columns);

  /// Cancels and joins the transfer thread, freeing any slot buffers.
  ~BatchPipeline();

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  /// Planned batch count per pass.
  std::size_t num_batches() const { return num_batches_; }

  /// Blocks until the next batch is resident on the device and returns its
  /// view; nullopt once every batch has been consumed. The caller
  /// must Release() the previous batch before the next Acquire(): under
  /// memory pressure the prefetcher waits for that free
  /// (AllocateWithBackoff), so holding a view while acquiring the next
  /// batch would deadlock when the budget fits only one batch. Asserted.
  [[nodiscard]] Result<std::optional<BatchView>> Acquire()
      RJ_EXCLUDES(mutex_);

  /// Marks the batch drawn; its slot becomes available to the prefetcher.
  void Release(const BatchView& view) RJ_EXCLUDES(mutex_);

  /// Restarts the scan from batch 0 for the next tile pass, once every
  /// batch of the current pass has been consumed and released. Keeps the
  /// transfer (and reader) thread alive — multi-tile joins re-stream the
  /// points without paying a thread spawn per tile. Returns the latched
  /// pipeline error, if any.
  Status Rewind() RJ_EXCLUDES(mutex_);

  /// Joins the transfer thread, folds the accumulated transfer wall time
  /// into `timing` under phase::kTransfer (once; pass nullptr to skip),
  /// and returns the first pipeline error. Idempotent.
  Status Drain(PhaseTimer* timing) RJ_EXCLUDES(mutex_);

 private:
  struct Slot {
    data::BlockView rows;  ///< the batch's block, in the source's storage
    std::shared_ptr<gpu::Buffer> vbo;
    std::size_t batch_index = 0;
    enum class State {
      kFree,     ///< available to the reader / prefetcher
      kLoading,  ///< disk-staged: reader thread viewing the block
      kLoaded,   ///< disk-staged: view ready, upload pending
      kReady,    ///< upload complete, awaiting (or drawn by) the consumer
    } state = State::kFree;
  };

  /// Allocates a slot's device buffer, backing off under memory pressure:
  /// when the budget cannot hold this batch *and* the previously uploaded
  /// one, waits for the consumer to draw and free that batch instead of
  /// failing — double-buffering degrades to serialized, it never turns a
  /// query that fits one batch into an error.
  Result<std::shared_ptr<gpu::Buffer>> AllocateWithBackoff(const Slot* slot,
                                                           std::size_t bytes)
      RJ_EXCLUDES(mutex_);

  /// Allocates the slot's VBO and packs the slot's rows straight into it
  /// (Device::Upload), accumulating the elapsed wall time into
  /// transfer_seconds_. Runs on the transfer thread (overlap) or the
  /// caller (serialized).
  Status UploadSlot(Slot* slot) RJ_EXCLUDES(mutex_);

  /// Views block ordinal `ordinal` of the scan list into `slot->rows`,
  /// accumulating disk wall time for disk-resident sources. Runs on the
  /// reader thread (three-stage), the transfer thread (two-stage), or the
  /// caller (serialized).
  Status ReadBlockInto(Slot* slot, std::size_t ordinal) RJ_EXCLUDES(mutex_);

  /// Upload stage: packs and uploads each block ahead of the consumer.
  void TransferLoop() RJ_EXCLUDES(mutex_);

  /// Disk stage of the three-stage pipeline: views blocks of the source
  /// into free slots ahead of the transfer thread.
  void ReaderLoop() RJ_EXCLUDES(mutex_);

  gpu::Device* device_;
  ScanPlan scan_;  ///< source, scan list (block ordinals), overlap request
  std::vector<std::size_t> columns_;
  std::size_t num_batches_ = 0;
  bool overlap_ = false;
  bool disk_staged_ = false;  ///< three-stage: dedicated disk reader thread

  /// 3 disk-staged, 2 with overlap, 1 serialized. NOT guarded by mutex_ —
  /// slot *payloads* (rows/vbo) move between threads by ownership
  /// handoff: exactly one stage owns a slot at a time, determined by its
  /// `state`, and every state transition happens under mutex_ (overlap
  /// mode), so the mutex acquisition orders the previous owner's payload
  /// writes before the next owner's reads. Serialized mode
  /// has a single thread and touches slots lock-free. The analysis cannot
  /// express per-element ownership, so the protocol is enforced by the
  /// asserts in the .cc and TSan instead.
  std::vector<Slot> slots_;
  std::size_t next_acquire_ = 0;   ///< consumer cursor
  bool view_outstanding_ = false;  ///< consumer-private: unreleased view
  /// Free generation: bumped (under mutex_) whenever the consumer returns
  /// a slot's device buffer (Release). AllocateWithBackoff waits for this
  /// to advance rather than for a slot to *be* kFree — the reader may
  /// reload the slot before the waiter re-acquires the mutex, but a
  /// counter advance can never be un-observed.
  std::uint64_t frees_ RJ_GUARDED_BY(mutex_) = 0;
  /// Completed-pass rewind count.
  std::size_t rewinds_ RJ_GUARDED_BY(mutex_) = 0;
  bool canceled_ RJ_GUARDED_BY(mutex_) = false;
  bool drained_ RJ_GUARDED_BY(mutex_) = false;

  mutable Mutex mutex_;
  CondVar cv_producer_;  ///< reader / transfer threads: slot freed or loaded
  CondVar cv_consumer_;  ///< consumer: upload finished/error
  Status error_ RJ_GUARDED_BY(mutex_) = Status::OK();
  double transfer_seconds_ RJ_GUARDED_BY(mutex_) = 0.0;
  /// Accumulated block read wall time.
  double disk_seconds_ RJ_GUARDED_BY(mutex_) = 0.0;

  std::thread thread_;
  std::thread reader_thread_;  ///< disk-staged only
};

}  // namespace rj::join
