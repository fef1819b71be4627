/// \file streaming_join.h
/// \brief Streaming variants of the raster joins for disk-resident data
/// (§5 "Out-of-Core Processing", §7.7).
///
/// When points arrive in host batches (streamed from the column store),
/// the polygon side of the join must not be repeated per batch: points
/// accumulate into the canvas FBO(s) batch by batch, and the polygon pass
/// runs exactly once at the end. "Thus, a given point data set has to be
/// transferred to the GPU exactly once."
///
/// Usage:
///   StreamingBoundedJoin join(device, &polys, &soup, world, options);
///   RJ_RETURN_NOT_OK(join.Init());
///   while (reader.NextBatch(..., &batch)) RJ_RETURN_NOT_OK(join.AddBatch(batch));
///   RJ_ASSIGN_OR_RETURN(JoinResult result, join.Finish());
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/device.h"
#include "index/grid_index.h"
#include "join/batch_pipeline.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "raster/fbo.h"
#include "raster/viewport.h"

namespace rj {

/// Streaming bounded raster join: per-tile FBOs stay resident across
/// batches; Finish() runs the polygon pass per tile and merges.
///
/// With options.overlap_transfers (default) the upload pipeline keeps the
/// current and previous batch resident on the device (2× the largest
/// pushed batch in flight). When the device cannot hold both, the
/// prefetcher waits for the drawn batch's buffer instead of failing
/// (BatchPipeline::AllocateWithBackoff) — throughput degrades to the
/// serialized 1× behavior, results are unchanged.
class StreamingBoundedJoin {
 public:
  /// Neither polys nor soup are copied; both must outlive this object.
  StreamingBoundedJoin(gpu::Device* device, const PolygonSet* polys,
                       const TriangleSoup* soup, const BBox& world,
                       BoundedRasterJoinOptions options);
  ~StreamingBoundedJoin();

  /// Plans the canvas and allocates the tile FBOs (all tiles stay live —
  /// the memory trade for touching each point once).
  Status Init();

  /// Draws one batch of points into every tile. With
  /// options.overlap_transfers (default), batch b's host→device transfer
  /// runs on the pipeline's prefetch thread while batch b-1 draws, so the
  /// draw of `batch` itself completes during the *next* AddBatch/Finish.
  Status AddBatch(const PointTable& batch);

  /// Streams every zone-map-selected block of `source` through AddBatch
  /// (one batch per block; block reads of disk-resident sources are
  /// metered under phase::kDiskRead). Pruning uses the options' filters
  /// and the canvas world, so results equal streaming every block.
  Status AddSource(const data::PointBlockSource& source);

  /// Runs the polygon pass over every tile and returns the result.
  /// The instance cannot be reused afterwards.
  Result<JoinResult> Finish();

  /// Attaches a dataset-version counter (Executor::dataset_version_counter)
  /// that every successful AddBatch bumps: a streaming append changes the
  /// dataset, so result-cache entries keyed on the previous version must
  /// stop matching. Optional; not synchronized — attach before streaming.
  void set_version_counter(std::atomic<std::uint64_t>* counter) {
    version_counter_ = counter;
  }

  std::size_t num_tiles() const { return tiles_.size(); }
  std::uint64_t points_drawn() const { return points_drawn_; }

 private:
  /// Draws one uploaded batch into every tile FBO (the pipeline's
  /// prefetch thread transfers the next batch meanwhile).
  void DrawBatch(const PointTable& batch);

  gpu::Device* device_;
  const PolygonSet* polys_;
  const TriangleSoup* soup_;
  BBox world_;
  BoundedRasterJoinOptions options_;

  std::vector<raster::CanvasTile> tiles_;
  std::vector<std::unique_ptr<raster::Fbo>> fbos_;
  std::unique_ptr<join::BatchPipeline> pipeline_;
  std::atomic<std::uint64_t>* version_counter_ = nullptr;
  JoinResult result_;
  std::uint64_t points_drawn_ = 0;
  bool initialized_ = false;
  bool finished_ = false;
};

/// Streaming accurate raster join: Init() prepares the canvas (boundary
/// mask and grid index, PrepareAccurateCanvas) once; AddBatch() classifies
/// points (fast raster path vs exact PIP path); Finish() runs the polygon
/// pass.
class StreamingAccurateJoin {
 public:
  StreamingAccurateJoin(gpu::Device* device, const PolygonSet* polys,
                        const TriangleSoup* soup, const BBox& world,
                        AccurateRasterJoinOptions options);
  ~StreamingAccurateJoin();

  Status Init();
  /// Like StreamingBoundedJoin::AddBatch: the batch's transfer is started
  /// here and its processing happens while the *next* batch transfers.
  Status AddBatch(const PointTable& batch);
  /// See StreamingBoundedJoin::AddSource.
  Status AddSource(const data::PointBlockSource& source);
  Result<JoinResult> Finish();

  /// See StreamingBoundedJoin::set_version_counter.
  void set_version_counter(std::atomic<std::uint64_t>* counter) {
    version_counter_ = counter;
  }

  std::uint64_t boundary_points() const { return boundary_points_; }
  std::uint64_t interior_points() const { return interior_points_; }

 private:
  /// Classifies one uploaded batch (raster fast path vs exact PIP path).
  void ProcessBatch(const PointTable& batch);

  gpu::Device* device_;
  const PolygonSet* polys_;
  const TriangleSoup* soup_;
  BBox world_;
  AccurateRasterJoinOptions options_;

  std::unique_ptr<AccurateCanvas> canvas_;
  std::unique_ptr<raster::Viewport> vp_;
  std::unique_ptr<raster::Fbo> point_fbo_;
  std::unique_ptr<join::BatchPipeline> pipeline_;
  std::atomic<std::uint64_t>* version_counter_ = nullptr;
  JoinResult result_;
  std::uint64_t boundary_points_ = 0;
  std::uint64_t interior_points_ = 0;
  bool initialized_ = false;
  bool finished_ = false;
};

}  // namespace rj
