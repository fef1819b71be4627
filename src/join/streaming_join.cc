#include "join/streaming_join.h"

#include <algorithm>
#include <cmath>

#include "geometry/pip.h"
#include "raster/pipeline.h"

namespace rj {

// ---------------------------------------------------------------------------
// StreamingBoundedJoin

StreamingBoundedJoin::StreamingBoundedJoin(gpu::Device* device,
                                           const PolygonSet* polys,
                                           const TriangleSoup* soup,
                                           const BBox& world,
                                           BoundedRasterJoinOptions options)
    : device_(device), polys_(polys), soup_(soup), world_(world),
      options_(std::move(options)) {}

StreamingBoundedJoin::~StreamingBoundedJoin() = default;

Status StreamingBoundedJoin::Init() {
  if (initialized_) return Status::Internal("Init() called twice");
  RJ_RETURN_NOT_OK(ValidatePolygonIds(*polys_));
  if (options_.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  RJ_ASSIGN_OR_RETURN(tiles_,
                      raster::PlanCanvas(world_, options_.epsilon,
                                         device_->options().max_fbo_dim));
  result_ = JoinResult(polys_->size());
  fbos_.reserve(tiles_.size());
  for (const raster::CanvasTile& tile : tiles_) {
    fbos_.push_back(std::make_unique<raster::Fbo>(tile.width, tile.height));
  }
  // Upload pipeline in push mode: AddBatch(b) starts b's transfer on the
  // prefetch thread and draws batch b-1 (whose upload has completed)
  // meanwhile. UploadColumns dedupes the weight column against the filter
  // columns, so streaming meters exactly the bytes the one-shot join ships.
  pipeline_ = std::make_unique<join::BatchPipeline>(
      device_, UploadColumns(options_.filters, options_.weight_column),
      join::BatchPipelineOptions{options_.overlap_transfers});
  initialized_ = true;
  return Status::OK();
}

void StreamingBoundedJoin::DrawBatch(const PointTable& batch) {
  ScopedPhase sp(&result_.timing, phase::kProcessing);
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    raster::Viewport vp(tiles_[t].world, tiles_[t].width, tiles_[t].height);
    points_drawn_ +=
        raster::DrawPoints(vp, batch, options_.filters,
                           options_.weight_column, fbos_[t].get(),
                           &device_->counters());
  }
  device_->counters().AddBatches(1);
}

Status StreamingBoundedJoin::AddBatch(const PointTable& batch) {
  if (!initialized_) return Status::Internal("AddBatch before Init");
  if (finished_) return Status::Internal("AddBatch after Finish");
  RJ_RETURN_NOT_OK(ValidateWeightColumn(batch, options_.weight_column));
  RJ_RETURN_NOT_OK(ValidateFilters(batch, options_.filters));

  if (!pipeline_->overlapping()) {
    // Serialized: upload then draw the caller's table in place (no copy).
    RJ_RETURN_NOT_OK(pipeline_->UploadSerialized(batch));
    DrawBatch(batch);
  } else {
    RJ_ASSIGN_OR_RETURN(std::optional<PointTable> ready,
                        pipeline_->Push(batch));
    if (ready.has_value()) DrawBatch(*ready);
  }
  // Invalidate cached results only after the append is in flight: bumping
  // before it would let a concurrent query cache a pre-append result
  // under the *new* version (a result computed mid-append lands under the
  // old version instead, which is already dead).
  if (version_counter_ != nullptr) {
    version_counter_->fetch_add(1, std::memory_order_acq_rel);
  }
  return Status::OK();
}

namespace {

/// Shared AddSource body: streams the zone-map-selected blocks of `source`
/// through `add_batch` (one batch per block), metering disk reads under
/// phase::kDiskRead and the pruning decisions in the device counters.
template <typename AddBatchFn>
Status StreamBlocks(gpu::Device* device, const data::PointBlockSource& source,
                    const FilterSet& filters, const BBox& world,
                    bool enable_pruning, PhaseTimer* timing,
                    const AddBatchFn& add_batch) {
  const BlockSelection sel =
      SelectBlocks(source, filters, &world, enable_pruning);
  device->counters().AddBlocksScanned(sel.scanned);
  device->counters().AddBlocksPruned(sel.pruned);
  PointTable scratch;
  for (const std::size_t b : sel.blocks) {
    Timer t;
    RJ_ASSIGN_OR_RETURN(data::BlockRef ref, source.ReadBlock(b, &scratch));
    if (source.disk_resident()) {
      timing->Add(phase::kDiskRead, t.ElapsedSeconds());
    }
    const PointTable& rows = *ref.table;
    if (ref.begin == 0 && ref.end == rows.size()) {
      RJ_RETURN_NOT_OK(add_batch(rows));
    } else {
      RJ_RETURN_NOT_OK(add_batch(rows.Slice(ref.begin, ref.end)));
    }
  }
  return Status::OK();
}

}  // namespace

Status StreamingBoundedJoin::AddSource(const data::PointBlockSource& source) {
  if (!initialized_) return Status::Internal("AddSource before Init");
  if (finished_) return Status::Internal("AddSource after Finish");
  RJ_RETURN_NOT_OK(ValidateWeightColumnCount(source.num_attributes(),
                                             options_.weight_column));
  RJ_RETURN_NOT_OK(
      ValidateFiltersCount(source.num_attributes(), options_.filters));
  return StreamBlocks(device_, source, options_.filters, world_,
                      options_.enable_block_pruning, &result_.timing,
                      [&](const PointTable& batch) {
                        return AddBatch(batch);
                      });
}

Result<JoinResult> StreamingBoundedJoin::Finish() {
  if (!initialized_) return Status::Internal("Finish before Init");
  if (finished_) return Status::Internal("Finish called twice");
  finished_ = true;
  RJ_ASSIGN_OR_RETURN(std::optional<PointTable> last, pipeline_->Flush());
  if (last.has_value()) DrawBatch(*last);
  RJ_RETURN_NOT_OK(pipeline_->Drain(&result_.timing));

  // Ship and meter the polygon pass's triangle VBO exactly once per query,
  // mirroring the one-shot BoundedRasterJoin so the two meter identical
  // bytes for identical inputs.
  RJ_RETURN_NOT_OK(UploadTriangleVbo(device_, soup_->size(),
                                     &result_.timing));

  ScopedPhase sp(&result_.timing, phase::kProcessing);
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    raster::Viewport vp(tiles_[t].world, tiles_[t].width, tiles_[t].height);
    raster::ResultArrays tile_result(polys_->size());
    raster::DrawPolygons(vp, *soup_, *fbos_[t], nullptr, &tile_result,
                         &device_->counters());
    result_.arrays.AddFrom(tile_result);
    device_->counters().AddRenderPasses(1);
  }
  fbos_.clear();
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// StreamingAccurateJoin

StreamingAccurateJoin::StreamingAccurateJoin(
    gpu::Device* device, const PolygonSet* polys, const TriangleSoup* soup,
    const BBox& world, AccurateRasterJoinOptions options)
    : device_(device), polys_(polys), soup_(soup), world_(world),
      options_(std::move(options)) {}

StreamingAccurateJoin::~StreamingAccurateJoin() = default;

Status StreamingAccurateJoin::Init() {
  if (initialized_) return Status::Internal("Init() called twice");
  RJ_RETURN_NOT_OK(ValidatePolygonIds(*polys_));
  RJ_ASSIGN_OR_RETURN(const std::int32_t dim,
                      ResolveAccurateCanvasDim(options_.canvas_dim, *device_));
  result_ = JoinResult(polys_->size());
  RJ_ASSIGN_OR_RETURN(
      AccurateCanvas canvas,
      PrepareAccurateCanvas(*polys_, world_, dim, options_.index_resolution,
                            &device_->counters(), &device_->pool(),
                            &result_.timing));
  canvas_ = std::make_unique<AccurateCanvas>(std::move(canvas));
  vp_ = std::make_unique<raster::Viewport>(world_, dim, dim);
  point_fbo_ = std::make_unique<raster::Fbo>(dim, dim);
  pipeline_ = std::make_unique<join::BatchPipeline>(
      device_, UploadColumns(options_.filters, options_.weight_column),
      join::BatchPipelineOptions{options_.overlap_transfers});
  initialized_ = true;
  return Status::OK();
}

void StreamingAccurateJoin::ProcessBatch(const PointTable& batch) {
  const bool has_weight = options_.weight_column != PointTable::npos;
  // Per-thread window: see pip.h (this loop is single-threaded).
  const std::size_t pip_before = GetThreadPipTestCount();

  ScopedPhase sp(&result_.timing, phase::kProcessing);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!options_.filters.Matches(batch, i)) continue;

    const Point p = batch.At(i);
    const Point s = vp_->ToScreen(p);
    const auto px = static_cast<std::int32_t>(std::floor(s.x));
    const auto py = static_cast<std::int32_t>(std::floor(s.y));
    if (px < 0 || px >= canvas_->dim || py < 0 || py >= canvas_->dim) {
      continue;
    }

    const float w =
        has_weight ? batch.attribute(options_.weight_column)[i] : 0.0f;
    if (canvas_->boundary.IsMarked(px, py)) {
      ++boundary_points_;
      auto [cb, ce] = canvas_->index->Candidates(p);
      for (const std::int32_t* c = cb; c != ce; ++c) {
        const Polygon& poly = (*polys_)[static_cast<std::size_t>(*c)];
        if (!poly.Contains(p)) continue;
        const auto id = static_cast<std::size_t>(poly.id());
        result_.arrays.count[id] += 1.0;
        if (has_weight) {
          result_.arrays.sum[id] += w;
          result_.arrays.min[id] =
              std::min(result_.arrays.min[id], static_cast<double>(w));
          result_.arrays.max[id] =
              std::max(result_.arrays.max[id], static_cast<double>(w));
        }
      }
    } else {
      ++interior_points_;
      point_fbo_->Add(px, py, raster::kChannelCount, 1.0f);
      if (has_weight) {
        point_fbo_->Add(px, py, raster::kChannelSum, w);
        point_fbo_->BlendMin(px, py, raster::kChannelMin, w);
        point_fbo_->BlendMax(px, py, raster::kChannelMax, w);
      }
    }
  }
  device_->counters().AddPipTests(GetThreadPipTestCount() - pip_before);
  device_->counters().AddBatches(1);
}

Status StreamingAccurateJoin::AddBatch(const PointTable& batch) {
  if (!initialized_) return Status::Internal("AddBatch before Init");
  if (finished_) return Status::Internal("AddBatch after Finish");
  RJ_RETURN_NOT_OK(ValidateWeightColumn(batch, options_.weight_column));
  RJ_RETURN_NOT_OK(ValidateFilters(batch, options_.filters));

  if (!pipeline_->overlapping()) {
    RJ_RETURN_NOT_OK(pipeline_->UploadSerialized(batch));
    ProcessBatch(batch);
  } else {
    RJ_ASSIGN_OR_RETURN(std::optional<PointTable> ready,
                        pipeline_->Push(batch));
    if (ready.has_value()) ProcessBatch(*ready);
  }
  // See StreamingBoundedJoin::AddBatch: bump only after the append is in
  // flight so no pre-append result can be cached under the new version.
  if (version_counter_ != nullptr) {
    version_counter_->fetch_add(1, std::memory_order_acq_rel);
  }
  return Status::OK();
}

Status StreamingAccurateJoin::AddSource(const data::PointBlockSource& source) {
  if (!initialized_) return Status::Internal("AddSource before Init");
  if (finished_) return Status::Internal("AddSource after Finish");
  RJ_RETURN_NOT_OK(ValidateWeightColumnCount(source.num_attributes(),
                                             options_.weight_column));
  RJ_RETURN_NOT_OK(
      ValidateFiltersCount(source.num_attributes(), options_.filters));
  return StreamBlocks(device_, source, options_.filters, world_,
                      options_.enable_block_pruning, &result_.timing,
                      [&](const PointTable& batch) {
                        return AddBatch(batch);
                      });
}

Result<JoinResult> StreamingAccurateJoin::Finish() {
  if (!initialized_) return Status::Internal("Finish before Init");
  if (finished_) return Status::Internal("Finish called twice");
  finished_ = true;
  RJ_ASSIGN_OR_RETURN(std::optional<PointTable> last, pipeline_->Flush());
  if (last.has_value()) ProcessBatch(*last);
  RJ_RETURN_NOT_OK(pipeline_->Drain(&result_.timing));
  ScopedPhase sp(&result_.timing, phase::kProcessing);
  raster::ResultArrays poly_pass(polys_->size());
  raster::DrawPolygons(*vp_, *soup_, *point_fbo_, &canvas_->boundary,
                       &poly_pass, &device_->counters());
  result_.arrays.AddFrom(poly_pass);
  device_->counters().AddRenderPasses(1);
  canvas_.reset();
  point_fbo_.reset();
  return std::move(result_);
}

}  // namespace rj
