#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "agg/merge_partials.h"
#include "join/fused_join.h"
#include "join/index_join.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "query/result_cache.h"
#include "raster/viewport.h"

namespace rj {

namespace {

/// Batch size + effective overlap that keep the upload pipeline's
/// in-flight VBOs (two when transfers overlap the draw) within `cap` —
/// the query's admission grant. A cap too small to double-buffer
/// downgrades to the serialized path instead of overshooting the grant.
/// batch_size 0 = no cap requested (the join derives its own plan).
UploadPlan CappedBatch(std::size_t cap_bytes, std::size_t bytes_per_point,
                       std::size_t num_points, bool overlap_transfers) {
  if (cap_bytes == 0 || bytes_per_point == 0) {
    return UploadPlan{0, overlap_transfers};
  }
  return PlanUpload(cap_bytes, bytes_per_point, num_points,
                    overlap_transfers);
}

/// Pixel-wise accumulation of one shard's point FBO into the gather
/// canvas, channel-appropriately: count/sum add, min/max blend. Because
/// every channel's per-shard partial is exactly representable in the
/// integer-weight regime, the accumulated FBO is bitwise identical to the
/// one a single device would have produced from the whole point stream.
void AccumulateFbo(raster::Fbo* dst, const raster::Fbo& src) {
  std::vector<float>& d = dst->mutable_data();
  const std::vector<float>& s = src.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    switch (static_cast<int>(i % raster::kChannels)) {
      case raster::kChannelMin:
        d[i] = std::min(d[i], s[i]);
        break;
      case raster::kChannelMax:
        d[i] = std::max(d[i], s[i]);
        break;
      default:  // kChannelCount, kChannelSum
        d[i] += s[i];
        break;
    }
  }
}

/// The per-member half of a group, derived from the queries. The §5 range
/// request is honored for the bounded variant only: the member exports its
/// point FBO, and the gather computes the ranges over the pixel-wise sum
/// of the shards' FBOs.
std::vector<FusedMemberSpec> FusedMembers(
    const std::vector<SpatialAggQuery>& queries, JoinVariant variant) {
  std::vector<FusedMemberSpec> members(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QuerySpec& spec = queries[i].spec;
    members[i].weight_column = spec.EffectiveAggregateColumn();
    members[i].filters = spec.filters;
    members[i].export_point_fbo = spec.with_result_ranges &&
                                  variant == JoinVariant::kBoundedRaster;
  }
  return members;
}

/// Upload stride of a group: the union of its members' columns
/// (FusedUploadColumns) — exactly what the shared scan ships.
std::size_t GroupStride(const std::vector<SpatialAggQuery>& queries,
                        JoinVariant variant) {
  return UploadStrideBytes(FusedUploadColumns(FusedMembers(queries, variant)));
}

/// The single-device constructors' pool: a non-owning wrap of `device`.
std::unique_ptr<gpu::DevicePool> OneDevicePool(gpu::Device* device) {
  return std::make_unique<gpu::DevicePool>(std::vector<gpu::Device*>{device});
}

}  // namespace

void AssignSequentialIds(PolygonSet* polys) {
  for (std::size_t i = 0; i < polys->size(); ++i) {
    (*polys)[i].set_id(static_cast<std::int64_t>(i));
  }
}

void Executor::InitWorldAndCosts(const BBox& points_extent,
                                 std::size_t num_points) {
  world_ = ComputeExtent(*polys_);
  world_.Expand(points_extent);
  // Inflate a hair so max-coordinate points land inside the last pixel
  // rather than exactly on the canvas edge.
  const double pad =
      1e-9 * std::max(1.0, std::max(world_.Width(), world_.Height()));
  world_ = world_.Inflated(pad);

  // Cost-model inputs depend only on the (immutable) datasets and device,
  // so the O(total vertices) scan runs once here instead of per kAuto
  // query — ResolveVariant is on the per-query dispatch path twice
  // (admission planning and execution).
  cost_inputs_.num_points = num_points;
  cost_inputs_.num_polygons = polys_->size();
  cost_inputs_.total_polygon_vertices = TotalVertices(*polys_);
  cost_inputs_.world = world_;
  for (const Polygon& poly : *polys_) {
    cost_inputs_.total_perimeter += poly.OuterPerimeter();
  }
  cost_inputs_.max_fbo_dim = device()->options().max_fbo_dim;
}

Executor::Executor(std::unique_ptr<gpu::DevicePool> owned,
                   gpu::DevicePool* pool, const PolygonSet* polys)
    : owned_pool_(std::move(owned)),
      pool_(pool != nullptr ? pool : owned_pool_.get()),
      polys_(polys),
      plan_cache_(std::make_unique<query::PlanCache>()) {}

Executor::Executor(gpu::Device* device, const PointTable* points,
                   const PolygonSet* polys)
    : Executor(OneDevicePool(device), nullptr, polys) {
  shards_.push_back({points, nullptr, nullptr});
  InitWorldAndCosts(points->Extent(), points->size());
}

Executor::Executor(gpu::Device* device, const data::PointBlockSource* source,
                   const PolygonSet* polys)
    : Executor(OneDevicePool(device), nullptr, polys) {
  shards_.push_back({nullptr, source, nullptr});
  // A file's extent is its header (O(1)) and a table adapter's is its
  // table's, so the registration reads no block.
  InitWorldAndCosts(source->extent(),
                    static_cast<std::size_t>(source->num_rows()));
}

Executor::Executor(gpu::DevicePool* pool, const data::ShardedTable* shards,
                   const PolygonSet* polys)
    : Executor(nullptr, pool, polys) {
  sharded_table_ = shards;
  for (std::size_t s = 0; s < shards->num_shards(); ++s) {
    shards_.push_back({&shards->shard(s), nullptr, &shards->shard_zone(s)});
  }
  // shards->extent() is the *whole* dataset's extent, so the canvas (and
  // every rasterized pixel) lines up bitwise with a one-shard executor
  // over the same rows.
  InitWorldAndCosts(shards->extent(), shards->total_points());
}

Executor::~Executor() = default;

query::PlanCacheStats Executor::plan_cache_stats() const {
  return plan_cache_->stats();
}

void Executor::BumpDatasetVersion() {
  dataset_version_.fetch_add(1, std::memory_order_acq_rel);
  // The dataset changed, so memoized plans may be stale too: full_bytes
  // derives from the point count, and serving an old full-working-set
  // figure would mis-size grants for every future query of that shape.
  plan_cache_->Clear();
}

bool Executor::disk_resident() const {
  return std::any_of(shards_.begin(), shards_.end(), [](const Shard& s) {
    return s.source != nullptr && s.source->disk_resident();
  });
}

std::vector<std::size_t> Executor::ShardsPerDevice() const {
  std::vector<std::size_t> hosted(pool_->size(), 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ++hosted[s % pool_->size()];
  }
  return hosted;
}

Result<const TriangleSoup*> Executor::GetTriangulation() {
  MutexLock lock(prep_mutex_);
  if (!soup_built_) {
    Timer t;
    RJ_ASSIGN_OR_RETURN(soup_, TriangulatePolygonSet(*polys_));
    triangulation_seconds_ = t.ElapsedSeconds();
    soup_built_ = true;
  }
  return &soup_;
}

Result<const GridIndex*> Executor::GetCpuIndex(std::int32_t resolution) {
  MutexLock lock(prep_mutex_);
  auto it = cpu_indexes_.find(resolution);
  if (it == cpu_indexes_.end()) {
    RJ_ASSIGN_OR_RETURN(GridIndex index,
                        GridIndex::Build(*polys_, world_, resolution,
                                         GridAssignMode::kExactGeometry));
    it = cpu_indexes_
             .emplace(resolution, std::make_unique<GridIndex>(std::move(index)))
             .first;
  }
  return it->second.get();
}

Result<const GridIndex*> Executor::GetDeviceIndex(std::int32_t resolution) {
  MutexLock lock(canvas_mutex_);
  RJ_ASSIGN_OR_RETURN(std::shared_ptr<const GridIndex> index,
                      DeviceIndexLocked(resolution));
  return index.get();
}

Result<std::shared_ptr<const GridIndex>> Executor::DeviceIndexLocked(
    std::int32_t resolution) {
  auto it = device_indexes_.find(resolution);
  if (it == device_indexes_.end()) {
    // Identical construction parameters to the per-query builds inside
    // IndexJoinDevice and PrepareAccurateCanvas (MBR assignment over the
    // executor's world), so the cached index is bit-for-bit the one each
    // query would have built.
    RJ_ASSIGN_OR_RETURN(GridIndex index,
                        GridIndex::Build(*polys_, world_, resolution,
                                         GridAssignMode::kMbr));
    it = device_indexes_
             .emplace(resolution,
                      std::make_shared<const GridIndex>(std::move(index)))
             .first;
  }
  return it->second;
}

Result<std::shared_ptr<const AccurateCanvas>> Executor::GetAccurateCanvas(
    std::int32_t canvas_dim) {
  RJ_ASSIGN_OR_RETURN(const std::int32_t dim,
                      ResolveAccurateCanvasDim(canvas_dim, *device()));
  MutexLock lock(canvas_mutex_);
  const auto hit = std::find_if(
      canvases_.begin(), canvases_.end(),
      [&](const std::shared_ptr<const AccurateCanvas>& c) {
        return c->dim == dim;
      });
  if (hit != canvases_.end()) {
    std::rotate(canvases_.begin(), hit, hit + 1);  // most recently used
    return canvases_.front();
  }
  // Built under the lock: concurrent first uses of one size wait for this
  // build instead of repeating it.
  RJ_ASSIGN_OR_RETURN(std::shared_ptr<const GridIndex> index,
                      DeviceIndexLocked(kDefaultGridResolution));
  RJ_ASSIGN_OR_RETURN(
      AccurateCanvas canvas,
      PrepareAccurateCanvas(*polys_, world_, dim, std::move(index),
                            &device()->counters()));
  if (canvases_.size() == kMaxAccurateCanvases) canvases_.pop_back();
  canvases_.insert(canvases_.begin(),
                   std::make_shared<const AccurateCanvas>(std::move(canvas)));
  return canvases_.front();
}

JoinVariant Executor::ResolveVariant(const SpatialAggQuery& query) const {
  if (query.spec.variant != JoinVariant::kAuto) return query.spec.variant;
  return ChooseRasterVariant(cost_params_, cost_inputs_, query.spec.epsilon);
}

Result<AdmissionPlan> Executor::PlanAdmission(const SpatialAggQuery& query) {
  return PlanFusedAdmission({query});
}

Result<AdmissionPlan> Executor::PlanFusedAdmission(
    const std::vector<SpatialAggQuery>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  const JoinVariant variant = ResolveVariant(queries[0]);
  if (variant == JoinVariant::kIndexCpu) {
    return AdmissionPlan{};  // never touches device memory
  }
  // The group ships one interleaved VBO covering every member's columns,
  // and the lead's knobs govern the shared pipeline.
  const std::size_t bytes_per_point = GroupStride(queries, variant);
  const bool overlap = queries[0].policy.overlap_transfers;
  // Everything below is a pure function of (variant, stride, overlap) for
  // this dataset — the triangle-VBO term depends only on the immutable
  // polygon set — so repeats skip the triangulation-cache mutex entirely.
  query::PlanCache::AdmissionKey key;
  key.variant = variant;
  key.bytes_per_point = bytes_per_point;
  key.overlap = overlap;
  return plan_cache_->GetAdmission(key, [&]() -> Result<AdmissionPlan> {
    AdmissionPlan plan;
    plan.bytes_per_point = bytes_per_point;
    if (variant == JoinVariant::kBoundedRaster) {
      RJ_ASSIGN_OR_RETURN(const TriangleSoup* soup, GetTriangulation());
      plan.fixed_bytes = TriangleVboBytes(soup->size());
    }
    // The triangle VBO is uploaded and freed before the point pipeline
    // starts, so the peak is the max of the fixed upload and the point
    // buffers in flight — 2× the stride when transfers overlap the draw
    // (BatchPipeline keeps batches b and b+1 resident), 1× serialized. A
    // single full-set batch never double-buffers, so full_bytes stays 1×.
    const std::size_t in_flight = overlap ? 2 : 1;
    // The grant is uniform across shards, so each bound is the largest
    // shard's. A table shard batches point by point and holds all its
    // rows resident when the grant allows. A block-source shard uploads
    // whole blocks: the batch size IS the block capacity (not
    // grant-tunable), so its floor is in_flight blocks, and that is also
    // its peak — the pipeline keeps at most in_flight block VBOs resident
    // (disk-staged loading slots hold host rows, no VBO).
    std::size_t min_points = 1;
    std::size_t full_points = 0;
    for (const Shard& shard : shards_) {
      if (shard.table != nullptr) {
        full_points = std::max(full_points, shard.table->size());
        continue;
      }
      const std::size_t block_points = std::max<std::size_t>(
          std::min<std::size_t>(shard.source->block_capacity(),
                                shard.source->num_rows()),
          1);
      min_points = std::max(min_points, block_points);
      full_points = std::max(full_points, block_points);
    }
    plan.min_bytes = std::max(plan.fixed_bytes,
                              in_flight * min_points * plan.bytes_per_point);
    plan.full_bytes = std::max({plan.fixed_bytes,
                                full_points * plan.bytes_per_point,
                                plan.min_bytes});
    return plan;
  });
}

Result<FusedJoinOutput> Executor::RunVariant(
    gpu::Device* device, const Shard& shard, const QuerySetup& setup,
    const std::vector<SpatialAggQuery>& queries) {
  const QuerySpec& lead = queries[0].spec;
  const ExecPolicy& policy = queries[0].policy;
  // The index baselines have no raster pass to share: PrepareGroup admits
  // them only as groups of one.
  IndexJoinOptions options;
  options.weight_column = lead.EffectiveAggregateColumn();
  options.filters = lead.filters;
  options.enable_block_pruning = policy.block_pruning;
  Result<JoinResult> join = Status::Internal("kAuto should have been resolved");
  if (setup.variant == JoinVariant::kIndexCpu) {
    options.assign_mode = GridAssignMode::kExactGeometry;
    join = shard.table != nullptr
               ? IndexJoinCpu(*shard.table, *polys_, *setup.cpu_index, options,
                              policy.cpu_threads)
               : IndexJoinCpu(*shard.source, *polys_, *setup.cpu_index, options,
                              policy.cpu_threads);
  } else {
    // Every device variant streams one planned scan.
    const std::vector<FusedMemberSpec> members =
        FusedMembers(queries, setup.variant);
    const std::size_t cap = policy.device_memory_cap_bytes;
    ScanPlan scan;
    if (shard.table != nullptr) {
      const std::size_t n = shard.table->size();
      const UploadPlan capped = plan_cache_->GetUpload(
          {cap, setup.bytes_per_point, n, policy.overlap_transfers}, [&] {
            return CappedBatch(cap, setup.bytes_per_point, n,
                               policy.overlap_transfers);
          });
      scan = PlanTableScan(*device, *shard.table, setup.bytes_per_point,
                           capped.batch_size, capped.overlap_transfers);
    } else {
      // Block scans ignore batch_size — the block capacity is the batch.
      // The only grant-sensitive knob left is double-buffering: a grant
      // too small for two in-flight blocks downgrades to the serialized
      // path instead of overshooting, mirroring CappedBatch's rule.
      const std::size_t block_bytes =
          std::min<std::size_t>(shard.source->block_capacity(),
                                shard.source->num_rows()) *
          setup.bytes_per_point;
      const bool overlap = policy.overlap_transfers &&
                           (cap == 0 || 2 * block_bytes <= cap);
      std::vector<const FilterSet*> filters;
      for (const FusedMemberSpec& member : members) {
        filters.push_back(&member.filters);
      }
      scan = PlanBlockScan(device, *shard.source, filters, world_,
                           policy.block_pruning, overlap);
    }
    if (setup.variant == JoinVariant::kBoundedRaster) {
      return FusedBoundedRasterJoin(device, std::move(scan), *polys_,
                                    *setup.soup, world_, lead.epsilon, members);
    }
    if (setup.variant == JoinVariant::kAccurateRaster) {
      return FusedAccurateRasterJoin(device, std::move(scan), *polys_,
                                     *setup.soup, *setup.canvas, members);
    }
    if (setup.variant == JoinVariant::kIndexDevice) {
      options.prebuilt_index = setup.device_index;
      join = IndexJoinDevice(device, std::move(scan), *polys_, world_,
                             options);
    }
  }
  if (!join.ok()) return join.status();
  FusedJoinOutput out;
  out.arrays.push_back(std::move(join.value().arrays));
  out.ranges.resize(1);
  out.point_fbos.resize(1);
  out.timing = join.value().timing;
  return out;
}

Result<Executor::QuerySetup> Executor::PrepareGroup(
    const std::vector<SpatialAggQuery>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  for (const SpatialAggQuery& q : queries) {
    if (q.spec.aggregate != AggregateKind::kCount &&
        q.spec.EffectiveAggregateColumn() == PointTable::npos) {
      return Status::InvalidArgument(
          "non-COUNT aggregates require aggregate_column");
    }
  }
  QuerySetup setup;
  setup.variant = ResolveVariant(queries[0]);
  // The members share one scan, so every member must resolve to the lead's
  // raster variant and canvas. Re-checked here even though the service's
  // grouping predicate enforces it — the shared scan is only valid when
  // the invariant holds locally.
  const bool raster = setup.variant == JoinVariant::kBoundedRaster ||
                      setup.variant == JoinVariant::kAccurateRaster;
  if (queries.size() > 1 && !raster) {
    return Status::InvalidArgument(
        "fusion requires a raster variant (bounded or accurate)");
  }
  for (std::size_t i = 1; i < queries.size(); ++i) {
    const bool same_canvas =
        setup.variant == JoinVariant::kBoundedRaster
            ? queries[i].spec.epsilon == queries[0].spec.epsilon
            : queries[i].spec.canvas_dim == queries[0].spec.canvas_dim;
    if (ResolveVariant(queries[i]) != setup.variant || !same_canvas) {
      return Status::InvalidArgument(
          "incompatible fusion group: members must share the resolved "
          "variant and canvas");
    }
  }
  setup.bytes_per_point = GroupStride(queries, setup.variant);
  if (raster) {
    RJ_ASSIGN_OR_RETURN(setup.soup, GetTriangulation());
  }
  if (setup.variant == JoinVariant::kAccurateRaster) {
    // Fetched once per group: every shard of the scatter reads this copy.
    RJ_ASSIGN_OR_RETURN(setup.canvas,
                        GetAccurateCanvas(queries[0].spec.canvas_dim));
  }
  if (setup.variant == JoinVariant::kIndexCpu) {
    RJ_ASSIGN_OR_RETURN(setup.cpu_index, GetCpuIndex(kDefaultGridResolution));
  }
  if (setup.variant == JoinVariant::kIndexDevice) {
    // The §6.2 baseline's per-query device index, hoisted into the prep
    // cache: repeated queries (the multi-query workload) skip the rebuild.
    RJ_ASSIGN_OR_RETURN(setup.device_index,
                        GetDeviceIndex(kDefaultGridResolution));
  }
  return setup;
}

bool Executor::ShardCacheable(const SpatialAggQuery& query,
                              JoinVariant variant) const {
  // A §5-ranges query needs the shard FBOs (not stored), and a bypass must
  // not read stale entries either.
  return shards_.size() > 1 && query.policy.shard_cache &&
         query.policy.use_result_cache && result_cache_ != nullptr &&
         !(query.spec.with_result_ranges &&
           variant == JoinVariant::kBoundedRaster);
}

Result<QueryResult> Executor::Execute(const SpatialAggQuery& query) {
  if (result_cache_ == nullptr || !query.policy.use_result_cache) {
    return ExecuteUncached(query);
  }

  // Cached path: key on semantics only (execution knobs excluded — results
  // are bitwise identical across them), single-flight on misses.
  Timer fetch;
  const query::CacheKey key = query::MakeCacheKey(
      dataset_cache_key_, dataset_version(), query, ResolveVariant(query));
  bool hit = false;
  RJ_ASSIGN_OR_RETURN(
      std::shared_ptr<const QueryResult> shared,
      result_cache_->GetOrCompute(
          key, [&] { return ExecuteUncached(query); }, &hit,
          // Publish guard: never cache a result whose key version was
          // outrun by a concurrent BumpDatasetVersion while the flight
          // computed.
          [&] { return dataset_version() == key.version; }));
  QueryResult out = *shared;
  if (hit) {
    // A hit performed no device work: scrub the miss's diagnostics so the
    // caller never mistakes replayed stats for this call's execution.
    out.cache_hit = true;
    out.timing = PhaseTimer();
    out.counters = gpu::CountersSnapshot();
    out.total_seconds = fetch.ElapsedSeconds();
  }
  return out;
}

Result<QueryResult> Executor::ExecuteUncached(const SpatialAggQuery& query) {
  return ExecuteUncached(query, nullptr);
}

Result<QueryResult> Executor::ExecuteUncached(
    const SpatialAggQuery& query, const ShardPlacement* placement) {
  RJ_ASSIGN_OR_RETURN(std::vector<QueryResult> out,
                      ExecuteFused({query}, placement));
  return std::move(out[0]);
}

Result<std::vector<QueryResult>> Executor::ExecuteFused(
    const std::vector<SpatialAggQuery>& queries,
    const ShardPlacement* placement) {
  Timer total;
  // Per-group preamble (validates aggregates, columns and compatibility;
  // the soup is shared across the group via the triangulation cache).
  RJ_ASSIGN_OR_RETURN(QuerySetup setup, PrepareGroup(queries));
  if (!pool_->UniformFboLimit()) {
    // Shards must rasterize on one pixel grid; a pool with mixed FBO
    // limits would tile the canvas differently per shard.
    return Status::InvalidArgument(
        "sharded execution requires a uniform max_fbo_dim across the pool");
  }
  const std::size_t m = queries.size();

  // Routing/cache placement — planned here unless the caller
  // (QueryService) already planned it to size the admission grant.
  ShardPlacement local_placement;
  if (placement == nullptr) {
    RJ_ASSIGN_OR_RETURN(local_placement, PlanFusedPlacement(queries));
    placement = &local_placement;
  }
  const ShardPlacement& place = *placement;

  const std::size_t num_shards = shards_.size();
  const std::size_t num_devices = pool_->size();
  std::vector<FusedJoinOutput> shard_out(num_shards);
  std::vector<Status> shard_status(num_shards, Status::OK());
  std::vector<gpu::CountersSnapshot> shard_counters(num_shards);

  // --- Scatter: every placed shard joins on its device in parallel. ------
  // Ranges members (bounded variant only) export their point FBOs instead
  // of computing §5 intervals per shard: the classification runs once over
  // the pixel-wise sum below, which is bitwise identical to the FBO one
  // scan of every row would draw — merging per-shard *intervals* instead
  // would regroup the per-pixel area×count products and drift by FP
  // rounding.
  const auto run_shard = [&](std::size_t s) {
    Result<FusedJoinOutput> join =
        RunVariant(pool_->device(place.device_of_shard[s]), shards_[s], setup,
                   queries);
    if (!join.ok()) {
      shard_status[s] = join.status();
      return;
    }
    shard_out[s] = std::move(join).MoveValueUnsafe();
  };

  // Routing metering lands on the primary device *before* the delta
  // windows open, so the per-shard deltas below don't re-report it (the
  // merged total then carries it exactly once via the explicit add after
  // the merge).
  device()->counters().AddShardsRouted(place.executed);
  device()->counters().AddShardsSkipped(place.skipped);

  // Counter attribution is per *device*, not per shard: sibling shards on
  // one device would have overlapping delta windows (double-counting the
  // shared work). The first *executing* shard on device d carries device
  // d's whole delta — the merged total is the true pool delta (exact when
  // no other query overlapped, the same contract as QueryStats). Devices
  // with no executing shard get no window (nothing ran there).
  const std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> first_shard_on_device(num_devices, npos);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t d = place.device_of_shard[s];
    if (d >= num_devices) continue;  // skipped or cached
    if (first_shard_on_device[d] == npos) first_shard_on_device[d] = s;
  }
  std::vector<gpu::CountersSnapshot> before(num_devices);
  for (std::size_t d = 0; d < num_devices; ++d) {
    if (first_shard_on_device[d] != npos) {
      before[d] = pool_->device(d)->counters().Snapshot();
    }
  }
  {
    // The calling thread runs the first executing shard itself; only the
    // others get threads. A one-shard query thus never leaves the caller's
    // thread, whose caches and malloc arenas are warm — the reason
    // QueryService dispatches most-recently-idle first.
    std::vector<std::thread> threads;
    threads.reserve(place.executed);
    std::size_t own = npos;
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (place.device_of_shard[s] >= num_devices) continue;
      if (own == npos) {
        own = s;
      } else {
        threads.emplace_back(run_shard, s);
      }
    }
    if (own != npos) run_shard(own);
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t d = 0; d < num_devices; ++d) {
    if (first_shard_on_device[d] != npos) {
      shard_counters[first_shard_on_device[d]] =
          pool_->device(d)->counters().Snapshot().DeltaSince(before[d]);
    }
  }

  // First failure in shard order: error reporting stays deterministic no
  // matter which shard thread lost the race.
  for (const Status& st : shard_status) RJ_RETURN_NOT_OK(st);

  // --- Gather: per member, a deterministic merge in ascending shard
  // order. Cached shards contribute their stored arrays as-is (bitwise
  // identical to re-executing them); skipped shards stay default —
  // zero-size arrays the merge skips by contract (merge_partials.h). Shard
  // timings and counters ride member 0's merge once: they describe the
  // shared execution.
  std::vector<QueryResult> out(m);
  PhaseTimer timing;
  gpu::CountersSnapshot counters;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<agg::ShardPartial> partials(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (place.device_of_shard[s] == ShardPlacement::kCached) {
        partials[s].arrays = place.cached[s][i]->arrays;
      } else if (place.device_of_shard[s] < num_devices) {
        partials[s].arrays = std::move(shard_out[s].arrays[i]);
        if (i == 0) {
          partials[s].timing = shard_out[s].timing;
          partials[s].counters = shard_counters[s];
        }
      }
    }
    RJ_ASSIGN_OR_RETURN(agg::MergedPartials merged,
                        agg::MergePartials(partials));
    out[i].arrays = std::move(merged.arrays);
    if (i == 0) {
      timing = merged.timing;
      counters = merged.counters;
    }

    // Store the member's fresh per-shard partials for pans that re-cover
    // these shards. Unconditional on success; the version stamp in the key
    // keeps entries from outliving a dataset bump (mirrors the service's
    // publish guard).
    if (ShardCacheable(queries[i], setup.variant)) {
      const query::CacheKey base_key = query::MakeCacheKey(
          dataset_cache_key_, dataset_version(), queries[i], setup.variant);
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (place.device_of_shard[s] >= num_devices) continue;
        query::CacheKey key = base_key;
        key.shard = s;
        QueryResult partial;
        partial.arrays = partials[s].arrays;
        result_cache_->Insert(key, std::move(partial));
      }
    }
  }
  counters.shards_routed += place.executed;
  counters.shards_skipped += place.skipped;

  for (std::size_t i = 0; i < m; ++i) {
    raster::FboLease gathered;
    for (std::size_t s = 0; s < num_shards; ++s) {
      // Accumulate and release shard by shard: canvases are
      // multi-megabyte, so holding all S copies through the range pass
      // would multiply the gather's transient footprint for nothing.
      // Skipped shards exported no FBO — and an all-default FBO
      // accumulates as the identity, so the gathered canvas equals the
      // all-shard one bitwise. The shard cache is disabled for ranges
      // members and forced keep guarantees one executing shard, so the
      // seed is always present. One shard's canvas is the gathered one.
      if (place.device_of_shard[s] >= num_devices) continue;
      raster::FboLease& fbo = shard_out[s].point_fbos[i];
      if (fbo.get() == nullptr) continue;
      if (gathered.get() == nullptr) {
        gathered = std::move(fbo);
      } else {
        AccumulateFbo(gathered.get(), *fbo);
        fbo = raster::FboLease();  // back to the pool
      }
    }
    if (gathered.get() == nullptr) continue;  // no §5 ranges requested
    // Re-derive the (single-tile — the per-shard joins validated that)
    // canvas the shards rendered on.
    RJ_ASSIGN_OR_RETURN(
        std::vector<raster::CanvasTile> tiles,
        raster::PlanCanvas(world_, queries[0].spec.epsilon,
                           device()->options().max_fbo_dim));
    raster::Viewport vp(tiles[0].world, tiles[0].width, tiles[0].height);
    ScopedPhase sp(&timing, phase::kProcessing);
    // The range pass is part of this group's device work too: meter its
    // primary-device delta into the attributed counters, keeping the
    // "exact when no other query overlapped" contract (result.h).
    const gpu::CountersSnapshot gather_before = device()->counters().Snapshot();
    RJ_ASSIGN_OR_RETURN(
        out[i].ranges,
        ComputeResultRanges(vp, *polys_, *setup.soup, *gathered,
                            FinalizeAggregate(AggregateKind::kCount,
                                              out[i].arrays),
                            &device()->counters()));
    counters = counters.Plus(
        device()->counters().Snapshot().DeltaSince(gather_before));
  }

  // Demultiplex: per-member values; group-level diagnostics replicated.
  const double seconds = total.ElapsedSeconds();
  for (std::size_t i = 0; i < m; ++i) {
    out[i].values =
        FinalizeAggregate(queries[i].spec.aggregate, out[i].arrays);
    out[i].timing = timing;
    out[i].counters = counters;
    out[i].total_seconds = seconds;
  }
  return out;
}

Result<BBox> Executor::RoutingRegion(JoinVariant variant,
                                     const SpatialAggQuery& query) {
  BBox region = ComputeExtent(*polys_);
  double pad = 0.0;
  if (variant == JoinVariant::kBoundedRaster) {
    // One canvas pixel, from the very canvas plan the shards will render
    // on (the widest pixel across tiles, applied on both axes — strictly
    // conservative).
    RJ_ASSIGN_OR_RETURN(
        std::vector<raster::CanvasTile> tiles,
        raster::PlanCanvas(world_, query.spec.epsilon,
                           device()->options().max_fbo_dim));
    for (const raster::CanvasTile& t : tiles) {
      pad = std::max({pad, t.world.Width() / t.width,
                      t.world.Height() / t.height});
    }
  } else if (variant == JoinVariant::kAccurateRaster) {
    // One pixel of the accurate canvas, over-approximated with the longer
    // world side (the canvas is square over the world extent).
    RJ_ASSIGN_OR_RETURN(
        const std::int32_t dim,
        ResolveAccurateCanvasDim(query.spec.canvas_dim, *device()));
    pad = std::max(world_.Width(), world_.Height()) /
          static_cast<double>(dim);
  }
  // Index variants are PIP-exact: a contributing point lies inside a
  // polygon, hence inside the unpadded extent (Intersects is closed).
  return region.Inflated(pad);
}

Result<Executor::ShardPlacement> Executor::PlanPlacement(
    const SpatialAggQuery& query) {
  return PlanFusedPlacement({query});
}

Result<Executor::ShardPlacement> Executor::PlanFusedPlacement(
    const std::vector<SpatialAggQuery>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  const std::size_t m = queries.size();
  ShardPlacement p;
  const std::size_t num_shards = shards_.size();
  const std::size_t pool_size = pool_->size();
  p.device_of_shard.assign(num_shards, 0);
  p.cached.assign(num_shards,
                  std::vector<std::shared_ptr<const QueryResult>>(m));
  p.hosted.assign(pool_size, 0);

  // Members share the variant and canvas, hence the routing region; only
  // shards with a zone map can be tested against it.
  const JoinVariant variant = ResolveVariant(queries[0]);
  const auto routes = [](const SpatialAggQuery& q) {
    return q.policy.shard_routing;
  };
  const auto zoned = [](const Shard& shard) { return shard.zone != nullptr; };
  std::optional<BBox> region;
  if (std::any_of(shards_.begin(), shards_.end(), zoned) &&
      std::any_of(queries.begin(), queries.end(), routes)) {
    RJ_ASSIGN_OR_RETURN(BBox r, RoutingRegion(variant, queries[0]));
    region = r;
  }

  // A shard is served from the partial cache only when every member's
  // partial is cached.
  const bool use_cache =
      std::all_of(queries.begin(), queries.end(),
                  [&](const SpatialAggQuery& q) {
                    return ShardCacheable(q, variant);
                  });
  std::vector<query::CacheKey> keys;
  if (use_cache) {
    keys.reserve(m);
    for (const SpatialAggQuery& q : queries) {
      keys.push_back(query::MakeCacheKey(dataset_cache_key_,
                                         dataset_version(), q, variant));
    }
  }

  for (std::size_t s = 0; s < num_shards; ++s) {
    // Skipped only when no member can match the shard; a member that does
    // not route matches every shard.
    if (region.has_value() && shards_[s].zone != nullptr &&
        std::none_of(queries.begin(), queries.end(),
                     [&](const SpatialAggQuery& q) {
                       return !q.policy.shard_routing ||
                              ZoneMapCanMatch(*shards_[s].zone,
                                              q.spec.filters, &*region);
                     })) {
      p.device_of_shard[s] = ShardPlacement::kSkipped;
      ++p.skipped;
      continue;
    }
    if (use_cache) {
      std::vector<std::shared_ptr<const QueryResult>> hits(m);
      bool all_cached = true;
      for (std::size_t i = 0; i < m && all_cached; ++i) {
        query::CacheKey key = keys[i];
        key.shard = s;
        hits[i] = result_cache_->Lookup(key);
        all_cached = hits[i] != nullptr;
      }
      if (all_cached) {
        p.device_of_shard[s] = ShardPlacement::kCached;
        p.cached[s] = std::move(hits);
        ++p.cache_hits;
        continue;
      }
    }
    p.device_of_shard[s] = s % pool_size;
    ++p.hosted[s % pool_size];
    ++p.executed;
  }

  if (p.executed == 0 && p.cache_hits == 0) {
    // Forced keep: every shard was routed away, but the merge (and a
    // ranges gather) still needs one correctly-shaped partial. Shard 0 on
    // its home device joins zero-contributing rows — the result is the
    // same all-zero aggregate, bitwise.
    p.device_of_shard[0] = 0;
    --p.skipped;
    ++p.hosted[0];
    ++p.executed;
  }
  return p;
}

std::string JoinVariantName(JoinVariant variant) {
  switch (variant) {
    case JoinVariant::kBoundedRaster: return "BoundedRaster";
    case JoinVariant::kAccurateRaster: return "AccurateRaster";
    case JoinVariant::kIndexDevice: return "IndexDevice";
    case JoinVariant::kIndexCpu: return "IndexCpu";
    case JoinVariant::kAuto: return "Auto";
  }
  return "?";
}

}  // namespace rj
