/// \file executor.h
/// \brief Query executor: prepares polygon data, dispatches to the chosen
/// join operator, and finalizes the aggregate.
///
/// Owns the polygon processing the paper measures in Table 1
/// (triangulation for the raster variants, grid-index construction) and
/// the device(s) it executes on. Polygon-side structures depend only on
/// the immutable polygon set and the canvas, so each is built once and
/// shared by every query: the triangulation, the grid indexes, and the
/// accurate variant's canvases (boundary mask + MBR grid index, one per
/// canvas size, GetAccurateCanvas). Every execution is a group
/// (ExecuteFused): a solo query is a group of one, and a fusion group of
/// compatible raster queries shares one point scan through the same path —
/// one admission plan (PlanFusedAdmission), one placement
/// (PlanFusedPlacement), one variant dispatch (RunVariant). Two execution
/// shapes:
///
///  * single-device — the paper's setup: one gpu::Device runs the whole
///    point set (batched when out of core);
///  * sharded scatter-gather — a data::ShardedTable places shards onto
///    gpu::DevicePool devices (home device s mod pool size; hot-shard read
///    replicas widen the candidate set and the least-loaded candidate
///    wins); each placed shard runs the full join on its own device in
///    parallel and the partials merge through agg::MergePartials in
///    ascending shard order, so results are bitwise identical to
///    single-device execution for any shard/worker/replica count
///    (docs/SERVICE.md "Determinism under sharding").
///
/// Sharded execution is additionally skew- and locality-aware
/// (PlanPlacement): shards whose zone map (data::ShardedTable::shard_zone)
/// provably cannot contribute to the query — no bbox overlap with the
/// query's padded canvas region, or no row can pass its filters — are
/// skipped outright (join::ZoneMapCanMatch, the same conservative-exact
/// test as block pruning), and shards whose partial for this semantic
/// query is already cached reuse it without re-executing. Skipped and
/// cached shards contribute canonical partials, so the merged result —
/// including §5 pixel-summed ranges — stays bitwise identical to all-shard
/// execution.
///
/// Thread-safety contract (docs/SERVICE.md): one Executor may serve
/// concurrent Execute() calls from many threads. The preprocessing caches
/// (triangulation and CPU grid indexes under one mutex; the device grid
/// indexes and accurate canvases under another) are built once and then
/// shared read-only; everything else in Execute() works on per-call state.
/// Mutating cost_params() while queries are in flight is not synchronized
/// — configure it before serving traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "data/point_block_source.h"
#include "data/sharded_table.h"
#include "gpu/device.h"
#include "gpu/device_pool.h"
#include "index/grid_index.h"
#include "join/fused_join.h"
#include "join/join_common.h"
#include "query/optimizer.h"
#include "query/query.h"
#include "query/query_spec.h"
#include "query/result.h"
#include "raster/fbo.h"
#include "triangulate/triangulation.h"

namespace rj {

namespace query {
class ResultCache;   // result_cache.h — result memoization (optional)
class PlanCache;     // result_cache.h — admission/batch-plan memoization
struct PlanCacheStats;
}  // namespace query

/// Device-memory footprint of one query, in the units the admission
/// controller reserves. All sizes derive from the upload stride (x, y plus
/// referenced attribute columns, float32 each) and the fixed per-query
/// uploads (the triangle VBO for the bounded raster variant).
///
/// For a sharded executor these are **per-shard** figures: every shard
/// uploads its own triangle VBO and runs its own batch pipeline on its
/// device, so a device hosting k shards needs k× the grant
/// (Executor::ShardsPerDevice gives the placement shape; QueryService
/// multiplies).
struct AdmissionPlan {
  /// Interleaved VBO bytes per point (0 when the variant never touches
  /// device memory, e.g. the CPU index join).
  std::size_t bytes_per_point = 0;
  /// Batch-independent peak allocation (triangle VBO upload).
  std::size_t fixed_bytes = 0;
  /// Smallest grant the query can make progress with: one-point batches
  /// plus the fixed uploads. A query whose min_bytes exceed the device
  /// budget can never run and must be rejected, not queued.
  std::size_t min_bytes = 0;
  /// Grant that holds the full point set (largest shard, when sharded)
  /// resident (no batching).
  std::size_t full_bytes = 0;
};

/// Executes spatial aggregation queries against one (points, polygons)
/// pair. Polygon preprocessing (triangulation, grid indexes, accurate
/// canvases) is computed lazily on first use and cached across queries:
/// the paper pre-builds CPU indexes and rebuilds the device structures per
/// query, but both are pure functions of the immutable polygon set, so
/// one build gives every query the same bits.
class Executor {
 public:
  /// Single-device executor. Neither `points` nor `polys` are copied; both
  /// must outlive this. Polygon ids must be 0..n-1 (use AssignSequentialIds
  /// if needed).
  Executor(gpu::Device* device, const PointTable* points,
           const PolygonSet* polys);

  /// Single-device executor over a block source (typically an mmap-backed
  /// data::BlockFileReader — the disk-resident registration path). Every
  /// query streams the source's zone-map-selected blocks through the
  /// three-stage disk→host→device pipeline; results are bitwise identical
  /// to an in-memory executor over data::MaterializeBlocks(*source).
  /// Neither `source` nor `polys` are copied; both must outlive this.
  Executor(gpu::Device* device, const data::PointBlockSource* source,
           const PolygonSet* polys);

  /// Sharded executor: every Execute() scatters across `shards` (shard s
  /// on pool device s mod pool->size()) and gathers via agg::MergePartials.
  /// `pool`, `shards`, and `polys` must outlive this. The pool must have a
  /// uniform max_fbo_dim (validated per query) so all shards rasterize on
  /// one pixel grid.
  Executor(gpu::DevicePool* pool, const data::ShardedTable* shards,
           const PolygonSet* polys);

  ~Executor();

  /// Runs the query and returns finalized per-polygon values. Thread-safe;
  /// concurrent calls share the preprocessing caches. When
  /// query.device_memory_cap_bytes is set, point batches are sized so the
  /// query's device allocations stay within that grant (per shard, when
  /// sharded). With a result cache attached (set_result_cache), repeats of
  /// a semantically-equal query are served from the cache (single-flight:
  /// concurrent identical queries execute once) with scrubbed diagnostics
  /// and cache_hit set; the semantic payload is bitwise identical.
  Result<QueryResult> Execute(const SpatialAggQuery& query);

  /// Public-API form: validates the spec's column references against this
  /// dataset, converts, and executes. Prefer this (with QuerySpecBuilder)
  /// over poking SpatialAggQuery fields.
  Result<QueryResult> Execute(const QuerySpec& spec,
                              const ExecPolicy& policy = {});

  /// Execute without consulting the whole-query result cache (always runs
  /// the join; sharded executions still honor routing and the per-shard
  /// partial cache unless the query disables them). The uncached baseline
  /// for tests/benches, and the compute path a caching layer that does its
  /// own key lookup (QueryService) wraps.
  Result<QueryResult> ExecuteUncached(const SpatialAggQuery& query);

  /// One query's shard placement: which shards execute (and where), which
  /// are routing-skipped, and which reuse a cached partial. `hosted` is the
  /// grant-multiplication shape for exactly the devices that will execute —
  /// admission covers placed work only, never skipped or cached shards.
  struct ShardPlacement {
    /// Sentinels in `device_of_shard` for shards that do not execute.
    static constexpr std::size_t kSkipped = static_cast<std::size_t>(-1);
    static constexpr std::size_t kCached = static_cast<std::size_t>(-2);
    /// Per shard: the pool device index that executes it, or a sentinel.
    std::vector<std::size_t> device_of_shard;
    /// Per shard, per group member: the pinned cached partial (non-null
    /// iff kCached — a shard is served from the cache only when every
    /// member's partial is). Pinned at plan time so a concurrent eviction
    /// cannot strand the execution.
    std::vector<std::vector<std::shared_ptr<const QueryResult>>> cached;
    /// Executing shards per pool device, in device order — what
    /// QueryService multiplies per-shard grants by (all-or-nothing
    /// reservation over exactly the devices doing work, replicas included).
    std::vector<std::size_t> hosted;
    std::size_t executed = 0;    ///< shards that will run a join
    std::size_t cache_hits = 0;  ///< shards served from the partial cache
    std::size_t skipped = 0;     ///< shards pruned by routing
  };

  /// Plans routing, per-shard cache reuse, and replica-aware device
  /// placement for `query` (see the file comment): PlanFusedPlacement of
  /// a group of one. Thread-safe.
  Result<ShardPlacement> PlanPlacement(const SpatialAggQuery& query);

  /// Placement of a group (ExecuteFused): a shard is skipped only when no
  /// member can match it, and served from the partial cache only when
  /// every member's partial is cached. Unsharded executors report the
  /// trivial single-device placement ({1} hosted). When every shard would
  /// be skipped, shard 0 is kept on its home device so the merge always
  /// sees one correctly-shaped partial. Thread-safe.
  Result<ShardPlacement> PlanFusedPlacement(
      const std::vector<SpatialAggQuery>& queries);

  /// ExecuteUncached against a placement already planned (and admitted) by
  /// the caller — QueryService plans first so the grant covers exactly the
  /// executing devices. `placement` may be null (plan internally); it must
  /// come from PlanPlacement of a semantically-equal query.
  Result<QueryResult> ExecuteUncached(const SpatialAggQuery& query,
                                      const ShardPlacement* placement);

  /// Installs the read-replica map: `replicas[s]` lists extra pool device
  /// indexes that may execute shard s in addition to its home device
  /// (s mod pool size). QueryService maintains this from its EWMA shard
  /// heat; placement picks the least-loaded candidate. Replicas never
  /// change result bits — every device runs the identical shard join.
  /// Thread-safe; an empty vector (or entry) means home-only.
  void SetShardReplicas(std::vector<std::vector<std::size_t>> replicas)
      RJ_EXCLUDES(replica_mutex_);
  std::vector<std::vector<std::size_t>> shard_replicas() const
      RJ_EXCLUDES(replica_mutex_);

  /// Executes a group — one query, or a fusion group of compatible queries
  /// over this dataset (same resolved raster variant; equal ε for bounded,
  /// equal canvas_dim for accurate; aggregates/filters/§5-range requests
  /// free per member) — as ONE shared point scan: one upload pipeline, one
  /// vertex stage per point, per-member fragment accumulation targets
  /// (join/fused_join.h). This is the one execution path: ExecuteUncached
  /// is a group of one. Returns one QueryResult per query, in input order,
  /// each bitwise identical to running that query alone — values, arrays,
  /// and §5 ranges — for any worker/shard count. Sharded groups route,
  /// reuse and store per-shard partials like a solo query
  /// (PlanFusedPlacement); `placement` may be null (planned internally).
  ///
  /// Group-level diagnostics: timing, counters, and total_seconds describe
  /// the shared execution and are replicated across members (per-member
  /// attribution of a shared scan would be fiction). The first member's
  /// execution knobs (device_memory_cap_bytes, overlap_transfers,
  /// enable_block_pruning) govern the shared pipeline — the service
  /// reserves one grant for the whole group and stamps it on every member;
  /// knobs never change result bits. Index variants have no raster pass to
  /// share and run only as groups of one. Never consults the whole-query
  /// result cache (the service layers caching per member on top).
  Result<std::vector<QueryResult>> ExecuteFused(
      const std::vector<SpatialAggQuery>& queries,
      const ShardPlacement* placement = nullptr);

  /// Admission footprint of a group: the upload stride of the UNION of all
  /// members' referenced columns (the shared scan ships one interleaved
  /// VBO covering every member — see FusedUploadColumns), memoized per
  /// (variant, stride, overlap). Per shard, when sharded; block-source
  /// executors size the floor by the block capacity (see PlanAdmission).
  Result<AdmissionPlan> PlanFusedAdmission(
      const std::vector<SpatialAggQuery>& queries);

  /// Resolves kAuto to a concrete variant via the cost model; other
  /// variants pass through unchanged.
  JoinVariant ResolveVariant(const SpatialAggQuery& query) const;

  /// Device-memory footprint of `query` for admission control (per shard,
  /// when sharded): PlanFusedAdmission of a group of one. Block-source
  /// scans upload whole blocks, so their floor (and peak) is the in-flight
  /// blocks, not points. Builds (and caches) the triangulation when the
  /// resolved variant needs its VBO size. Thread-safe.
  Result<AdmissionPlan> PlanAdmission(const SpatialAggQuery& query);

  /// True when Execute() takes the scatter-gather path.
  bool sharded() const { return shards_ != nullptr; }
  std::size_t num_shards() const {
    return sharded() ? shards_->num_shards() : 1;
  }
  /// Device that executes shard s (the pool wraps around when there are
  /// more shards than devices).
  gpu::Device* shard_device(std::size_t s) const {
    return sharded() ? pool_->device(s % pool_->size()) : device_;
  }
  /// Shards hosted per pool device, in device order — the placement shape
  /// the admission controller multiplies per-shard grants by. A
  /// single-device executor reports {1}.
  std::vector<std::size_t> ShardsPerDevice() const;

  /// World extent used for the canvas: polygon extent ∪ point extent.
  const BBox& world() const { return world_; }

  /// The full point table (null for a sharded or source-backed executor —
  /// rows live in the shards / on disk).
  const PointTable* points() const { return points_; }
  /// The block source (null unless constructed over one).
  const data::PointBlockSource* block_source() const { return source_; }
  /// True when queries scan a block source instead of a resident table.
  bool source_backed() const { return source_ != nullptr; }
  /// Attribute columns of the dataset (uniform across shards), the bound
  /// submit-time validation checks filter/aggregate columns against.
  std::size_t num_attribute_columns() const {
    if (sharded()) return shards_->shard(0).num_attributes();
    return source_backed() ? source_->num_attributes()
                           : points_->num_attributes();
  }
  const PolygonSet* polys() const { return polys_; }
  /// Single-device: the device. Sharded: the pool's primary device (hosts
  /// gather-phase work such as the result-range recomputation).
  gpu::Device* device() const { return device_; }
  gpu::DevicePool* device_pool() const { return pool_; }
  const data::ShardedTable* shards() const { return shards_; }

  /// Cached triangulation (built on first raster-variant query).
  [[nodiscard]] Result<const TriangleSoup*> GetTriangulation()
      RJ_EXCLUDES(prep_mutex_);

  /// Cached exact-geometry CPU grid index at `resolution`.
  [[nodiscard]] Result<const GridIndex*> GetCpuIndex(std::int32_t resolution)
      RJ_EXCLUDES(prep_mutex_);

  /// Cached MBR-mode grid index over world() at `resolution`, for the
  /// device index-join variant and (at kDefaultGridResolution) every
  /// accurate canvas — one object, shared. The paper's §6.2 baseline
  /// rebuilds this per query; caching it across queries (it is a pure
  /// function of the immutable polygon set, world, and resolution) removes
  /// the rebuild from repeated traffic without changing results —
  /// IndexJoinDevice consumes it as a prebuilt index.
  [[nodiscard]] Result<const GridIndex*> GetDeviceIndex(
      std::int32_t resolution) RJ_EXCLUDES(canvas_mutex_);

  /// The accurate variant's polygon-side state (join/raster_join_accurate.h
  /// AccurateCanvas) for a query's `canvas_dim`, resolved against the
  /// device (ResolveAccurateCanvasDim: 0 and an explicit max_fbo_dim are
  /// one canvas; above max_fbo_dim is InvalidArgument). Built on first use
  /// — the boundary pass runs on device() and meters its fragments there,
  /// once — around GetDeviceIndex(kDefaultGridResolution), then shared
  /// read-only by every shard, fusion member and later query on that
  /// canvas. The most recent kMaxAccurateCanvases sizes stay cached
  /// (least recently used evicted first); an in-flight query keeps its
  /// canvas alive through the returned pointer. Thread-safe; concurrent
  /// first uses build once.
  [[nodiscard]] Result<std::shared_ptr<const AccurateCanvas>>
  GetAccurateCanvas(std::int32_t canvas_dim) RJ_EXCLUDES(canvas_mutex_);

  /// Accurate canvas sizes GetAccurateCanvas keeps at once.
  static constexpr std::size_t kMaxAccurateCanvases = 4;

  /// Cost-model parameters for the kAuto variant. Not synchronized:
  /// configure before serving concurrent queries.
  CostModelParams* cost_params() { return &cost_params_; }

  /// Attaches a (non-owning, shared) result cache; Execute() then serves
  /// repeated queries from it. `dataset_key` is this dataset's identity
  /// within the cache (several executors may share one cache under
  /// distinct keys). Not synchronized: attach before serving traffic.
  void set_result_cache(query::ResultCache* cache,
                        std::uint64_t dataset_key = 0) {
    result_cache_ = cache;
    dataset_cache_key_ = dataset_key;
  }
  query::ResultCache* result_cache() const { return result_cache_; }
  std::uint64_t dataset_cache_key() const { return dataset_cache_key_; }

  /// Monotone dataset version, part of every cache key: BumpDatasetVersion
  /// is the one way to mark the underlying data changed (re-registration,
  /// QueryService::InvalidateDataset), and all prior cached results become
  /// unreachable (they age out of the LRU). It also drops the memoized
  /// admission/batch plans, whose full-working-set term depends on the
  /// point count. Thread-safe.
  std::uint64_t dataset_version() const {
    return dataset_version_.load(std::memory_order_acquire);
  }
  void BumpDatasetVersion();

  /// Plan-cache counters (admission/batch-plan memoization hits).
  query::PlanCacheStats plan_cache_stats() const;

 private:
  /// Shared constructor tail: world extent and cost-model inputs.
  void InitWorldAndCosts(const BBox& points_extent, std::size_t num_points);

  /// Per-group preamble shared by both execution paths: aggregate
  /// validation, variant resolution and group compatibility, the union
  /// upload stride, and the preprocessing the resolved variant needs
  /// (triangulation / accurate canvas / index). One copy, so sharded and
  /// single-device behavior cannot drift.
  struct QuerySetup {
    JoinVariant variant = JoinVariant::kAuto;
    std::size_t bytes_per_point = 0;
    const TriangleSoup* soup = nullptr;       ///< raster variants
    /// kAccurateRaster: the group's canvas, held for the execution.
    std::shared_ptr<const AccurateCanvas> canvas;
    const GridIndex* cpu_index = nullptr;     ///< kIndexCpu
    const GridIndex* device_index = nullptr;  ///< kIndexDevice (prebuilt)
  };
  Result<QuerySetup> PrepareGroup(const std::vector<SpatialAggQuery>& queries);

  /// Whether `query`'s per-shard partials may be read from and stored in
  /// the result cache.
  bool ShardCacheable(const SpatialAggQuery& query, JoinVariant variant) const;

  /// The query's effective spatial region for shard routing: the polygon
  /// set's extent inflated by one canvas pixel for the raster variants
  /// (a contributing point's pixel must touch a polygon-covered pixel, so
  /// it lies within one pixel of the polygon extent; the index variants
  /// are PIP-exact and need no pad). Conservative by construction — a
  /// shard outside this region provably contributes nothing.
  Result<BBox> RoutingRegion(JoinVariant variant,
                             const SpatialAggQuery& query);

  /// Runs a group on one (device, input) pair through the resolved
  /// variant — the single variant-dispatch point shared by the
  /// single-device path and every shard of the scatter path, so
  /// per-variant option wiring cannot drift between them; every shard
  /// reads the setup's one accurate canvas. `points` is the
  /// resident input, or null to scan the executor's block source (with
  /// the lead's enable_block_pruning). `capped` is the grant-capped batch
  /// plan; `gather_fbos` exports ranges members' point FBOs instead of
  /// computing their §5 ranges (the sharded gather).
  Result<FusedJoinOutput> RunVariant(gpu::Device* device,
                                     const PointTable* points,
                                     const QuerySetup& setup,
                                     const std::vector<SpatialAggQuery>& queries,
                                     const UploadPlan& capped,
                                     bool gather_fbos);

  /// The scatter-gather path (sharded executors only): per-shard group
  /// joins, then a per-member merge in ascending shard order (plus
  /// per-member point-FBO gathers for §5 ranges). `placement` may be null
  /// (planned internally).
  Result<std::vector<QueryResult>> ExecuteSharded(
      const std::vector<SpatialAggQuery>& queries, const QuerySetup& setup,
      const ShardPlacement* placement);

  /// The cached MBR-mode index at `resolution` (GetDeviceIndex), built
  /// on first use.
  Result<std::shared_ptr<const GridIndex>> DeviceIndexLocked(
      std::int32_t resolution) RJ_REQUIRES(canvas_mutex_);

  /// Points the batch planner sizes against: the whole table, the largest
  /// shard (each device holds at most its shards), or — source-backed —
  /// the full row count (admission separately caps batches at the block
  /// capacity; see PlanAdmission).
  std::size_t PlanningPointCount() const {
    if (sharded()) return shards_->max_shard_points();
    return source_backed() ? static_cast<std::size_t>(source_->num_rows())
                           : points_->size();
  }

  gpu::Device* device_;
  gpu::DevicePool* pool_ = nullptr;
  const data::ShardedTable* shards_ = nullptr;
  const PointTable* points_;
  const data::PointBlockSource* source_ = nullptr;
  const PolygonSet* polys_;
  query::ResultCache* result_cache_ = nullptr;
  std::uint64_t dataset_cache_key_ = 0;
  std::atomic<std::uint64_t> dataset_version_{0};
  /// Memoizes admission footprints and grant-capped batch plans across
  /// queries (internally synchronized; see result_cache.h).
  std::unique_ptr<query::PlanCache> plan_cache_;
  BBox world_;
  CostModelParams cost_params_;
  /// Computed once at construction (datasets are immutable); makes kAuto
  /// resolution O(1) on the per-query dispatch path.
  CostModelInputs cost_inputs_;

  /// Guards the lazily-built triangulation and CPU indexes. Once built
  /// they are immutable (indexes are per-resolution map entries with
  /// stable addresses), so the pointers Get* return under the lock stay
  /// valid — and safely readable without it — for the Executor's
  /// lifetime. The analysis cannot see that build-once contract, which is
  /// why the escaping pointers (not the guarded containers) are handed to
  /// callers.
  Mutex prep_mutex_;
  bool soup_built_ RJ_GUARDED_BY(prep_mutex_) = false;
  TriangleSoup soup_ RJ_GUARDED_BY(prep_mutex_);
  double triangulation_seconds_ RJ_GUARDED_BY(prep_mutex_) = 0.0;
  std::map<std::int32_t, std::unique_ptr<GridIndex>> cpu_indexes_
      RJ_GUARDED_BY(prep_mutex_);

  /// Guards the device indexes and accurate canvases — a mutex of their
  /// own, so building a canvas (tens of milliseconds at 1024²) never
  /// stalls queries waiting in GetTriangulation. Device indexes are never
  /// evicted (stable addresses, like cpu_indexes_); canvases are handed
  /// out as shared pointers, so eviction never frees one in use.
  Mutex canvas_mutex_;
  std::map<std::int32_t, std::shared_ptr<const GridIndex>> device_indexes_
      RJ_GUARDED_BY(canvas_mutex_);
  /// Accurate canvases, most recently used first (at most
  /// kMaxAccurateCanvases; each knows its own dim).
  std::vector<std::shared_ptr<const AccurateCanvas>> canvases_
      RJ_GUARDED_BY(canvas_mutex_);

  /// Guards the replica map (written by QueryService's heat tracker while
  /// queries are in flight; read by every PlanPlacement).
  mutable Mutex replica_mutex_;
  std::vector<std::vector<std::size_t>> shard_replicas_
      RJ_GUARDED_BY(replica_mutex_);
};

/// Sets poly[i].id = i for all i.
void AssignSequentialIds(PolygonSet* polys);

}  // namespace rj
