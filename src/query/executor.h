/// \file executor.h
/// \brief Query executor: prepares polygon data, dispatches to the chosen
/// join operator, and finalizes the aggregate.
///
/// Owns the polygon processing the paper measures in Table 1
/// (triangulation for the raster variants, grid-index construction).
/// Polygon-side structures depend only on the immutable polygon set and
/// the canvas, so each is built once and shared by every query: the
/// triangulation, the grid indexes, and the accurate variant's canvases
/// (boundary mask + MBR grid index, one per canvas size,
/// GetAccurateCanvas).
///
/// One execution shape: a list of shards on a gpu::DevicePool. A shard is
/// a resident table or a block source, with a zone map or without one;
/// the paper's single-device setup is one shard on a one-device pool, and
/// a data::ShardedTable gives one shard per partition, on pool device
/// s mod pool size. Every execution is a group (ExecuteFused): a solo
/// query is a group of one, and a fusion group of compatible raster
/// queries shares one point scan per shard. Each group
/// takes one admission plan (PlanFusedAdmission), one placement
/// (PlanFusedPlacement), one scatter — every placed shard runs the
/// resolved variant on its device (RunVariant), the calling thread one of
/// them — and one gather: the partials merge through agg::MergePartials in
/// ascending shard order, so results are bitwise identical for any
/// shard count (docs/SERVICE.md "Determinism under sharding").
///
/// Placement is skew- and locality-aware (PlanPlacement): shards whose
/// zone map (data::ShardedTable::shard_zone) provably cannot contribute
/// to the query — no bbox overlap with the query's padded canvas region,
/// or no row can pass its filters — are skipped outright
/// (join::ZoneMapCanMatch, the same conservative-exact test as block
/// pruning), and on datasets of several shards, shards whose partial for
/// this semantic query is already cached reuse it without re-executing.
/// Skipped and cached shards contribute canonical partials, so the merged
/// result — including §5 pixel-summed ranges — stays bitwise identical to
/// all-shard execution.
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
/// These are **per-shard** figures: every shard uploads its own triangle
/// VBO and runs its own batch pipeline on its device, so a device hosting
/// k shards needs k× the grant (Executor::ShardsPerDevice gives the
/// placement shape; QueryService multiplies).
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
  /// Grant that holds the largest shard resident (no batching).
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
  /// One resident table on one device: the paper's setup. Wraps `device`
  /// in a non-owning one-device pool and registers the table as its one
  /// shard (no zone map, so never routing-skipped). Neither `points` nor
  /// `polys` are copied; both must outlive this, and so must `device`.
  /// Polygon ids must be 0..n-1 (use AssignSequentialIds if needed).
  Executor(gpu::Device* device, const PointTable* points,
           const PolygonSet* polys);

  /// One block source (typically an mmap-backed data::BlockFileReader —
  /// the disk-resident registration path) as the one shard of a one-device
  /// pool. Every query streams the source's zone-map-selected blocks
  /// through the three-stage disk→host→device pipeline; results are
  /// bitwise identical to an executor over data::MaterializeBlocks(*source).
  /// `device`, `source` and `polys` must outlive this.
  Executor(gpu::Device* device, const data::PointBlockSource* source,
           const PolygonSet* polys);

  /// One shard per partition of `shards`, with its zone map: shard s on
  /// pool device s mod pool->size(). `pool`, `shards`, and `polys` must
  /// outlive this. The pool must have a uniform max_fbo_dim (validated per
  /// query) so all shards rasterize on one pixel grid.
  Executor(gpu::DevicePool* pool, const data::ShardedTable* shards,
           const PolygonSet* polys);

  ~Executor();

  /// Runs the query and returns finalized per-polygon values. Thread-safe;
  /// concurrent calls share the preprocessing caches. When
  /// policy.device_memory_cap_bytes is set, point batches are sized so
  /// each shard's device allocations stay within that grant. With a result
  /// cache attached (set_result_cache), repeats of a semantically-equal
  /// query are served from the cache (single-flight: concurrent identical
  /// queries execute once) with scrubbed diagnostics and cache_hit set;
  /// the semantic payload is bitwise identical.
  Result<QueryResult> Execute(const SpatialAggQuery& query);

  /// Execute without consulting the whole-query result cache (always runs
  /// the join; executions still honor routing and the per-shard partial
  /// cache unless the query disables them). The uncached baseline
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
    /// reservation over exactly the devices doing work).
    std::vector<std::size_t> hosted;
    std::size_t executed = 0;    ///< shards that will run a join
    std::size_t cache_hits = 0;  ///< shards served from the partial cache
    std::size_t skipped = 0;     ///< shards pruned by routing
  };

  /// Plans routing and per-shard cache reuse for `query` (see the file
  /// comment): PlanFusedPlacement of a group of one. Thread-safe.
  Result<ShardPlacement> PlanPlacement(const SpatialAggQuery& query);

  /// Placement of a group (ExecuteFused): a shard is skipped only when it
  /// has a zone map and no member can match it, and served from the
  /// partial cache only when every member's partial is cached; every other
  /// shard s executes on pool device s mod pool size. A one-shard table or
  /// block source has no zone map, so it is placed on its device ({1}
  /// hosted). When every shard would be skipped, shard 0 is kept so the
  /// merge always sees one correctly-shaped partial. Thread-safe.
  Result<ShardPlacement> PlanFusedPlacement(
      const std::vector<SpatialAggQuery>& queries);

  /// ExecuteUncached against a placement already planned (and admitted) by
  /// the caller — QueryService plans first so the grant covers exactly the
  /// executing devices. `placement` may be null (plan internally); it must
  /// come from PlanPlacement of a semantically-equal query.
  Result<QueryResult> ExecuteUncached(const SpatialAggQuery& query,
                                      const ShardPlacement* placement);

  /// Executes a group — one query, or a fusion group of compatible queries
  /// over this dataset (same resolved raster variant; equal ε for bounded,
  /// equal canvas_dim for accurate; aggregates/filters/§5-range requests
  /// free per member) — as ONE shared point scan: one upload pipeline, one
  /// vertex stage per point, per-member fragment accumulation targets
  /// (join/fused_join.h). This is the one execution path: ExecuteUncached
  /// is a group of one. PrepareGroup, then the scatter over the placed
  /// shards, then the gather: a per-member merge in ascending shard order
  /// (plus, for §5 ranges, one classification over the pixel-wise sum of
  /// the shards' point FBOs), then finalize. Returns one QueryResult per
  /// query, in input order, each bitwise identical to running that query
  /// alone — values, arrays, and §5 ranges — for any shard count.
  /// Groups route, reuse and store per-shard partials like a solo query
  /// (PlanFusedPlacement); `placement` may be null (planned internally).
  ///
  /// Group-level diagnostics: timing, counters, and total_seconds describe
  /// the shared execution and are replicated across members (per-member
  /// attribution of a shared scan would be fiction). The first member's
  /// policy (device_memory_cap_bytes, overlap_transfers, block_pruning)
  /// governs the shared pipeline — the service reserves one grant for the
  /// whole group and stamps it on every member; knobs never change result
  /// bits. Index variants have no raster pass to share and run only as
  /// groups of one. Never consults the whole-query result cache (the
  /// service layers caching per member on top).
  Result<std::vector<QueryResult>> ExecuteFused(
      const std::vector<SpatialAggQuery>& queries,
      const ShardPlacement* placement = nullptr);

  /// Admission footprint of a group: the upload stride of the UNION of all
  /// members' referenced columns (the shared scan ships one interleaved
  /// VBO covering every member — see FusedUploadColumns), memoized per
  /// (variant, stride, overlap). Per shard; block-source shards size the
  /// floor by the block capacity (see PlanAdmission).
  Result<AdmissionPlan> PlanFusedAdmission(
      const std::vector<SpatialAggQuery>& queries);

  /// Resolves kAuto to a concrete variant via the cost model; other
  /// variants pass through unchanged.
  JoinVariant ResolveVariant(const SpatialAggQuery& query) const;

  /// Device-memory footprint of `query` for admission control (per
  /// shard): PlanFusedAdmission of a group of one. Block-source
  /// scans upload whole blocks, so their floor (and peak) is the in-flight
  /// blocks, not points. Builds (and caches) the triangulation when the
  /// resolved variant needs its VBO size. Thread-safe.
  Result<AdmissionPlan> PlanAdmission(const SpatialAggQuery& query);

  std::size_t num_shards() const { return shards_.size(); }
  /// Shards hosted per pool device, in device order — the placement shape
  /// the admission controller multiplies per-shard grants by ({1} for one
  /// shard on one device).
  std::vector<std::size_t> ShardsPerDevice() const;

  /// World extent used for the canvas: polygon extent ∪ point extent.
  const BBox& world() const { return world_; }

  // Reporting accessors: which constructor built this executor. Execution,
  // placement and admission read the shard list, never these.
  /// The one resident table (null for a sharded or source-backed executor
  /// — rows live in the partitions / on disk).
  const PointTable* points() const {
    return sharded() ? nullptr : shards_[0].table;
  }
  /// The one block source (null unless constructed over one).
  const data::PointBlockSource* block_source() const {
    return shards_[0].source;
  }
  /// True when queries scan a block source instead of a resident table.
  bool source_backed() const { return block_source() != nullptr; }
  /// The partitioned table (null unless constructed over one).
  const data::ShardedTable* shards() const { return sharded_table_; }
  bool sharded() const { return sharded_table_ != nullptr; }

  /// Rows across every shard.
  std::size_t num_points() const { return cost_inputs_.num_points; }
  /// True when some shard's blocks live on disk.
  bool disk_resident() const;
  /// Attribute columns of the dataset (uniform across shards), the bound
  /// submit-time validation checks filter/aggregate columns against.
  std::size_t num_attribute_columns() const {
    return shards_[0].table != nullptr ? shards_[0].table->num_attributes()
                                       : shards_[0].source->num_attributes();
  }
  const PolygonSet* polys() const { return polys_; }
  /// The pool's primary device: hosts polygon-side preparation (accurate
  /// canvases) and gather-phase work such as the result-range
  /// recomputation.
  gpu::Device* device() const { return pool_->primary(); }
  gpu::DevicePool* device_pool() const { return pool_; }

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
  /// One unit of the scatter: resident rows or a block source (exactly one
  /// is set), and the zone map routing tests it against, when it has one.
  struct Shard {
    const PointTable* table = nullptr;
    const data::PointBlockSource* source = nullptr;
    const data::BlockZoneMap* zone = nullptr;  ///< null: never skipped
  };

  /// Shared constructor head: `owned` is the one-device wrap behind the
  /// single-device constructors; `pool` (null = use `owned`) is the
  /// caller's pool.
  Executor(std::unique_ptr<gpu::DevicePool> owned, gpu::DevicePool* pool,
           const PolygonSet* polys);

  /// Shared constructor tail: world extent and cost-model inputs.
  void InitWorldAndCosts(const BBox& points_extent, std::size_t num_points);

  /// Per-group preamble of ExecuteFused: aggregate validation, variant
  /// resolution and group compatibility, the union upload stride, and the
  /// preprocessing the resolved variant needs (triangulation / accurate
  /// canvas / index), shared read-only by every shard of the scatter.
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
  /// the result cache. Never for a one-shard dataset: its partial is the
  /// whole result, which the whole-query cache already holds.
  bool ShardCacheable(const SpatialAggQuery& query, JoinVariant variant) const;

  /// The query's effective spatial region for shard routing: the polygon
  /// set's extent inflated by one canvas pixel for the raster variants
  /// (a contributing point's pixel must touch a polygon-covered pixel, so
  /// it lies within one pixel of the polygon extent; the index variants
  /// are PIP-exact and need no pad). Conservative by construction — a
  /// shard outside this region provably contributes nothing.
  Result<BBox> RoutingRegion(JoinVariant variant,
                             const SpatialAggQuery& query);

  /// Runs a group on one shard through the resolved variant — the one
  /// variant-dispatch point of the scatter, so per-variant option wiring
  /// exists once; every shard reads the setup's one accurate canvas. Plans
  /// the shard's scan under the lead's per-shard grant
  /// (device_memory_cap_bytes): a table through the memoized grant-capped
  /// batch plan, a block source block by block (with the lead's
  /// block_pruning), serialized when the grant cannot hold two blocks.
  /// Ranges members export their point FBOs for the gather.
  Result<FusedJoinOutput> RunVariant(
      gpu::Device* device, const Shard& shard, const QuerySetup& setup,
      const std::vector<SpatialAggQuery>& queries);

  /// The cached MBR-mode index at `resolution` (GetDeviceIndex), built
  /// on first use.
  Result<std::shared_ptr<const GridIndex>> DeviceIndexLocked(
      std::int32_t resolution) RJ_REQUIRES(canvas_mutex_);

  /// Non-null only for the single-device constructors; declared before
  /// pool_ so pool_ may point at it.
  std::unique_ptr<gpu::DevicePool> owned_pool_;
  gpu::DevicePool* pool_;
  std::vector<Shard> shards_;
  const data::ShardedTable* sharded_table_ = nullptr;
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
};

/// Sets poly[i].id = i for all i.
void AssignSequentialIds(PolygonSet* polys);

}  // namespace rj
