/// \file query_service.h
/// \brief Concurrent query service: pool-wide admission control,
/// scheduling, and futures-based results.
///
/// The paper evaluates one query at a time; the production direction
/// (ROADMAP "multi-query throughput", "dataset sharding") needs many
/// client threads sharing a pool of gpu::Device instances without
/// oversubscribing any device's memory budget. QueryService is that
/// admission/isolation layer:
///
///   * a bounded submission queue — Submit() blocks when the queue is full
///     (backpressure), TrySubmit() fails fast with CapacityError;
///   * an admission controller — before a query is dispatched, its
///     device-memory working set (Executor::PlanAdmission, per-shard when
///     the dataset is sharded) is reserved against every device the query
///     places shards on (gpu::PoolReservation: one MemoryReservation per
///     device, acquired all-or-nothing), and the query's point batches are
///     sized to the per-shard grant, so the sum of concurrent queries'
///     allocations can never exceed any device's memory_budget_bytes. A
///     query admitted only when every shard's grant fits its device; one
///     that cannot get its grants *queues* until a running query releases
///     capacity — it does not fail;
///   * a small scheduler — two FIFO lanes (high-priority first) drained by
///     a fixed pool of dispatcher threads; the dispatcher count bounds how
///     many queries execute concurrently;
///   * futures-based results — Submit returns std::future<ServiceResponse>
///     carrying the QueryResult plus per-query accounting (queue/execute
///     wall time, granted bytes per device, pool counter snapshots).
///
/// Results are bitwise identical to a sequential Executor::Execute of the
/// same query: admission only changes batch sizes, sharded scatter-gather
/// merges in fixed shard order, and the raster pipeline's per-pixel blend
/// order is independent of batching (see docs/SERVICE.md for the argument
/// and tests/service/ for the proof).
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>  // std::once_flag
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "data/point_block_source.h"
#include "data/sharded_table.h"
#include "gpu/device.h"
#include "gpu/device_pool.h"
#include "query/executor.h"
#include "query/query.h"
#include "query/query_spec.h"
#include "query/result.h"
#include "query/result_cache.h"

namespace rj::service {

/// Scheduling lane for a submitted query.
enum class Priority {
  kNormal = 0,  ///< FIFO lane
  kHigh = 1,    ///< drained before the FIFO lane at every dispatch point
};

/// Configuration of a QueryService instance.
struct ServiceOptions {
  /// Dispatcher threads; bounds the number of concurrently executing
  /// queries (0 = hardware concurrency).
  std::size_t num_dispatchers = 0;

  /// Maximum queries waiting in the submission queue (both lanes combined)
  /// before Submit() blocks / TrySubmit() fails.
  std::size_t max_queue_depth = 64;

  /// Per-query cap on the admission grant as a fraction of each device's
  /// budget, so one giant query cannot monopolize a device and starve
  /// concurrency. A query whose minimum footprint exceeds the cap still
  /// gets its minimum (progress beats fairness).
  double max_device_share = 0.5;

  /// Maximum queries fused into one shared-scan execution (1 = fusion
  /// off, the default). When > 1, a dispatcher that pops a raster query
  /// scans the waiting lanes for up to this many *compatible* queries —
  /// same dataset, same resolved variant, same canvas (ε for bounded,
  /// canvas_dim for accurate); aggregates, columns, and filters are free —
  /// and executes them as ONE fused point scan (Executor::ExecuteFused)
  /// under ONE admission grant sized by the group's union upload plan —
  /// the same admission and execution path a solo query (a group of one)
  /// takes, on in-memory, disk-resident and sharded datasets alike.
  /// Every member's result stays bitwise identical to running it alone,
  /// and fusion is invisible at the wire level (no new response fields).
  /// See docs/SERVICE.md "Fusion groups" for the policy and the
  /// determinism argument.
  std::size_t max_fusion_group_size = 1;

  /// Byte budget of the service-level result cache (0 = caching off).
  /// When on, repeats of a semantically-equal query — execution knobs
  /// excluded — are served from the cache and **bypass admission
  /// entirely**: no device grant, no capacity queueing, no device work;
  /// concurrent identical queries single-flight through one execution.
  /// See docs/SERVICE.md "Result & plan cache".
  std::size_t result_cache_bytes = 0;

  /// Lock shards of the result cache (concurrency of the hit path).
  std::size_t result_cache_shards = 8;

  /// Hot-shard replication (sharded datasets only): the K hottest shards —
  /// by an EWMA over how often recent queries actually visited each shard
  /// (routing-skipped shards don't heat up) — get read replicas on every
  /// pool device, and placement routes each to the least-loaded candidate
  /// device instead of pinning it to its home. 0 = off (home-only
  /// placement). Replication never changes result bits: every device runs
  /// the identical shard join and the merge order is fixed.
  std::size_t replicate_hot_shards = 0;

  /// EWMA smoothing factor for the per-shard heat counters (0..1; higher
  /// = faster reaction to workload shifts).
  double shard_heat_alpha = 0.3;

  /// Re-derive the replica map from the heat counters every this many
  /// sharded executions of a dataset (amortizes the sort; clamped ≥ 1).
  std::uint64_t replica_update_interval = 16;
};

/// Per-submission options.
struct SubmitOptions {
  Priority priority = Priority::kNormal;
};

/// Per-query accounting attached to every response.
struct QueryStats {
  /// Service-wide submission sequence number (admission order).
  std::uint64_t sequence = 0;
  /// Service-wide dispatch order (when a dispatcher picked the query up;
  /// the observable effect of the priority lane).
  std::uint64_t dispatch_order = 0;
  /// Wall time from submission until execution started (queueing plus
  /// waiting for the memory grants).
  double queue_seconds = 0.0;
  /// Wall time of Executor::Execute.
  double execute_seconds = 0.0;
  /// Device memory reserved for this query while it ran, summed across
  /// the pool.
  std::size_t granted_bytes = 0;
  /// The per-device breakdown of granted_bytes, in pool-device order
  /// (zeros on devices the query placed no shards on).
  std::vector<std::size_t> granted_bytes_per_device;
  /// Pool-wide counters snapshotted around execution. Devices are shared,
  /// so the delta (after.DeltaSince(before)) is exact accounting only when
  /// no query overlapped; under concurrency it is pool-level attribution
  /// of the window in which this query ran. On a cache hit both snapshots
  /// are taken at response time (delta zero — a hit does no device work).
  gpu::CountersSnapshot device_counters_before;
  gpu::CountersSnapshot device_counters_after;
  /// True when the response was served from the result cache (fast hit or
  /// single-flight share). Hits report granted_bytes == 0, an all-zero
  /// granted_bytes_per_device, lookup-only execute_seconds, and equal
  /// counter snapshots — never the original miss's execution stats.
  bool cache_hit = false;
  /// Number of distinct queries that executed in the same fused point scan
  /// as this one (1 = executed alone; cache hits always report 1). Fused
  /// members share the group's grant and counter window, replicated here.
  /// C++-visible accounting only — never serialized on the wire; the HTTP
  /// response schema is unchanged and fusion is invisible to clients.
  std::size_t fused_group_size = 1;
  /// Every execution's placement (zero on whole-query cache hits): shards
  /// that ran a join for this query, shards the spatial router pruned, and
  /// shards served from the per-shard partial cache. routed + skipped +
  /// cache hits == the dataset's shard count, so a one-shard dataset
  /// reports 1 routed. Fused members report their group's placement (a
  /// shard is skipped only when no member matches it, cached only when
  /// every member's partial is).
  std::size_t shards_routed = 0;
  std::size_t shards_skipped = 0;
  std::size_t shard_cache_hits = 0;
};

/// What a submitted query's future resolves to. `result.status()` carries
/// the stable error-code contract (StatusCode values, IsRetryable,
/// HttpStatusFor, ToJson) shared with the HTTP front end, so C++ clients
/// and network clients classify failures identically.
struct ServiceResponse {
  Result<QueryResult> result;
  QueryStats stats;
};

/// Metadata for one registered dataset (GET /v1/datasets).
struct DatasetInfo {
  std::size_t id = 0;
  std::string name;
  bool sharded = false;
  std::size_t num_shards = 1;
  std::size_t num_points = 0;
  std::size_t num_polygons = 0;
  std::size_t num_attribute_columns = 0;
  std::uint64_t version = 0;
  /// True when the dataset's blocks live on disk (RegisterDatasetFromFile
  /// over a v2 block file): queries stream zone-map-selected blocks
  /// through the disk→host→device pipeline instead of scanning RAM.
  /// Serialized as the "resident" field ("disk"/"memory") on the wire.
  bool disk_resident = false;
};

/// Service-level accounting snapshot (all monotonic except depth/running
/// and the per-device utilization).
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< accepted into the queue
  std::uint64_t rejected = 0;   ///< TrySubmit refusals (queue full)
  std::uint64_t completed = 0;  ///< futures fulfilled (ok or error)
  std::uint64_t failed = 0;     ///< completed with a non-OK status
  std::size_t queue_depth = 0;  ///< currently queued, both lanes
  std::size_t running = 0;      ///< currently executing
  /// Per-device budgets/reservations/counters, in pool order (the
  /// scheduler-visibility surface for placement decisions).
  std::vector<gpu::DeviceUtilization> devices;
  /// Result-cache counters (all zero when caching is off).
  query::ResultCacheStats cache;
};

/// Accepts SpatialAggQuery submissions from many client threads and runs
/// them against a shared gpu::DevicePool. Thread-safe throughout; see the
/// file comment for the architecture and docs/SERVICE.md for the policy.
class QueryService {
 public:
  /// Single-device convenience: wraps `device` in a non-owning pool.
  /// `device` must outlive the service; registered datasets must outlive
  /// it too (they are not copied).
  explicit QueryService(gpu::Device* device, ServiceOptions options = {});

  /// Pool service: queries run on the devices their datasets' shards are
  /// placed on (a table or file dataset is one shard on the primary
  /// device, a sharded dataset spans the pool). `pool` must outlive the
  /// service.
  explicit QueryService(gpu::DevicePool* pool, ServiceOptions options = {});

  /// Equivalent to Shutdown(): drains every accepted query, then stops the
  /// dispatchers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers a (points, polygons) dataset and returns its id. The
  /// per-dataset Executor is cached so preprocessing (triangulation, CPU
  /// index) is shared across every query against the dataset. Runs on the
  /// pool's primary device. Re-registering an already-registered pair
  /// returns the existing id and bumps its dataset version (the caller is
  /// telling us the data changed — cached results for the old version
  /// stop matching).
  /// `name` is the dataset's wire identity (QuerySpec::dataset, the HTTP
  /// /v1/datasets listing); empty defaults to "dataset-<id>". Registering a
  /// *different* table pair under an existing name shadows it: ResolveDataset
  /// returns the latest registration.
  std::size_t RegisterDataset(const PointTable* points,
                              const PolygonSet* polys,
                              std::string name = "");

  /// Registers a disk-resident dataset from a column-store file
  /// (data::OpenPointBlockSource: v2 block files mmap through
  /// data::BlockFileReader and stream block by block; v1 flat files load
  /// into RAM behind the same interface). The service owns the opened
  /// source; `polys` must outlive the service. Queries run the
  /// disk→host→device pipeline with zone-map pruning
  /// (ExecPolicy::block_pruning) and results bitwise identical to an
  /// in-memory registration of the same rows. Each call opens the file
  /// anew and mints a fresh dataset id (an existing `name` is shadowed,
  /// like re-using a name in RegisterDataset). Fusion groups form over
  /// disk-resident datasets too: a group streams one block scan.
  Result<std::size_t> RegisterDatasetFromFile(const std::string& path,
                                              const PolygonSet* polys,
                                              std::string name = "");

  /// Registers a sharded dataset: queries scatter across the pool (shard
  /// s on device s mod pool size) and gather through agg::MergePartials.
  /// `shards` and `polys` must outlive the service. Re-registration bumps
  /// the dataset version, like RegisterDataset.
  std::size_t RegisterShardedDataset(const data::ShardedTable* shards,
                                     const PolygonSet* polys,
                                     std::string name = "");

  /// Dataset id for a registered name (latest registration wins when a
  /// name was reused); NotFound otherwise.
  [[nodiscard]] Result<std::size_t> ResolveDataset(
      const std::string& name) const RJ_EXCLUDES(mutex_);

  /// Snapshot of every registered dataset, in id order.
  std::vector<DatasetInfo> ListDatasets() const RJ_EXCLUDES(mutex_);

  /// Bumps `dataset_id`'s version: cached results stop matching and the
  /// next query of each shape re-executes. For out-of-band mutations the
  /// service cannot observe (no-op on an unknown id).
  void InvalidateDataset(std::size_t dataset_id);

  /// The cached executor for a registered dataset (e.g. to warm caches or
  /// run a sequential baseline against the very same preprocessing).
  Executor* dataset_executor(std::size_t dataset_id) RJ_EXCLUDES(mutex_);

  /// Enqueues a query. Blocks while the submission queue is full
  /// (backpressure); the returned future resolves when the query has
  /// executed (or failed validation/admission).
  std::future<ServiceResponse> Submit(std::size_t dataset_id,
                                      const SpatialAggQuery& query,
                                      SubmitOptions options = {})
      RJ_EXCLUDES(mutex_);

  /// Non-blocking Submit: CapacityError when the queue is full.
  Result<std::future<ServiceResponse>> TrySubmit(std::size_t dataset_id,
                                                 const SpatialAggQuery& query,
                                                 SubmitOptions options = {});

  /// Public-API submission: the semantic spec plus an execution policy.
  /// Column references are validated against the dataset at submit; bad
  /// specs resolve the future with InvalidArgument without reaching
  /// admission. The spec's `dataset` name is not consulted — `dataset_id`
  /// (from RegisterDataset/ResolveDataset) is authoritative.
  std::future<ServiceResponse> Submit(std::size_t dataset_id,
                                      const QuerySpec& spec,
                                      const ExecPolicy& policy = {},
                                      SubmitOptions options = {});
  Result<std::future<ServiceResponse>> TrySubmit(std::size_t dataset_id,
                                                 const QuerySpec& spec,
                                                 const ExecPolicy& policy = {},
                                                 SubmitOptions options = {});

  /// Blocks until every accepted query has completed.
  void Drain() RJ_EXCLUDES(mutex_);

  /// Graceful drain: stop accepting (Submit/TrySubmit fail with a
  /// retryable CapacityError from this point on), finish every query
  /// accepted before the cut, then stop the dispatchers. Idempotent and
  /// safe to race with concurrent submissions: a submission either lands
  /// before the cut (its future resolves normally) or observes the
  /// shutdown error — it can never run against torn-down state. The
  /// destructor runs the same implementation.
  void Shutdown() RJ_EXCLUDES(mutex_);

  ServiceStats stats() const RJ_EXCLUDES(mutex_);
  /// The pool's primary device (back-compat accessor).
  gpu::Device* device() const { return pool_->primary(); }
  gpu::DevicePool* pool() const { return pool_; }
  const ServiceOptions& options() const { return options_; }
  /// The service-level result cache (null when result_cache_bytes == 0).
  query::ResultCache* result_cache() const { return cache_.get(); }

 private:
  /// Real constructor: `owned` (may be null) is the internally-created
  /// pool backing the single-device convenience constructor; `pool` (null
  /// = use `owned`) is the caller's pool. Runs before the dispatcher
  /// threads start, so pool_ is set before any query can execute.
  QueryService(std::unique_ptr<gpu::DevicePool> owned, gpu::DevicePool* pool,
               ServiceOptions options);

  /// One queued submission.
  struct Pending {
    std::uint64_t sequence = 0;
    std::uint64_t dispatch_order = 0;
    std::size_t dataset = 0;
    SpatialAggQuery query;
    Priority priority = Priority::kNormal;
    std::promise<ServiceResponse> promise;
    Timer queued;  ///< started at submission (queue_seconds)
  };

  std::future<ServiceResponse> Enqueue(std::size_t dataset_id,
                                       const SpatialAggQuery& query,
                                       SubmitOptions options, bool blocking,
                                       Status* reject_status)
      RJ_EXCLUDES(mutex_);

  void DispatchLoop(std::size_t slot) RJ_EXCLUDES(mutex_);

  /// Wakes the most recently idle dispatcher (MRU / hot-thread dispatch):
  /// under light load consecutive queries land on the same thread, whose
  /// malloc arenas and caches still hold the previous query's working-set
  /// pages — measurably faster than FIFO condvar wakeup rotating every
  /// query onto a cold thread. Caller holds mutex_.
  void WakeOneLocked() RJ_REQUIRES(mutex_);

  /// Admission + execution of one popped query (dispatcher thread).
  void RunQuery(Pending pending);

  /// Scans the waiting lanes (priority first, then FIFO, queue order) for
  /// queries fusion-compatible with group->front() and moves up to
  /// max_fusion_group_size − 1 of them into the group, dispatch-ordered
  /// and counted running. Caller holds mutex_.
  void CollectFusionGroupLocked(std::vector<Pending>* group)
      RJ_REQUIRES(mutex_);

  /// Fused execution of a collected group: per-member cache probe (hits
  /// leave the group), in-group dedupe of semantically identical members,
  /// AdmitAndExecute of the distinct members — the solo path's admission
  /// and execution — then per-member demux / cache insert / respond.
  /// Degenerates to RunQuery when one miss remains.
  void RunGroup(std::vector<Pending> group);

  /// Answers `pending` from a cached result with fresh hit stats: a hit
  /// did no device work, so it never replays the miss's grants, phase
  /// timings, or counter windows.
  void RespondHit(Pending* pending, QueryResult out, const Timer& fetch)
      RJ_EXCLUDES(mutex_);

  /// The admission try/wait cycle of AdmitAndExecute:
  /// places `plan` against the per-device shard counts, waits (bounded)
  /// for pool capacity, and returns the all-or-nothing reservation plus
  /// the uniform per-shard grant (empty reservation and grant 0 when
  /// plan.min_bytes == 0). CapacityError when the plan cannot fit even on
  /// an idle pool.
  Result<gpu::PoolReservation> AcquireGrant(
      const AdmissionPlan& plan, const std::vector<std::size_t>& hosted,
      std::size_t* per_shard_grant) RJ_EXCLUDES(mutex_);

  /// The uncached execution path of a group — one query, or the distinct
  /// members of a fusion group: plans the group's shard placement
  /// (routing / per-shard cache / replicas), sizes and reserves ONE set of
  /// per-device grants (Executor::PlanFusedAdmission, the union upload
  /// plan) against exactly the executing devices, executes the group
  /// batched to the per-shard grant (Executor::ExecuteFused), releases,
  /// then feeds the placement into the shard heat tracker. `waiting` are
  /// the submissions this execution answers; (*stats)[i] receives the
  /// group's grant/counter/timing/routing fields and waiting[i]'s queue
  /// time. With caching on, a solo query runs this as the single-flight
  /// leader's compute function — followers and hits never enter it (cache
  /// hits bypass admission entirely).
  Result<std::vector<QueryResult>> AdmitAndExecute(
      Executor* executor, std::vector<SpatialAggQuery> queries,
      const std::vector<Pending*>& waiting, std::vector<QueryStats>* stats);

  /// EWMA heat update from one executed placement; every
  /// replica_update_interval-th execution of a dataset re-derives its
  /// top-K replica map and installs it on the executor. No-op when
  /// replication is off or the dataset has fewer than two shards.
  void UpdateShardHeat(Executor* executor,
                       const Executor::ShardPlacement& placement)
      RJ_EXCLUDES(heat_mutex_);

  /// Fulfills a pending promise and updates completion accounting.
  void Respond(Pending* pending, Result<QueryResult> result,
               QueryStats stats) RJ_EXCLUDES(mutex_);

  /// The registrations' shared tail: returns the id of the dataset already
  /// registered over the same tables and polygons (bumping its version and
  /// renaming it when `name` is set), or inserts `executor` under a new id
  /// with the service result cache attached and `name` (empty defaults to
  /// "dataset-<id>"). Caller holds mutex_.
  std::size_t AddDatasetLocked(std::unique_ptr<Executor> executor,
                               std::string name) RJ_REQUIRES(mutex_);

  std::size_t QueueDepthLocked() const RJ_REQUIRES(mutex_) {
    return fifo_.size() + priority_.size();
  }

  /// Backing pool for the single-device constructor (non-owning wrap of
  /// the caller's device); declared before pool_ so pool_ may point at it.
  std::unique_ptr<gpu::DevicePool> owned_pool_;
  gpu::DevicePool* pool_;
  ServiceOptions options_;
  /// Result cache shared by every dataset (keys carry the dataset id);
  /// null when options_.result_cache_bytes == 0.
  std::unique_ptr<query::ResultCache> cache_;

  /// Service lock. Guards the queues, dispatcher bookkeeping, and the
  /// registration tables. Lock order: mutex_ before any device mutex
  /// (AcquireGrant reserves device budgets while holding it), never the
  /// reverse; disjoint from heat_mutex_ (never both held).
  mutable Mutex mutex_;
  CondVar cv_space_;     ///< submitters: queue has room
  CondVar cv_capacity_;  ///< dispatchers: grant released
  CondVar cv_drain_;     ///< Drain(): everything finished

  /// Per-dispatcher wakeup slot; `idle_` is a stack of waiting slots with
  /// the most recently idle dispatcher at the back (see WakeOneLocked).
  /// `wake` is guarded by mutex_ — not annotated because a nested struct
  /// member cannot name the enclosing class's mutex in a capability
  /// expression; every access is inside a mutex_ critical section.
  struct DispatcherSlot {
    CondVar cv;
    bool wake = false;
  };
  std::deque<DispatcherSlot> slots_ RJ_GUARDED_BY(mutex_);
  std::vector<std::size_t> idle_ RJ_GUARDED_BY(mutex_);

  std::vector<std::unique_ptr<Executor>> executors_ RJ_GUARDED_BY(mutex_);
  /// Wire names, parallel to executors_ (id = index).
  std::vector<std::string> dataset_names_ RJ_GUARDED_BY(mutex_);
  /// Per-dataset EWMA shard heat (see ServiceOptions::replicate_hot_shards),
  /// keyed by executor (stable for the service's lifetime); guarded by
  /// heat_mutex_ — its own lock, since heat updates happen on the
  /// execution path, outside mutex_.
  struct ShardHeat {
    std::vector<double> heat;
    std::uint64_t queries = 0;
  };
  Mutex heat_mutex_;
  std::unordered_map<const Executor*, ShardHeat> shard_heat_
      RJ_GUARDED_BY(heat_mutex_);
  /// Block sources opened by RegisterDatasetFromFile, owned for the
  /// service's lifetime (their executors point into them). Not parallel to
  /// executors_ — table/sharded registrations add no entry.
  std::vector<std::unique_ptr<data::PointBlockSource>> owned_sources_
      RJ_GUARDED_BY(mutex_);
  /// Shutdown() body runs exactly once (destructor re-entry, concurrent
  /// callers); later callers block until the first finishes the join.
  std::once_flag shutdown_once_;
  std::deque<Pending> fifo_ RJ_GUARDED_BY(mutex_);
  std::deque<Pending> priority_ RJ_GUARDED_BY(mutex_);
  bool stop_ RJ_GUARDED_BY(mutex_) = false;
  std::uint64_t next_sequence_ RJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_dispatch_order_ RJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t submitted_ RJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_ RJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ RJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t failed_ RJ_GUARDED_BY(mutex_) = 0;
  std::size_t running_ RJ_GUARDED_BY(mutex_) = 0;

  std::vector<std::thread> dispatchers_;
};

}  // namespace rj::service
