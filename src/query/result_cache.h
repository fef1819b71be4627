/// \file result_cache.h
/// \brief Executor-level result cache and plan cache for repeated traffic.
///
/// The paper's interactive-exploration workload — repeated spatial
/// aggregations over the same datasets at slightly-varying parameters — is
/// exactly the regime where the same (dataset, query) pair is executed over
/// and over by different clients. ResultCache memoizes finalized
/// QueryResults behind a canonical semantic key so repeated traffic costs a
/// hash lookup plus a copy instead of a join:
///
///  * **key semantics** — CacheKey is the dataset id and version plus the
///    query's QuerySpec identity (operator==/HashSpec: aggregate,
///    effective column, order-insensitive filters, ε, canvas dim, ranges
///    flag) with the variant resolved and the dataset name cleared. The
///    execution knobs (ExecPolicy) and shard counts are outside it: the
///    determinism suites prove results are bitwise identical across them,
///    and excluding them is what makes admission-resized or resharded
///    repeats actually hit;
///  * **sharded-lock LRU** — entries hash across N independently-locked
///    shards (byte-accounted; eviction from each shard's LRU tail), so
///    concurrent dispatchers don't serialize on one cache mutex;
///  * **single-flight** — N concurrent identical queries run the join
///    once: the first becomes the leader and computes, the rest block on
///    the in-flight entry and share the leader's result (or its error);
///  * **invalidation** — the key carries a per-dataset version counter
///    (Executor::BumpDatasetVersion: dataset re-registration and
///    QueryService::InvalidateDataset), so mutated datasets miss naturally;
///    stale-version entries age out of the LRU.
///
/// PlanCache is the sibling layer for query *planning*: it memoizes
/// Executor::PlanAdmission footprints per (variant, upload stride, overlap)
/// and grant-capped batch plans per (grant, stride, point count, overlap),
/// both pure functions of their keys for a fixed dataset.
///
/// Thread-safety: both caches are safe for concurrent callers throughout;
/// no lock is held while a leader computes. docs/SERVICE.md "Result & plan
/// cache" documents the policy and its interaction with admission control.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "query/executor.h"
#include "query/query_spec.h"
#include "query/result.h"

namespace rj::query {

/// Canonical semantic identity of one (dataset, query) execution — see the
/// file comment for what is included and why the execution knobs are not.
struct CacheKey {
  /// Cache-wide dataset identity (QueryService uses the dataset id;
  /// standalone executors pick any stable value).
  std::uint64_t dataset = 0;
  /// Dataset version at key-build time; bumps invalidate by key mismatch.
  std::uint64_t version = 0;
  /// The query's semantic identity, compared and hashed through QuerySpec's
  /// operator==/HashSpec. `spec.dataset` is cleared — the id above is what
  /// names the dataset — and `spec.variant` is resolved, never kAuto, so a
  /// kAuto query shares entries with the explicit variant the cost model
  /// picks.
  QuerySpec spec;
  /// kNoShard for a whole-query entry (the common case). A concrete shard
  /// id keys a *per-shard partial* — the executor's shard cache stores one
  /// entry per (semantic query, shard) so a pan that re-covers a shard
  /// reuses its partial without re-executing it. Partition identity rides
  /// on `version` (re-registration bumps it), so reshards never alias.
  std::size_t shard = kNoShard;

  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

  bool operator==(const CacheKey& other) const;
  bool operator!=(const CacheKey& other) const { return !(*this == other); }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const;
};

/// Builds the canonical key for `query` against dataset
/// (`dataset`, `version`) from `query.spec` alone; `query.policy` never
/// enters it. `resolved_variant` must be the executor's ResolveVariant
/// outcome (kAuto is not a semantic identity — the cost model's pick is).
CacheKey MakeCacheKey(std::uint64_t dataset, std::uint64_t version,
                      const SpatialAggQuery& query,
                      JoinVariant resolved_variant);

struct ResultCacheOptions {
  /// Total byte budget across all shards (entry payloads, estimated). An
  /// entry larger than its shard's slice is returned to the caller but not
  /// stored.
  std::size_t capacity_bytes = 64ull << 20;
  /// Lock shards (≥ 1); keys hash across them.
  std::size_t num_shards = 8;
};

/// Point-in-time counters (monotone except entries/bytes_used).
struct ResultCacheStats {
  std::uint64_t hits = 0;            ///< served from a completed entry
  std::uint64_t misses = 0;          ///< leader executions
  std::uint64_t inserts = 0;         ///< entries stored
  std::uint64_t evictions = 0;       ///< LRU/capacity removals
  std::uint64_t shared_flights = 0;  ///< followers that waited on a leader
  std::size_t entries = 0;           ///< currently cached
  std::size_t bytes_used = 0;        ///< estimated payload bytes resident
  std::size_t capacity_bytes = 0;
};

/// Sharded-lock LRU result cache with single-flight deduplication.
class ResultCache {
 public:
  using ComputeFn = std::function<Result<QueryResult>()>;

  explicit ResultCache(ResultCacheOptions options = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Fast-path probe: the cached result (LRU-touched) or nullptr. Counts a
  /// hit or a miss; does not join or start an in-flight computation.
  /// Discarding the return value silently skews the hit counters, so it is
  /// a compile error.
  [[nodiscard]] std::shared_ptr<const QueryResult> Lookup(const CacheKey& key);

  /// Single-flight get-or-compute. On a hit the cached value returns
  /// immediately. On a miss, exactly one caller per key (the leader) runs
  /// `compute` — with no cache lock held — and its result is stored and
  /// shared with every concurrent caller of the same key. A leader error
  /// is not cached; concurrent followers receive that same error, later
  /// callers retry as new leaders. `*was_hit` (optional) reports whether
  /// this caller avoided executing (fast hit or follower).
  ///
  /// `still_valid` (optional) is re-checked by the leader after computing
  /// and before storing: when it returns false — e.g. the dataset version
  /// was bumped while the flight was in the air, so `key.version` no
  /// longer matches the live dataset — the value is still returned to this
  /// caller and shared with its followers (they asked for exactly this
  /// key), but it is NOT inserted, so later callers can never hit a result
  /// stamped with a stale version.
  [[nodiscard]] Result<std::shared_ptr<const QueryResult>> GetOrCompute(
      const CacheKey& key, const ComputeFn& compute, bool* was_hit = nullptr,
      const std::function<bool()>& still_valid = nullptr);

  /// Stores a finished result (replacing any entry under the same key).
  void Insert(const CacheKey& key, QueryResult result);

  /// Drops every cached entry (in-flight computations are unaffected).
  void Clear();

  ResultCacheStats stats() const;
  std::size_t capacity_bytes() const { return options_.capacity_bytes; }

  /// Estimated resident bytes of one entry (payload vectors + key +
  /// bookkeeping) — the unit of the byte-accounted capacity.
  static std::size_t EntryBytes(const CacheKey& key, const QueryResult& result);

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const QueryResult> value;
    std::size_t bytes = 0;
  };

  /// One in-flight computation; followers block on `cv` until the leader
  /// publishes a value or an error. `mutex` is strictly below the owning
  /// shard's mutex in the hierarchy — the leader publishes under
  /// flight->mutex only after dropping shard.mutex.
  struct InFlight {
    Mutex mutex;
    CondVar cv;
    bool done RJ_GUARDED_BY(mutex) = false;
    Status error RJ_GUARDED_BY(mutex) = Status::OK();
    std::shared_ptr<const QueryResult> value RJ_GUARDED_BY(mutex);
  };

  struct Shard {
    mutable Mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru RJ_GUARDED_BY(mutex);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        entries RJ_GUARDED_BY(mutex);
    std::unordered_map<CacheKey, std::shared_ptr<InFlight>, CacheKeyHash>
        inflight RJ_GUARDED_BY(mutex);
    std::size_t bytes RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t hits RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t misses RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t inserts RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t evictions RJ_GUARDED_BY(mutex) = 0;
    std::uint64_t shared_flights RJ_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(const CacheKey& key);
  /// Inserts under shard.mutex (held by the caller); evicts from the LRU
  /// tail until the shard fits its capacity slice again.
  void InsertLocked(Shard& shard, const CacheKey& key,
                    std::shared_ptr<const QueryResult> value)
      RJ_REQUIRES(shard.mutex);

  ResultCacheOptions options_;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Counters for the plan-cache layer (monotone).
struct PlanCacheStats {
  std::uint64_t admission_hits = 0;
  std::uint64_t admission_misses = 0;
  std::uint64_t upload_hits = 0;
  std::uint64_t upload_misses = 0;
};

/// Memoizes per-dataset planning: admission footprints
/// (Executor::PlanAdmission) keyed by (resolved variant, upload stride,
/// overlap), and grant-capped batch plans (PlanUpload) keyed by (grant,
/// stride, point count, overlap). Both are pure functions of their keys
/// for a fixed dataset — the triangle-VBO term of an admission plan
/// depends only on the (immutable) polygon set — so a repeated query's
/// admission path skips the triangulation-cache mutex entirely. Bounded:
/// each map is cleared past a small entry cap (distinct plan keys are
/// few in practice; a grant sweep cannot grow it without bound).
class PlanCache {
 public:
  struct AdmissionKey {
    JoinVariant variant = JoinVariant::kBoundedRaster;
    std::size_t bytes_per_point = 0;
    bool overlap = false;
    bool operator==(const AdmissionKey& o) const {
      return variant == o.variant && bytes_per_point == o.bytes_per_point &&
             overlap == o.overlap;
    }
  };
  struct UploadKey {
    std::size_t cap_bytes = 0;
    std::size_t bytes_per_point = 0;
    std::size_t num_points = 0;
    bool overlap = false;
    bool operator==(const UploadKey& o) const {
      return cap_bytes == o.cap_bytes &&
             bytes_per_point == o.bytes_per_point &&
             num_points == o.num_points && overlap == o.overlap;
    }
  };

  /// Memoized admission plan, or computes and stores via `compute`.
  [[nodiscard]] Result<AdmissionPlan> GetAdmission(
      const AdmissionKey& key,
      const std::function<Result<AdmissionPlan>()>& compute)
      RJ_EXCLUDES(mutex_);

  /// Memoized grant-capped batch plan, or computes and stores.
  [[nodiscard]] UploadPlan GetUpload(
      const UploadKey& key, const std::function<UploadPlan()>& compute)
      RJ_EXCLUDES(mutex_);

  void Clear() RJ_EXCLUDES(mutex_);
  PlanCacheStats stats() const RJ_EXCLUDES(mutex_);

 private:
  struct AdmissionKeyHash {
    std::size_t operator()(const AdmissionKey& k) const;
  };
  struct UploadKeyHash {
    std::size_t operator()(const UploadKey& k) const;
  };

  /// One mutex for both maps: plan entries are tiny PODs and the critical
  /// sections are a probe or an insert (compute for a miss runs outside).
  mutable Mutex mutex_;
  std::unordered_map<AdmissionKey, AdmissionPlan, AdmissionKeyHash>
      admission_ RJ_GUARDED_BY(mutex_);
  std::unordered_map<UploadKey, UploadPlan, UploadKeyHash> upload_
      RJ_GUARDED_BY(mutex_);
  PlanCacheStats stats_ RJ_GUARDED_BY(mutex_);
};

}  // namespace rj::query
