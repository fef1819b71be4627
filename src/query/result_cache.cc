#include "query/result_cache.h"

#include <algorithm>
#include <utility>

namespace rj::query {

bool CacheKey::operator==(const CacheKey& other) const {
  return dataset == other.dataset && version == other.version &&
         spec == other.spec && shard == other.shard;
}

std::size_t CacheKeyHash::operator()(const CacheKey& key) const {
  std::size_t seed = std::hash<std::uint64_t>{}(key.dataset);
  seed = detail::HashCombine(seed, std::hash<std::uint64_t>{}(key.version));
  seed = detail::HashCombine(seed, HashSpec(key.spec));
  return detail::HashCombine(seed, std::hash<std::size_t>{}(key.shard));
}

CacheKey MakeCacheKey(std::uint64_t dataset, std::uint64_t version,
                      const SpatialAggQuery& query,
                      JoinVariant resolved_variant) {
  CacheKey key;
  key.dataset = dataset;
  key.version = version;
  key.spec = query.spec;
  key.spec.dataset.clear();
  key.spec.variant = resolved_variant;
  return key;
}

ResultCache::ResultCache(ResultCacheOptions options) : options_(options) {
  options_.num_shards = std::max<std::size_t>(1, options_.num_shards);
  per_shard_capacity_ = options_.capacity_bytes / options_.num_shards;
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const CacheKey& key) {
  return *shards_[CacheKeyHash{}(key) % shards_.size()];
}

std::shared_ptr<const QueryResult> ResultCache::Lookup(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return it->second->value;
}

Result<std::shared_ptr<const QueryResult>> ResultCache::GetOrCompute(
    const CacheKey& key, const ComputeFn& compute, bool* was_hit,
    const std::function<bool()>& still_valid) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    MutexLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ++shard.hits;
      if (was_hit != nullptr) *was_hit = true;
      return it->second->value;
    }
    auto fit = shard.inflight.find(key);
    if (fit != shard.inflight.end()) {
      flight = fit->second;
      ++shard.shared_flights;
    } else {
      flight = std::make_shared<InFlight>();
      shard.inflight.emplace(key, flight);
      leader = true;
      ++shard.misses;
    }
  }

  if (!leader) {
    // Follower: the leader is executing this exact query right now — wait
    // for its outcome instead of duplicating the join (single-flight).
    MutexLock lock(flight->mutex);
    while (!flight->done) flight->cv.Wait(lock);
    if (was_hit != nullptr) *was_hit = true;
    if (!flight->error.ok()) return flight->error;
    return flight->value;
  }

  // Leader: compute with no cache lock held, publish, wake followers.
  Result<QueryResult> computed = compute();
  std::shared_ptr<const QueryResult> value;
  if (computed.ok()) {
    value = std::make_shared<const QueryResult>(
        std::move(computed).MoveValueUnsafe());
  }
  // Re-validate before publishing to the LRU: a value computed against a
  // key whose world changed mid-flight (dataset version bump) is a correct
  // answer for this caller and its followers, but must not become a
  // persistent entry a later caller could hit.
  const bool publishable =
      value != nullptr && (still_valid == nullptr || still_valid());
  {
    MutexLock lock(shard.mutex);
    shard.inflight.erase(key);
    if (publishable) InsertLocked(shard, key, value);
  }
  {
    MutexLock lock(flight->mutex);
    flight->done = true;
    if (value != nullptr) {
      flight->value = value;
    } else {
      flight->error = computed.status();
    }
  }
  flight->cv.NotifyAll();
  if (was_hit != nullptr) *was_hit = false;
  if (value == nullptr) return computed.status();
  return value;
}

void ResultCache::Insert(const CacheKey& key, QueryResult result) {
  Shard& shard = ShardFor(key);
  auto value = std::make_shared<const QueryResult>(std::move(result));
  MutexLock lock(shard.mutex);
  InsertLocked(shard, key, std::move(value));
}

void ResultCache::InsertLocked(Shard& shard, const CacheKey& key,
                               std::shared_ptr<const QueryResult> value) {
  const std::size_t bytes = EntryBytes(key, *value);
  if (bytes > per_shard_capacity_) return;  // would evict the whole shard
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.entries.erase(it);
  }
  shard.lru.push_front(Entry{key, std::move(value), bytes});
  shard.entries.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.inserts;
  while (shard.bytes > per_shard_capacity_ && !shard.lru.empty()) {
    const Entry& tail = shard.lru.back();
    shard.bytes -= tail.bytes;
    shard.entries.erase(tail.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ResultCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->evictions += shard->entries.size();
    shard->entries.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats out;
  out.capacity_bytes = options_.capacity_bytes;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mutex);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.inserts += shard->inserts;
    out.evictions += shard->evictions;
    out.shared_flights += shard->shared_flights;
    out.entries += shard->entries.size();
    out.bytes_used += shard->bytes;
  }
  return out;
}

std::size_t ResultCache::EntryBytes(const CacheKey& key,
                                    const QueryResult& result) {
  // Estimated resident footprint: the payload vectors dominate; fixed
  // struct/bookkeeping overhead (list node, two key copies, map slot) is
  // approximated by the sizeofs. Exactness is not required — the capacity
  // is a budget, not an allocator.
  std::size_t bytes = sizeof(Entry) + sizeof(CacheKey) + sizeof(QueryResult);
  bytes += 2 * key.spec.filters.size() * sizeof(AttributeFilter);
  bytes += result.values.size() * sizeof(double);
  bytes += (result.arrays.count.size() + result.arrays.sum.size() +
            result.arrays.min.size() + result.arrays.max.size()) *
           sizeof(double);
  bytes += (result.ranges.loose.size() + result.ranges.expected.size()) *
           sizeof(ResultInterval);
  // Phase map nodes: name + double + red-black bookkeeping, ~64 B each.
  bytes += result.timing.phases().size() * 64;
  return bytes;
}

// ---------------------------------------------------------------------------
// PlanCache

namespace {
/// Maps stay tiny in practice (a handful of distinct variants/strides and
/// grants); the cap only guards against an adversarial grant sweep.
constexpr std::size_t kMaxPlanEntries = 1024;
}  // namespace

std::size_t PlanCache::AdmissionKeyHash::operator()(
    const AdmissionKey& k) const {
  std::size_t seed = std::hash<int>{}(static_cast<int>(k.variant));
  seed = detail::HashCombine(seed,
                             std::hash<std::size_t>{}(k.bytes_per_point));
  return detail::HashCombine(seed, std::hash<bool>{}(k.overlap));
}

std::size_t PlanCache::UploadKeyHash::operator()(const UploadKey& k) const {
  std::size_t seed = std::hash<std::size_t>{}(k.cap_bytes);
  seed = detail::HashCombine(seed,
                             std::hash<std::size_t>{}(k.bytes_per_point));
  seed = detail::HashCombine(seed, std::hash<std::size_t>{}(k.num_points));
  return detail::HashCombine(seed, std::hash<bool>{}(k.overlap));
}

Result<AdmissionPlan> PlanCache::GetAdmission(
    const AdmissionKey& key,
    const std::function<Result<AdmissionPlan>()>& compute) {
  {
    MutexLock lock(mutex_);
    auto it = admission_.find(key);
    if (it != admission_.end()) {
      ++stats_.admission_hits;
      return it->second;
    }
    ++stats_.admission_misses;
  }
  // Compute outside the lock; concurrent misses of the same key may both
  // compute, but the plan is a pure function of the key so the duplicates
  // store identical values. Errors are not cached.
  Result<AdmissionPlan> plan = compute();
  if (plan.ok()) {
    MutexLock lock(mutex_);
    if (admission_.size() >= kMaxPlanEntries) admission_.clear();
    admission_.emplace(key, plan.value());
  }
  return plan;
}

UploadPlan PlanCache::GetUpload(const UploadKey& key,
                                const std::function<UploadPlan()>& compute) {
  {
    MutexLock lock(mutex_);
    auto it = upload_.find(key);
    if (it != upload_.end()) {
      ++stats_.upload_hits;
      return it->second;
    }
    ++stats_.upload_misses;
  }
  const UploadPlan plan = compute();
  {
    MutexLock lock(mutex_);
    if (upload_.size() >= kMaxPlanEntries) upload_.clear();
    upload_.emplace(key, plan);
  }
  return plan;
}

void PlanCache::Clear() {
  MutexLock lock(mutex_);
  admission_.clear();
  upload_.clear();
}

PlanCacheStats PlanCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace rj::query
