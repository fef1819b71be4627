/// \file result_cache_test.cc
/// \brief Unit tests for rj::query::ResultCache / PlanCache and the
/// cache-key semantics (canonical FilterSet, semantic query equality,
/// execution-knob exclusion, single-flight, LRU byte accounting).
#include "query/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/datasets.h"
#include "data/sharded_table.h"
#include "gpu/device_pool.h"
#include "query/executor.h"

namespace rj::query {
namespace {

AttributeFilter F(std::size_t column, FilterOp op, float value) {
  AttributeFilter f;
  f.column = column;
  f.op = op;
  f.value = value;
  return f;
}

FilterSet MakeFilters(const std::vector<AttributeFilter>& filters) {
  FilterSet set;
  for (const AttributeFilter& f : filters) EXPECT_TRUE(set.Add(f).ok());
  return set;
}

QueryResult MakeResult(double seed, std::size_t n = 4) {
  QueryResult r;
  r.values.assign(n, seed);
  r.arrays.Resize(n);
  for (std::size_t i = 0; i < n; ++i) r.arrays.count[i] = seed + i;
  return r;
}

// ---------------------------------------------------------------------------
// Key semantics

TEST(CacheKeyTest, PermutedFilterSetsProduceTheSameKey) {
  // {x>3, y<5} vs {y<5, x>3}: same conjunction, same key — the regression
  // the order-insensitive canonicalization exists for.
  const FilterSet a = MakeFilters({F(0, FilterOp::kGreater, 3.0f),
                                   F(1, FilterOp::kLess, 5.0f)});
  const FilterSet b = MakeFilters({F(1, FilterOp::kLess, 5.0f),
                                   F(0, FilterOp::kGreater, 3.0f)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());

  SpatialAggQuery qa;
  qa.spec.filters = a;
  SpatialAggQuery qb;
  qb.spec.filters = b;
  EXPECT_EQ(qa.spec, qb.spec);
  EXPECT_EQ(HashSpec(qa.spec), HashSpec(qb.spec));
  const CacheKey ka = MakeCacheKey(1, 0, qa, JoinVariant::kBoundedRaster);
  const CacheKey kb = MakeCacheKey(1, 0, qb, JoinVariant::kBoundedRaster);
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(CacheKeyHash{}(ka), CacheKeyHash{}(kb));
}

TEST(CacheKeyTest, SignedZeroHashesAndStoresConsistently) {
  // +0.0 and -0.0 compare equal numerically, so they MUST hash equally
  // (unordered_map contract) and land in the same cache entry — the
  // canonical-bits collapse in detail::CanonicalFloatBits.
  const FilterSet pos = MakeFilters({F(0, FilterOp::kGreater, 0.0f)});
  const FilterSet neg = MakeFilters({F(0, FilterOp::kGreater, -0.0f)});
  EXPECT_EQ(pos, neg);
  EXPECT_EQ(pos.Hash(), neg.Hash());

  SpatialAggQuery qpos;
  qpos.spec.filters = pos;
  qpos.spec.epsilon = 0.0;
  SpatialAggQuery qneg;
  qneg.spec.filters = neg;
  qneg.spec.epsilon = -0.0;
  EXPECT_EQ(qpos.spec, qneg.spec);
  EXPECT_EQ(HashSpec(qpos.spec), HashSpec(qneg.spec));
  const CacheKey kpos = MakeCacheKey(0, 0, qpos, JoinVariant::kBoundedRaster);
  const CacheKey kneg = MakeCacheKey(0, 0, qneg, JoinVariant::kBoundedRaster);
  EXPECT_EQ(kpos, kneg);
  EXPECT_EQ(CacheKeyHash{}(kpos), CacheKeyHash{}(kneg));

  ResultCache cache({1 << 20, 4});
  cache.Insert(kpos, MakeResult(1.0));
  EXPECT_NE(cache.Lookup(kneg), nullptr);
}

TEST(CacheKeyTest, DifferentConjunctionsDiffer) {
  const FilterSet a = MakeFilters({F(0, FilterOp::kGreater, 3.0f)});
  const FilterSet b = MakeFilters({F(0, FilterOp::kGreaterEqual, 3.0f)});
  const FilterSet c = MakeFilters({F(0, FilterOp::kGreater, 4.0f)});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  // Same filter listed twice is a different (degenerate) multiset than
  // once — equality stays transitive by comparing canonical sequences.
  const FilterSet twice = MakeFilters({F(0, FilterOp::kGreater, 3.0f),
                                       F(0, FilterOp::kGreater, 3.0f)});
  EXPECT_NE(a, twice);
}

TEST(CacheKeyTest, ExecutionKnobsAreExcludedFromKeyAndEquality) {
  SpatialAggQuery base;
  base.spec.variant = JoinVariant::kBoundedRaster;
  base.spec.epsilon = 10.0;

  SpatialAggQuery knobbed = base;
  knobbed.policy.device_memory_cap_bytes = 12345;  // admission grant
  knobbed.policy.cpu_threads = 8;                  // CPU baseline threads
  knobbed.policy.overlap_transfers = !base.policy.overlap_transfers;
  knobbed.policy.use_result_cache = false;
  knobbed.policy.block_pruning = false;
  knobbed.policy.shard_routing = false;
  knobbed.policy.shard_cache = false;
  const CacheKey base_key =
      MakeCacheKey(0, 0, base, JoinVariant::kBoundedRaster);
  const CacheKey knobbed_key =
      MakeCacheKey(0, 0, knobbed, JoinVariant::kBoundedRaster);
  EXPECT_EQ(base_key, knobbed_key);
  EXPECT_EQ(CacheKeyHash{}(base_key), CacheKeyHash{}(knobbed_key));

  // Semantic fields DO key.
  SpatialAggQuery eps = base;
  eps.spec.epsilon = 11.0;
  EXPECT_NE(base.spec, eps.spec);
  SpatialAggQuery ranges = base;
  ranges.spec.with_result_ranges = true;
  EXPECT_NE(base.spec, ranges.spec);
  EXPECT_NE(base_key, MakeCacheKey(0, 0, eps, JoinVariant::kBoundedRaster));
  EXPECT_NE(base_key,
            MakeCacheKey(0, 0, ranges, JoinVariant::kBoundedRaster));
}

TEST(CacheKeyTest, CountCanonicalizesTheAggregateColumnAway) {
  SpatialAggQuery a;
  a.spec.aggregate = AggregateKind::kCount;
  a.spec.aggregate_column = 3;
  SpatialAggQuery b;
  b.spec.aggregate = AggregateKind::kCount;
  b.spec.aggregate_column = 7;
  EXPECT_EQ(a.spec, b.spec);  // COUNT never reads the column

  a.spec.aggregate = AggregateKind::kSum;
  b.spec.aggregate = AggregateKind::kSum;
  EXPECT_NE(a.spec, b.spec);  // SUM does
}

TEST(CacheKeyTest, DatasetAndVersionPartitionTheKeySpace) {
  const SpatialAggQuery q;
  EXPECT_NE(MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster),
            MakeCacheKey(1, 0, q, JoinVariant::kBoundedRaster));
  EXPECT_NE(MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster),
            MakeCacheKey(0, 1, q, JoinVariant::kBoundedRaster));
  EXPECT_NE(MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster),
            MakeCacheKey(0, 0, q, JoinVariant::kAccurateRaster));
}

// ---------------------------------------------------------------------------
// ResultCache storage

TEST(ResultCacheTest, InsertLookupAndStats) {
  ResultCache cache({1 << 20, 1});
  SpatialAggQuery q;
  const CacheKey key = MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster);

  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, MakeResult(7.0));
  const auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->values[0], 7.0);

  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes_used, 0u);
  EXPECT_EQ(stats.capacity_bytes, std::size_t{1} << 20);
}

TEST(ResultCacheTest, InsertReplacesEntryUnderSameKey) {
  ResultCache cache({1 << 20, 1});
  SpatialAggQuery q;
  const CacheKey key = MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster);
  cache.Insert(key, MakeResult(1.0));
  cache.Insert(key, MakeResult(2.0));
  const auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->values[0], 2.0);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCacheTest, LruEvictsColdestWithinCapacity) {
  // Single shard, capacity fits only a few entries; results are padded so
  // each entry's byte estimate is substantial.
  ResultCache cache({4096, 1});
  SpatialAggQuery q;
  std::vector<CacheKey> keys;
  for (int i = 0; i < 16; ++i) {
    q.spec.epsilon = 1.0 + i;
    keys.push_back(MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster));
    cache.Insert(keys.back(), MakeResult(i, /*n=*/32));
  }
  const ResultCacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes_used, std::size_t{4096});
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 16u);
  // The most recently inserted key survived; the first was evicted.
  EXPECT_NE(cache.Lookup(keys.back()), nullptr);
  EXPECT_EQ(cache.Lookup(keys.front()), nullptr);
}

TEST(ResultCacheTest, LookupRefreshesLruOrder) {
  ResultCache cache({4096, 1});
  SpatialAggQuery q;
  q.spec.epsilon = 1.0;
  const CacheKey hot = MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster);
  cache.Insert(hot, MakeResult(1.0, 32));
  for (int i = 2; i < 12; ++i) {
    // Keep touching `hot` while inserting churn: it must survive every
    // round because the touch moves it to the LRU front.
    ASSERT_NE(cache.Lookup(hot), nullptr) << "evicted after " << i;
    q.spec.epsilon = static_cast<double>(i);
    cache.Insert(MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster),
                 MakeResult(i, 32));
  }
  EXPECT_NE(cache.Lookup(hot), nullptr);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ResultCacheTest, OversizedEntryIsReturnedButNotStored) {
  ResultCache cache({256, 1});  // smaller than any padded entry
  SpatialAggQuery q;
  const CacheKey key = MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster);
  std::atomic<int> executions{0};
  auto compute = [&]() -> Result<QueryResult> {
    ++executions;
    return MakeResult(5.0, 64);
  };
  auto first = cache.GetOrCompute(key, compute);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value()->values[0], 5.0);
  EXPECT_EQ(cache.stats().entries, 0u);
  auto second = cache.GetOrCompute(key, compute);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(executions.load(), 2);  // nothing stored ⇒ recomputed
}

// ---------------------------------------------------------------------------
// Single-flight

TEST(ResultCacheTest, SingleFlightRunsComputeOncePerKey) {
  ResultCache cache({1 << 20, 4});
  SpatialAggQuery q;
  const CacheKey key = MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster);

  std::atomic<int> executions{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = cache.GetOrCompute(key, [&]() -> Result<QueryResult> {
        ++executions;
        // Give followers time to pile onto the in-flight entry.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return MakeResult(9.0);
      });
      if (!r.ok() || r.value()->values[0] != 9.0) ++wrong;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(wrong.load(), 0);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  // Everyone else either shared the flight or hit the stored entry.
  EXPECT_EQ(stats.hits + stats.shared_flights,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ResultCacheTest, LeaderErrorIsSharedWithFollowersButNotCached) {
  ResultCache cache({1 << 20, 1});
  SpatialAggQuery q;
  const CacheKey key = MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster);

  std::atomic<int> executions{0};
  auto failing = [&]() -> Result<QueryResult> {
    ++executions;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return Status::CapacityError("transient failure");
  };
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      auto r = cache.GetOrCompute(key, failing);
      if (!r.ok() && r.status().code() == StatusCode::kCapacityError) {
        ++errors;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Concurrent callers shared the one failure (no thundering herd), and
  // the error was not cached: a later call retries as a new leader.
  EXPECT_GE(errors.load(), 1);
  const int failed_rounds = executions.load();
  auto retry = cache.GetOrCompute(key, [&]() -> Result<QueryResult> {
    ++executions;
    return MakeResult(3.0);
  });
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(executions.load(), failed_rounds + 1);
  EXPECT_NE(cache.Lookup(key), nullptr);
}

TEST(ResultCacheTest, VersionBumpDuringFlightIsNotPublished) {
  // Regression: a single-flight leader computes against dataset version V;
  // the dataset is bumped to V+1 while the flight is in the air. The
  // still_valid re-check must keep the V-stamped result out of the LRU —
  // otherwise a later Lookup of the (now historically-keyed) entry serves
  // data the caller believes is fresh-at-miss-time.
  ResultCache cache({1 << 20, 1});
  SpatialAggQuery q;
  std::atomic<std::uint64_t> version{0};
  const CacheKey key =
      MakeCacheKey(0, version.load(), q, JoinVariant::kBoundedRaster);

  bool hit = true;
  auto result = cache.GetOrCompute(
      key,
      [&]() -> Result<QueryResult> {
        version.fetch_add(1);  // a dataset bump lands mid-flight
        return MakeResult(4.0);
      },
      &hit, /*still_valid=*/[&] { return version.load() == key.version; });
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(hit);
  // The caller still gets the value (a correct answer to the query as
  // admitted)...
  EXPECT_EQ(result.value()->values[0], 4.0);
  // ...but nothing was published.
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(key), nullptr);
}

TEST(ResultCacheTest, FollowersShareTheFlightValueEvenWhenUnpublishable) {
  ResultCache cache({1 << 20, 1});
  SpatialAggQuery q;
  const CacheKey key = MakeCacheKey(0, 0, q, JoinVariant::kBoundedRaster);
  std::atomic<std::uint64_t> version{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      auto r = cache.GetOrCompute(
          key,
          [&]() -> Result<QueryResult> {
            // Give followers time to pile on, then bump before publishing.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            version.fetch_add(1);
            return MakeResult(6.0);
          },
          nullptr,
          /*still_valid=*/[&] { return version.load() == key.version; });
      if (!r.ok() || r.value()->values[0] != 6.0) ++wrong;
    });
  }
  for (std::thread& t : threads) t.join();
  // Every caller — leader(s) and followers — received the flight's value,
  // yet the post-bump results never seeded the LRU.
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(key), nullptr);
}

// ---------------------------------------------------------------------------
// PlanCache

TEST(PlanCacheTest, MemoizesAdmissionAndUploadPlans) {
  PlanCache cache;
  PlanCache::AdmissionKey akey;
  akey.variant = JoinVariant::kBoundedRaster;
  akey.bytes_per_point = 16;
  akey.overlap = true;
  int computes = 0;
  auto compute = [&]() -> Result<AdmissionPlan> {
    ++computes;
    AdmissionPlan plan;
    plan.bytes_per_point = 16;
    plan.min_bytes = 32;
    plan.full_bytes = 1024;
    return plan;
  };
  auto first = cache.GetAdmission(akey, compute);
  auto second = cache.GetAdmission(akey, compute);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(second.value().full_bytes, 1024u);

  PlanCache::UploadKey ukey;
  ukey.cap_bytes = 4096;
  ukey.bytes_per_point = 16;
  ukey.num_points = 1000;
  ukey.overlap = true;
  int upload_computes = 0;
  auto upload = [&] {
    ++upload_computes;
    return UploadPlan{128, true};
  };
  EXPECT_EQ(cache.GetUpload(ukey, upload).batch_size, 128u);
  EXPECT_EQ(cache.GetUpload(ukey, upload).batch_size, 128u);
  EXPECT_EQ(upload_computes, 1);

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.admission_hits, 1u);
  EXPECT_EQ(stats.admission_misses, 1u);
  EXPECT_EQ(stats.upload_hits, 1u);
  EXPECT_EQ(stats.upload_misses, 1u);
}

TEST(PlanCacheTest, ErrorsAreNotMemoized) {
  PlanCache cache;
  PlanCache::AdmissionKey key;
  int computes = 0;
  auto failing = [&]() -> Result<AdmissionPlan> {
    ++computes;
    return Status::Internal("boom");
  };
  EXPECT_FALSE(cache.GetAdmission(key, failing).ok());
  EXPECT_FALSE(cache.GetAdmission(key, failing).ok());
  EXPECT_EQ(computes, 2);
}

// ---------------------------------------------------------------------------
// Executor wiring (standalone, no service)

struct Dataset {
  PolygonSet polys;
  PointTable points;
};

Dataset MakeDataset(std::size_t num_polys, std::size_t num_points,
                    std::uint64_t seed) {
  Dataset d;
  auto polys = TinyRegions(num_polys, BBox(0, 0, 1000, 1000), seed);
  EXPECT_TRUE(polys.ok());
  d.polys = polys.value();
  Rng rng(seed * 131 + 7);
  d.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    d.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return d;
}

void ExpectSamePayload(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], b.values[i]) << i;
    EXPECT_EQ(a.arrays.count[i], b.arrays.count[i]) << i;
    EXPECT_EQ(a.arrays.sum[i], b.arrays.sum[i]) << i;
    EXPECT_EQ(a.arrays.min[i], b.arrays.min[i]) << i;
    EXPECT_EQ(a.arrays.max[i], b.arrays.max[i]) << i;
  }
  ASSERT_EQ(a.ranges.loose.size(), b.ranges.loose.size());
  for (std::size_t i = 0; i < a.ranges.loose.size(); ++i) {
    EXPECT_EQ(a.ranges.loose[i].lower, b.ranges.loose[i].lower);
    EXPECT_EQ(a.ranges.loose[i].upper, b.ranges.loose[i].upper);
    EXPECT_EQ(a.ranges.expected[i].lower, b.ranges.expected[i].lower);
    EXPECT_EQ(a.ranges.expected[i].upper, b.ranges.expected[i].upper);
  }
}

gpu::DeviceOptions SmallDevice() {
  gpu::DeviceOptions options;
  options.memory_budget_bytes = 8 << 20;
  options.max_fbo_dim = 512;
  return options;
}

TEST(ExecutorCacheTest, RepeatedQueryHitsWithIdenticalPayload) {
  Dataset data = MakeDataset(8, 5000, 31);
  gpu::Device device(SmallDevice());
  Executor executor(&device, &data.points, &data.polys);
  ResultCache cache;
  executor.set_result_cache(&cache, /*dataset_key=*/42);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 8.0;
  query.spec.with_result_ranges = true;

  auto miss = executor.Execute(query);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_FALSE(miss.value().cache_hit);

  // A repeat with different execution knobs must still hit (the knobs are
  // excluded from the key precisely because results are identical).
  SpatialAggQuery knobbed = query;
  knobbed.policy.device_memory_cap_bytes = 64 << 10;
  knobbed.policy.overlap_transfers = false;
  const gpu::CountersSnapshot before = device.counters().Snapshot();
  auto hit = executor.Execute(knobbed);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  ExpectSamePayload(miss.value(), hit.value());
  // No device work on a hit, and the diagnostics are scrubbed rather than
  // replayed from the miss.
  const gpu::CountersSnapshot delta =
      device.counters().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.bytes_transferred, 0u);
  EXPECT_EQ(delta.fragments, 0u);
  EXPECT_EQ(delta.render_passes, 0u);
  EXPECT_EQ(hit.value().timing.Total(), 0.0);
  EXPECT_EQ(hit.value().counters.bytes_transferred, 0u);

  // Permuted-but-equivalent filters hit the same entry.
  SpatialAggQuery f1 = query;
  f1.spec.filters = MakeFilters({F(0, FilterOp::kGreater, 3.0f),
                                 F(0, FilterOp::kLess, 90.0f)});
  SpatialAggQuery f2 = query;
  f2.spec.filters = MakeFilters({F(0, FilterOp::kLess, 90.0f),
                                 F(0, FilterOp::kGreater, 3.0f)});
  auto fmiss = executor.Execute(f1);
  ASSERT_TRUE(fmiss.ok());
  EXPECT_FALSE(fmiss.value().cache_hit);
  auto fhit = executor.Execute(f2);
  ASSERT_TRUE(fhit.ok());
  EXPECT_TRUE(fhit.value().cache_hit);
  ExpectSamePayload(fmiss.value(), fhit.value());
}

TEST(ExecutorCacheTest, VersionBumpInvalidates) {
  Dataset data = MakeDataset(6, 3000, 33);
  gpu::Device device(SmallDevice());
  Executor executor(&device, &data.points, &data.polys);
  ResultCache cache;
  executor.set_result_cache(&cache, 0);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 10.0;

  ASSERT_TRUE(executor.Execute(query).ok());
  auto hit = executor.Execute(query);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);

  // Explicit bump: the next execution misses (and re-caches).
  executor.BumpDatasetVersion();
  auto after_bump = executor.Execute(query);
  ASSERT_TRUE(after_bump.ok());
  EXPECT_FALSE(after_bump.value().cache_hit);
}

TEST(ExecutorCacheTest, CachedHitsMatchUncachedAcrossShards) {
  // The exclusion argument end-to-end: the shard count is not part of the
  // cache key because results are bitwise identical across it — so a hit
  // taken on any shard configuration must equal the single-device
  // uncached baseline exactly, §5 ranges included.
  Dataset data = MakeDataset(8, 6000, 37);
  gpu::Device base_device(SmallDevice());
  Executor base(&base_device, &data.points, &data.polys);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 8.0;
  query.spec.aggregate = AggregateKind::kSum;
  query.spec.aggregate_column = 0;
  query.spec.with_result_ranges = true;
  auto expected = base.ExecuteUncached(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (const std::size_t shards : {1u, 2u, 4u}) {
    gpu::DevicePoolOptions pool_options;
    pool_options.num_devices = shards;
    pool_options.device = SmallDevice();
    gpu::DevicePool pool(pool_options);

    data::ShardingOptions sharding;
    sharding.num_shards = shards;
    sharding.policy = data::ShardPolicy::kRoundRobin;
    auto table = data::ShardedTable::Partition(data.points, sharding);
    ASSERT_TRUE(table.ok());

    Executor executor(&pool, &table.value(), &data.polys);
    ResultCache cache;
    executor.set_result_cache(&cache, 0);

    auto miss = executor.Execute(query);
    ASSERT_TRUE(miss.ok()) << shards << " shards: "
                           << miss.status().ToString();
    EXPECT_FALSE(miss.value().cache_hit);
    ExpectSamePayload(expected.value(), miss.value());

    auto hit = executor.Execute(query);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.value().cache_hit);
    ExpectSamePayload(expected.value(), hit.value());
  }
}

TEST(ExecutorCacheTest, PlanCacheHitsOnRepeatedAdmission) {
  Dataset data = MakeDataset(6, 2000, 35);
  gpu::Device device(SmallDevice());
  Executor executor(&device, &data.points, &data.polys);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  auto p1 = executor.PlanAdmission(query);
  auto p2 = executor.PlanAdmission(query);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value().min_bytes, p2.value().min_bytes);
  EXPECT_EQ(p1.value().full_bytes, p2.value().full_bytes);
  EXPECT_EQ(p1.value().fixed_bytes, p2.value().fixed_bytes);
  const PlanCacheStats stats = executor.plan_cache_stats();
  EXPECT_EQ(stats.admission_misses, 1u);
  EXPECT_GE(stats.admission_hits, 1u);
}

}  // namespace
}  // namespace rj::query
