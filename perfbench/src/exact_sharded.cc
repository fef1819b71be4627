/// \file exact_sharded.cc
/// \brief Workload exact_sharded: exact (accurate-variant) aggregations
/// submitted in-process through QueryService::Submit over a Hilbert-sharded
/// table on a two-device pool.
///
/// Loads shard scatter-gather (per-shard boundary pass, PIP tests, per-shard
/// threads, MergePartials) and the result cache as insert/evict. Bypasses:
/// HTTP, the cache-hit path and the disk tier.
///
/// 32 specs (fare floor × distance cap × aggregate) on a fixed 1024² canvas
/// are requested in a seeded cyclic order. Each request inserts its whole
/// result plus one partial per executed shard, so the working set is ~96
/// entries against a cache sized to 24 (three entries per lock shard): the
/// cyclic reuse distance is always larger than the cache, so every request
/// misses, inserts and evicts whatever the seed.
#include "data/datasets.h"
#include "data/sharded_table.h"
#include "data/taxi_generator.h"
#include "harness.h"
#include "query/query_spec.h"

namespace perfbench {
namespace {

constexpr std::size_t kPoints = 1'000'000;
constexpr double kNominalRate = 10.0;
constexpr std::int32_t kCanvas = 1024;
constexpr std::size_t kDevices = 2;
constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkersPerDevice = 1;
constexpr std::size_t kCacheLockShards = 8;
constexpr std::size_t kEntriesPerLockShard = 3;
/// First requests of the cycle, run before timing.
constexpr std::size_t kWarmRequests = 8;

/// Fare floor × distance cap × {SUM(fare), AVG(distance)}.
std::vector<rj::QuerySpec> BuildSpecs() {
  const float kFareFloors[] = {5.0f, 10.0f, 15.0f, 20.0f};
  const float kDistanceCaps[] = {2.0f, 4.0f, 8.0f, 16.0f};
  std::vector<rj::QuerySpec> specs;
  for (const float fare : kFareFloors) {
    for (const float distance : kDistanceCaps) {
      for (int agg = 0; agg < 2; ++agg) {
        rj::QuerySpecBuilder builder;
        builder.Dataset("taxi")
            .Variant(rj::JoinVariant::kAccurateRaster)
            .CanvasDim(kCanvas)
            .Filter(rj::kTaxiFare, rj::FilterOp::kGreaterEqual, fare)
            .Filter(rj::kTaxiDistance, rj::FilterOp::kLessEqual, distance);
        if (agg == 0) {
          builder.Sum(rj::kTaxiFare);
        } else {
          builder.Average(rj::kTaxiDistance);
        }
        specs.push_back(builder.Build().value());
      }
    }
  }
  return specs;
}

class ExactSharded final : public CyclicSpecWorkload {
 public:
  ~ExactSharded() override { TearDown(); }

  rj::Status Generate(const Options& options) override {
    rj::TaxiGeneratorOptions taxi;
    taxi.seed = DeriveSeed(options.seed, 11);
    points_ = rj::GenerateTaxiPoints(Scaled(kPoints, options.scale, 20'000),
                                     taxi);
    num_points_ = points_.size();
    RJ_ASSIGN_OR_RETURN(polys_, rj::NycNeighborhoods());
    SetTrace(BuildSpecs(), DeriveSeed(options.seed, 13), kNominalRate,
             options);
    // Estimated cache footprint of one result: the per-polygon payload
    // vectors (values plus four partial-aggregate arrays) and a fixed
    // allowance for key, list node and phase map.
    entry_bytes_ = 1024 + 5 * sizeof(double) * polys_.size();
    cache_bytes_ = kCacheLockShards * kEntriesPerLockShard * entry_bytes_;
    return rj::Status::OK();
  }

  rj::Status SetUp(SetupTimes* times) override {
    TearDown();
    rj::data::ShardingOptions sharding;
    sharding.num_shards = kShards;
    sharding.policy = rj::data::ShardPolicy::kHilbert;
    {
      SetupLap lap(times->spans, "data.ShardedTable::Partition",
                   &times->load_s);
      RJ_ASSIGN_OR_RETURN(
          rj::data::ShardedTable table,
          rj::data::ShardedTable::Partition(points_, sharding));
      shards_ = std::make_unique<rj::data::ShardedTable>(std::move(table));
    }

    rj::gpu::DevicePoolOptions pool;
    pool.num_devices = kDevices;
    pool.device.num_workers = kWorkersPerDevice;
    pool.device.max_fbo_dim = 4096;
    pool_ = std::make_unique<rj::gpu::DevicePool>(pool);
    rj::service::ServiceOptions service;
    service.num_dispatchers = kDispatchers;
    service.result_cache_bytes = cache_bytes_;
    service.result_cache_shards = kCacheLockShards;
    service_ =
        std::make_unique<rj::service::QueryService>(pool_.get(), service);
    {
      SetupLap lap(times->spans, "service.QueryService::RegisterShardedDataset",
                   &times->register_s);
      dataset_ =
          service_->RegisterShardedDataset(shards_.get(), &polys_, "taxi");
    }
    {
      SetupLap lap(times->spans, "triangulate.Executor::GetTriangulation",
                   &times->prep_s);
      RJ_RETURN_NOT_OK(executor()->GetTriangulation().status());
    }
    return rj::Status::OK();
  }

  /// The shards own copies of the points.
  void DropInputs() override { points_ = rj::PointTable(); }

  std::size_t warm_requests() const override { return kWarmRequests; }

  std::vector<std::pair<std::string, std::string>> Facts() const override {
    const std::size_t working_set = specs_.size() * (1 + kShards);
    return {
        {"points", std::to_string(num_points_) + " (in memory)"},
        {"polygons", std::to_string(polys_.size())},
        {"specs", std::to_string(specs_.size()) + " accurate, canvas " +
                      std::to_string(kCanvas) + ", cyclic seeded order"},
        {"shards", std::to_string(kShards) + " (Hilbert, quantile cuts)"},
        {"devices", std::to_string(kDevices)},
        {"device_workers", std::to_string(kWorkersPerDevice) + " per device"},
        {"result_cache_bytes", std::to_string(cache_bytes_)},
        {"result_cache_lock_shards", std::to_string(kCacheLockShards)},
        {"result_cache_per_lock_shard_bytes",
         std::to_string(cache_bytes_ / kCacheLockShards)},
        {"estimated_entry_bytes", std::to_string(entry_bytes_)},
        {"cache_working_set",
         std::to_string(working_set) + " entries vs " +
             std::to_string(kCacheLockShards * kEntriesPerLockShard) +
             " capacity"},
        {"transport", "in-process QueryService::Submit"},
    };
  }

  void TearDown() override {
    service_.reset();
    pool_.reset();
    shards_.reset();
  }

 private:
  rj::PointTable points_;
  std::size_t num_points_ = 0;
  rj::PolygonSet polys_;
  std::size_t entry_bytes_ = 0;
  std::size_t cache_bytes_ = 0;
  std::unique_ptr<rj::data::ShardedTable> shards_;
  std::unique_ptr<rj::gpu::DevicePool> pool_;
};

}  // namespace

std::unique_ptr<Workload> MakeExactSharded() {
  return std::make_unique<ExactSharded>();
}

}  // namespace perfbench
