/// \file sharded_table.h
/// \brief Partition of a PointTable into per-device shards.
///
/// The paper's P relation lives on one GPU; scaling past a single device's
/// memory (ROADMAP "dataset sharding") means splitting the point set into
/// shards, one per gpu::Device in a DevicePool, and scatter-gathering the
/// join. Because every distributive aggregate merges exactly across
/// disjoint partitions (docs/SERVICE.md "Determinism under sharding"), the
/// partition policy is a pure performance/placement choice:
///
///  * kRoundRobin — point i lands on shard i mod S. Perfectly balanced and
///    insertion-order-preserving within a shard; every shard sees the whole
///    spatial extent, so all shards rasterize all canvas tiles (the right
///    default for skew-free load spreading).
///  * kHilbert — points are ordered along a Hilbert space-filling curve
///    over the dataset extent and cut into S contiguous key ranges. Each
///    shard covers a compact region (cf. the LSST multi-petabyte design's
///    spatial chunking), which keeps per-shard working sets small for
///    spatially-selective workloads. The cuts fall at sample quantiles of
///    the points' Hilbert keys, so row counts stay near-balanced even on
///    heavily clustered (Zipf-like) data. Equal keys never split across a
///    cut, so shard key ranges are disjoint.
///
/// Every policy additionally records a per-shard BlockZoneMap (bounding
/// box + per-column min/max) at construction; the executor's
/// spatially-selective routing prunes shards with it exactly as the block
/// scan prunes blocks (join::ZoneMapCanMatch, conservative-exact).
///
/// Both policies are deterministic: the same table and options always
/// produce byte-identical shards (Hilbert ties break on original index).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/point_block_source.h"
#include "data/point_table.h"
#include "geometry/bbox.h"

namespace rj::data {

/// How points are assigned to shards.
enum class ShardPolicy {
  kRoundRobin,
  kHilbert,
};

/// Human-readable policy name ("round-robin", "hilbert").
std::string ShardPolicyName(ShardPolicy policy);

/// Configuration of one partitioning run.
struct ShardingOptions {
  std::size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kRoundRobin;
  /// Hilbert curve order: the extent is quantized onto a 2^order × 2^order
  /// grid before curve indexing. 16 gives ~65k cells per axis — far below
  /// double precision, far above any realistic shard count.
  std::uint32_t hilbert_order = 16;
};

/// An immutable set of shards cut from one PointTable. Shards own copies
/// of their rows (each will live in a different device's memory; in a real
/// cluster they would not even share an address space), and the table
/// remembers the full dataset extent so every shard rasterizes on the same
/// canvas — the alignment sharded determinism depends on.
class ShardedTable {
 public:
  /// Partitions `base` into options.num_shards shards. The base table is
  /// not referenced after this returns. Fewer points than shards is legal
  /// (trailing shards stay empty); zero shards is an error.
  static Result<ShardedTable> Partition(const PointTable& base,
                                        const ShardingOptions& options);

  std::size_t num_shards() const { return shards_.size(); }
  const PointTable& shard(std::size_t i) const { return shards_[i]; }

  /// Zone map of shard i (bounding box + per-column min/max), computed at
  /// construction. Empty shards carry the canonical empty zone (default
  /// BBox, ±inf column ranges) that ZoneMapCanMatch never matches.
  const BlockZoneMap& shard_zone(std::size_t i) const { return zones_[i]; }

  /// Total rows across every shard (= the base table's size).
  std::size_t total_points() const { return total_points_; }
  /// Largest single shard (the per-device residency bound admission plans
  /// against).
  std::size_t max_shard_points() const { return max_shard_points_; }

  /// Extent of the *whole* dataset, not any one shard.
  const BBox& extent() const { return extent_; }

  const ShardingOptions& options() const { return options_; }
  ShardPolicy policy() const { return options_.policy; }

 private:
  ShardedTable() = default;

  std::vector<PointTable> shards_;
  std::vector<BlockZoneMap> zones_;
  BBox extent_;
  std::size_t total_points_ = 0;
  std::size_t max_shard_points_ = 0;
  ShardingOptions options_;
};

/// Distance along the order-`order` Hilbert curve of grid cell (x, y);
/// x and y must be < 2^order. Exposed for tests (locality properties) and
/// reusable by future spatial-placement policies.
std::uint64_t HilbertIndex(std::uint32_t order, std::uint32_t x,
                           std::uint32_t y);

}  // namespace rj::data
