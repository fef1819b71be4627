/// \file counters.h
/// \brief Work-proportional performance counters for the simulated device.
///
/// On a machine whose core count differs from the paper's testbed, wall
/// clock alone cannot reproduce speedup *ratios*. These counters meter the
/// algorithmic work each join variant performs (fragments shaded, PIP tests,
/// bytes transferred host→device, atomic accumulations), which is machine
/// independent and determines the paper's performance ordering.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace rj::gpu {

/// The counter list: X(field, AddSuffix, label) per counter. `field` names
/// the CountersSnapshot member and the Counters getter, `AddSuffix` the
/// Counters::Add* method, and `label` the ToString key. Every per-counter
/// member below is generated from this one list, so adding a counter is
/// one line here.
#define RJ_DEVICE_COUNTERS(X)                                              \
  X(fragments, Fragments, "fragments")                                     \
  X(vertices, VerticesProcessed, "vertices")                               \
  X(bytes_transferred, BytesTransferred, "bytes")                          \
  X(atomic_adds, AtomicAdds, "atomics")                                    \
  X(pip_tests, PipTests, "pip")                                            \
  X(render_passes, RenderPasses, "passes")                                 \
  X(batches, Batches, "batches")                                           \
  /* zone-map decisions: block read / block skipped */                     \
  X(blocks_scanned, BlocksScanned, "blocks")                               \
  X(blocks_pruned, BlocksPruned, "pruned")                                 \
  /* routing decisions: shard executed / shard skipped */                  \
  X(shards_routed, ShardsRouted, "shards")                                 \
  X(shards_skipped, ShardsSkipped, "shards_skipped")

/// Plain-value copy of a Counters instance at one point in time. Copyable
/// (unlike Counters, whose atomics pin it in place), so QueryService can
/// attach per-query accounting snapshots to futures-based results.
struct CountersSnapshot {
#define RJ_SNAPSHOT_FIELD(field, suffix, label) std::uint64_t field = 0;
  RJ_DEVICE_COUNTERS(RJ_SNAPSHOT_FIELD)
#undef RJ_SNAPSHOT_FIELD

  /// Per-field difference (work performed between two snapshots).
  CountersSnapshot DeltaSince(const CountersSnapshot& earlier) const {
    CountersSnapshot d;
#define RJ_SNAPSHOT_DELTA(field, suffix, label) \
  d.field = this->field - earlier.field;
    RJ_DEVICE_COUNTERS(RJ_SNAPSHOT_DELTA)
#undef RJ_SNAPSHOT_DELTA
    return d;
  }

  /// Per-field sum (the dual of DeltaSince; pool totals and sharded
  /// gather both merge snapshots with this).
  CountersSnapshot Plus(const CountersSnapshot& other) const {
    CountersSnapshot s;
#define RJ_SNAPSHOT_PLUS(field, suffix, label) \
  s.field = this->field + other.field;
    RJ_DEVICE_COUNTERS(RJ_SNAPSHOT_PLUS)
#undef RJ_SNAPSHOT_PLUS
    return s;
  }
};

/// Aggregated counters for one query execution. Thread-safe increments.
class Counters {
 public:
  void Reset();

  /// Point-in-time copy of every counter (thread-safe reads).
  CountersSnapshot Snapshot() const;

#define RJ_COUNTER_ACCESSORS(field, suffix, label)                 \
  void Add##suffix(std::uint64_t n) { field##_ += n; }             \
  std::uint64_t field() const { return field##_; }
  RJ_DEVICE_COUNTERS(RJ_COUNTER_ACCESSORS)
#undef RJ_COUNTER_ACCESSORS

  std::string ToString() const;

 private:
#define RJ_COUNTER_ATOMIC(field, suffix, label) \
  std::atomic<std::uint64_t> field##_{0};
  RJ_DEVICE_COUNTERS(RJ_COUNTER_ATOMIC)
#undef RJ_COUNTER_ATOMIC
};

}  // namespace rj::gpu
