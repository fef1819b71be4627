/// \file result.h
/// \brief Finalized result of a spatial aggregation query.
#pragma once

#include <vector>

#include "agg/result_range.h"
#include "common/timer.h"
#include "gpu/counters.h"
#include "join/join_common.h"

namespace rj {

/// Per-polygon aggregate values plus execution diagnostics.
struct QueryResult {
  /// values[id] is AGG for polygon `id` (NaN for empty AVG/MIN/MAX groups).
  std::vector<double> values;
  /// Raw partial aggregates (counts and sums), useful for re-finalizing.
  raster::ResultArrays arrays{0};
  /// §5 intervals when requested (empty otherwise).
  ResultRanges ranges;
  /// Phase breakdown (transfer / processing / index_build / ...).
  PhaseTimer timing;
  /// Device work attributed to this query, filled by every execution:
  /// per-device deltas merged in shard order via agg::MergePartials, plus
  /// the routing decisions. Exact when no other query overlapped —
  /// counters live on the Device, where concurrent queries share one
  /// meter.
  gpu::CountersSnapshot counters;
  /// Total wall time of Execute().
  double total_seconds = 0.0;
  /// True when this result was served from a query::ResultCache instead of
  /// executing the join. The semantic payload (values/arrays/ranges) is
  /// bitwise identical to a fresh execution; the diagnostics above are
  /// scrubbed on a hit (empty timing, zero counters, lookup-only
  /// total_seconds) so a hit never replays the miss's execution stats.
  bool cache_hit = false;
};

}  // namespace rj
