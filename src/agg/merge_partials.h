/// \file merge_partials.h
/// \brief Deterministic gather step of the Executor's scatter-gather:
/// merges per-shard partial aggregates, counters, and phase timings.
///
/// The Executor runs the join independently on each shard's device and
/// combines the partials here, in ascending shard order, so the merged
/// result is a pure function of the shard outputs — independent of which
/// shard finished first.
///
/// Exactness contract (the basis of the sharded-determinism guarantee,
/// docs/SERVICE.md):
///  * ResultArrays — COUNT merges exactly for any partition (integer sums
///    in double); MIN/MAX merge exactly always; SUM merges exactly whenever
///    the per-shard partial sums are exactly representable (e.g. integer
///    weights).
///  * Counters — unsigned integer sums, always exact.
///  * §5 result ranges are not merged here: their expected bounds sum
///    per-pixel area×count products, whose regrouping across shards would
///    drift by FP rounding, so the Executor computes them once from the
///    gathered point FBO (Executor::ExecuteFused).
///  * PhaseTimer — phases sum name-wise: the merged breakdown is aggregate
///    device time (Σ over shards), not wall time, which parallel shards
///    overlap.
#pragma once

#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "gpu/counters.h"
#include "raster/pipeline.h"

namespace rj::agg {

/// One shard's gathered outputs. Default-constructed members mean "this
/// shard produced nothing of that kind" (zero-size arrays are skipped by
/// the merge, so shards that executed no work — a routing-skipped shard,
/// say — need no special casing).
struct ShardPartial {
  raster::ResultArrays arrays{0};
  gpu::CountersSnapshot counters;
  PhaseTimer timing;
};

/// The gathered whole.
struct MergedPartials {
  raster::ResultArrays arrays{0};
  gpu::CountersSnapshot counters;
  PhaseTimer timing;
};

/// Merges shard partials in ascending index order. Non-empty arrays must
/// agree on the polygon count across shards — mismatch is an
/// InvalidArgument, the scatter produced partials of different queries.
/// An all-empty input merges to empty partials.
Result<MergedPartials> MergePartials(const std::vector<ShardPartial>& parts);

}  // namespace rj::agg
