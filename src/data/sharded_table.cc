#include "data/sharded_table.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rj::data {

namespace {

/// Quantizes a coordinate into [0, cells-1] over [lo, hi]. Degenerate
/// extents (all points share a coordinate) collapse to cell 0.
std::uint32_t Quantize(double v, double lo, double hi, std::uint64_t cells) {
  if (hi <= lo) return 0;
  const double t = (v - lo) / (hi - lo);
  auto cell = static_cast<std::int64_t>(t * static_cast<double>(cells));
  cell = std::clamp<std::int64_t>(cell, 0, static_cast<std::int64_t>(cells) - 1);
  return static_cast<std::uint32_t>(cell);
}

/// Copies the rows of `base` named by indexes [begin, end) of `order` into
/// a fresh table with the same schema.
PointTable GatherRows(const PointTable& base,
                      const std::vector<std::size_t>& order,
                      std::size_t begin, std::size_t end) {
  PointTable out;
  for (std::size_t c = 0; c < base.num_attributes(); ++c) {
    out.AddAttribute(base.attribute_name(c));
  }
  out.Reserve(end - begin);
  std::vector<float> vals(base.num_attributes());
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t i = order[k];
    for (std::size_t c = 0; c < base.num_attributes(); ++c) {
      vals[c] = base.attribute(c)[i];
    }
    out.Append(base.xs()[i], base.ys()[i], vals);
  }
  return out;
}

}  // namespace

std::string ShardPolicyName(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kRoundRobin: return "round-robin";
    case ShardPolicy::kHilbert: return "hilbert";
  }
  return "?";
}

std::uint64_t HilbertIndex(std::uint32_t order, std::uint32_t x,
                           std::uint32_t y) {
  // Standard iterative xy→d conversion (Hilbert 1891 via Warren, Hacker's
  // Delight §16): walk quadrants from the top bit down, rotating the frame.
  std::uint64_t d = 0;
  for (std::uint32_t s = order; s-- > 0;) {
    const std::uint32_t rx = (x >> s) & 1u;
    const std::uint32_t ry = (y >> s) & 1u;
    d += (static_cast<std::uint64_t>((3u * rx) ^ ry)) << (2 * s);
    // Rotate the sub-square so the next level sees canonical orientation.
    if (ry == 0) {
      if (rx == 1) {
        // Reflect within the sub-square: only bits below s are still live.
        const std::uint32_t mask = (1u << s) - 1u;
        x = mask & ~x;
        y = mask & ~y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

Result<ShardedTable> ShardedTable::Partition(const PointTable& base,
                                             const ShardingOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  if (options.policy == ShardPolicy::kHilbert &&
      (options.hilbert_order == 0 || options.hilbert_order > 31)) {
    return Status::InvalidArgument("hilbert_order must be in [1, 31]");
  }

  ShardedTable out;
  out.options_ = options;
  out.extent_ = base.Extent();
  out.total_points_ = base.size();

  const std::size_t n = base.size();
  const std::size_t s_count = options.num_shards;

  // Row order determines the shard cut. Round-robin keeps original order
  // (interleaved assignment below); Hilbert sorts by curve index with the
  // original index as tiebreak, so equal cells keep insertion order and
  // the partition is fully deterministic.
  if (options.policy == ShardPolicy::kRoundRobin) {
    // Shard s takes rows s, s+S, s+2S, ... in original order: gather the
    // strided index list per shard.
    out.shards_.reserve(s_count);
    for (std::size_t s = 0; s < s_count; ++s) {
      std::vector<std::size_t> picks;
      picks.reserve(n / s_count + 1);
      for (std::size_t i = s; i < n; i += s_count) picks.push_back(i);
      out.shards_.push_back(GatherRows(base, picks, 0, picks.size()));
    }
  } else {
    const std::uint64_t cells = 1ull << options.hilbert_order;
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t cx =
          Quantize(base.xs()[i], out.extent_.min_x, out.extent_.max_x, cells);
      const std::uint32_t cy =
          Quantize(base.ys()[i], out.extent_.min_y, out.extent_.max_y, cells);
      keys[i] = HilbertIndex(options.hilbert_order, cx, cy);
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&keys](std::size_t a, std::size_t b) {
                       return keys[a] < keys[b];
                     });

    // S-1 ascending cut keys: shard s covers keys in [cuts[s-1], cuts[s]).
    // Duplicate cut keys are legal and yield empty shards. The cuts are
    // sample quantiles of the observed keys: a deterministic strided
    // sample (first row of every stride, ascending original index) is
    // sorted and cut at ranks s/S. Cutting on key values rather than
    // sorted positions keeps equal keys together, so shard key ranges are
    // disjoint and the per-shard bounding boxes stay compact.
    const std::size_t target = std::min<std::size_t>(
        n, std::max<std::size_t>(s_count * 1024, std::size_t{16384}));
    std::vector<std::uint64_t> sample;
    if (target > 0) {
      const std::size_t stride = std::max<std::size_t>(1, n / target);
      sample.reserve(n / stride + 1);
      for (std::size_t i = 0; i < n; i += stride) sample.push_back(keys[i]);
      std::sort(sample.begin(), sample.end());
    }
    std::vector<std::uint64_t> cuts;
    cuts.reserve(s_count - 1);
    for (std::size_t s = 1; s < s_count; ++s) {
      cuts.push_back(sample.empty() ? 0
                                    : sample[s * sample.size() / s_count]);
    }

    // The sorted order is contiguous per shard (assignment is monotone in
    // key), so each cut key maps to one boundary position via lower_bound
    // over the sorted keys.
    std::vector<std::size_t> bounds;
    bounds.reserve(s_count + 1);
    bounds.push_back(0);
    for (const std::uint64_t cut : cuts) {
      auto it = std::lower_bound(order.begin(), order.end(), cut,
                                 [&keys](std::size_t idx, std::uint64_t k) {
                                   return keys[idx] < k;
                                 });
      bounds.push_back(static_cast<std::size_t>(it - order.begin()));
    }
    bounds.push_back(n);
    out.shards_.reserve(s_count);
    for (std::size_t s = 0; s < s_count; ++s) {
      out.shards_.push_back(GatherRows(base, order, bounds[s], bounds[s + 1]));
    }
  }

  out.zones_.reserve(out.shards_.size());
  for (const PointTable& shard : out.shards_) {
    out.max_shard_points_ = std::max(out.max_shard_points_, shard.size());
    out.zones_.push_back(ComputeZoneMap(shard, 0, shard.size()));
  }
  return out;
}

}  // namespace rj::data
