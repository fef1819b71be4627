#include "agg/merge_partials.h"

#include <string>

namespace rj::agg {

Result<MergedPartials> MergePartials(const std::vector<ShardPartial>& parts) {
  MergedPartials merged;

  // Establish the polygon count from the first non-empty shard; every
  // later non-empty shard must agree.
  std::size_t num_polygons = 0;
  bool have_arrays = false;
  for (const ShardPartial& part : parts) {
    if (part.arrays.count.size() == 0) continue;
    if (!have_arrays) {
      num_polygons = part.arrays.count.size();
      have_arrays = true;
    } else if (part.arrays.count.size() != num_polygons) {
      return Status::InvalidArgument(
          "shard partials disagree on polygon count: " +
          std::to_string(num_polygons) + " vs " +
          std::to_string(part.arrays.count.size()));
    }
  }
  if (have_arrays) {
    merged.arrays.Resize(num_polygons);
    for (const ShardPartial& part : parts) {
      if (part.arrays.count.size() == 0) continue;
      merged.arrays.AddFrom(part.arrays);
    }
  }

  for (const ShardPartial& part : parts) {
    merged.counters = merged.counters.Plus(part.counters);
    for (const auto& [name, seconds] : part.timing.phases()) {
      merged.timing.Add(name, seconds);
    }
  }
  return merged;
}

}  // namespace rj::agg
