/// \file merge_partials_test.cc
/// \brief agg::MergePartials in isolation: empty shards, counter and
/// timing summation, and mismatch errors.
#include "agg/merge_partials.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace rj::agg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ShardPartial MakeArraysPartial(std::vector<double> count,
                               std::vector<double> sum,
                               std::vector<double> min,
                               std::vector<double> max) {
  ShardPartial p;
  p.arrays.Resize(count.size());
  p.arrays.count = std::move(count);
  p.arrays.sum = std::move(sum);
  p.arrays.min = std::move(min);
  p.arrays.max = std::move(max);
  return p;
}

TEST(MergePartialsTest, NoPartialsMergeToEmpty) {
  auto merged = MergePartials({});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().arrays.count.size(), 0u);
  EXPECT_EQ(merged.value().counters.fragments, 0u);
}

TEST(MergePartialsTest, SumsArraysInShardOrder) {
  std::vector<ShardPartial> parts;
  parts.push_back(MakeArraysPartial({2, 0}, {10, 0}, {3, kInf}, {7, -kInf}));
  parts.push_back(MakeArraysPartial({1, 4}, {5, 8}, {1, 2}, {1, 9}));

  auto merged = MergePartials(parts);
  ASSERT_TRUE(merged.ok());
  const raster::ResultArrays& a = merged.value().arrays;
  EXPECT_EQ(a.count, (std::vector<double>{3, 4}));
  EXPECT_EQ(a.sum, (std::vector<double>{15, 8}));
  EXPECT_EQ(a.min, (std::vector<double>{1, 2}));
  EXPECT_EQ(a.max, (std::vector<double>{7, 9}));
}

TEST(MergePartialsTest, EmptyShardsAreIdentity) {
  // An empty shard contributes zero counts/sums and ±inf min/max
  // identities; a shard that produced nothing at all (zero-size arrays) is
  // skipped. Neither may perturb the merged result.
  std::vector<ShardPartial> parts;
  parts.push_back(MakeArraysPartial({5}, {20}, {2}, {6}));
  parts.push_back(MakeArraysPartial({0}, {0}, {kInf}, {-kInf}));  // no rows
  parts.emplace_back();  // produced nothing (default ShardPartial)
  parts.push_back(MakeArraysPartial({1}, {3}, {1}, {1}));

  auto merged = MergePartials(parts);
  ASSERT_TRUE(merged.ok());
  const raster::ResultArrays& a = merged.value().arrays;
  EXPECT_EQ(a.count, (std::vector<double>{6}));
  EXPECT_EQ(a.sum, (std::vector<double>{23}));
  EXPECT_EQ(a.min, (std::vector<double>{1}));
  EXPECT_EQ(a.max, (std::vector<double>{6}));
}

TEST(MergePartialsTest, AllEmptyShardsKeepAggregateIdentities) {
  std::vector<ShardPartial> parts;
  parts.push_back(MakeArraysPartial({0}, {0}, {kInf}, {-kInf}));
  parts.push_back(MakeArraysPartial({0}, {0}, {kInf}, {-kInf}));

  auto merged = MergePartials(parts);
  ASSERT_TRUE(merged.ok());
  const raster::ResultArrays& a = merged.value().arrays;
  EXPECT_EQ(a.count[0], 0.0);
  EXPECT_EQ(a.min[0], kInf);
  EXPECT_EQ(a.max[0], -kInf);
}

TEST(MergePartialsTest, PolygonCountMismatchIsError) {
  std::vector<ShardPartial> parts;
  parts.push_back(MakeArraysPartial({1, 2}, {0, 0}, {0, 0}, {0, 0}));
  parts.push_back(MakeArraysPartial({1}, {0}, {0}, {0}));
  auto merged = MergePartials(parts);
  EXPECT_FALSE(merged.ok());
}

TEST(MergePartialsTest, SumsCountersFieldWise) {
  std::vector<ShardPartial> parts(3);
  parts[0].counters.fragments = 10;
  parts[0].counters.bytes_transferred = 100;
  parts[0].counters.batches = 1;
  parts[1].counters.fragments = 5;
  parts[1].counters.pip_tests = 7;
  parts[2].counters.bytes_transferred = 11;
  parts[2].counters.render_passes = 2;

  auto merged = MergePartials(parts);
  ASSERT_TRUE(merged.ok());
  const gpu::CountersSnapshot& c = merged.value().counters;
  EXPECT_EQ(c.fragments, 15u);
  EXPECT_EQ(c.bytes_transferred, 111u);
  EXPECT_EQ(c.pip_tests, 7u);
  EXPECT_EQ(c.render_passes, 2u);
  EXPECT_EQ(c.batches, 1u);
  EXPECT_EQ(c.atomic_adds, 0u);
}

TEST(MergePartialsTest, SumsTimingPhases) {
  std::vector<ShardPartial> parts(2);
  parts[0].timing.Add("transfer", 1.0);
  parts[0].timing.Add("processing", 2.0);
  parts[1].timing.Add("transfer", 0.5);

  auto merged = MergePartials(parts);
  ASSERT_TRUE(merged.ok());
  EXPECT_DOUBLE_EQ(merged.value().timing.Get("transfer"), 1.5);
  EXPECT_DOUBLE_EQ(merged.value().timing.Get("processing"), 2.0);
}

TEST(MergePartialsTest, CountersSnapshotPlusIsFieldWise) {
  gpu::CountersSnapshot a, b;
  a.fragments = 1;
  a.vertices = 2;
  a.atomic_adds = 3;
  b.fragments = 10;
  b.vertices = 20;
  b.atomic_adds = 30;
  const gpu::CountersSnapshot s = a.Plus(b);
  EXPECT_EQ(s.fragments, 11u);
  EXPECT_EQ(s.vertices, 22u);
  EXPECT_EQ(s.atomic_adds, 33u);
}

}  // namespace
}  // namespace rj::agg
