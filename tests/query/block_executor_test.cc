/// \file block_executor_test.cc
/// \brief Executor over a PointBlockSource (the disk-resident registration
/// path): every variant must be bitwise identical to an in-memory executor
/// over the materialized rows, admission must be sized by the block
/// capacity, the pruning knob must stay outside query identity, and a
/// fused group must match per-member runs from one block scan.
#include "query/executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "common/rng.h"
#include "data/block_file.h"
#include "data/datasets.h"

namespace rj {
namespace {

class BlockExecutorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBlockCapacity = 2048;

  void SetUp() override {
    auto polys = TinyRegions(10, BBox(0, 0, 800, 800), 71);
    ASSERT_TRUE(polys.ok());
    polys_ = polys.value();

    Rng rng(72);
    PointTable points;
    points.AddAttribute("fare");
    points.AddAttribute("hour");
    for (int i = 0; i < 12000; ++i) {
      points.Append(rng.Uniform(0, 800), rng.Uniform(0, 800),
                    {static_cast<float>(rng.UniformInt(80)),
                     static_cast<float>(rng.UniformInt(24))});
    }

    path_ = ::testing::TempDir() + "/block_executor_test.rjb";
    data::BlockFileOptions options;
    options.block_capacity = kBlockCapacity;
    ASSERT_TRUE(data::BlockFileWriter(options).Write(path_, points).ok());
    auto source = data::OpenPointBlockSource(path_);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    source_ = std::move(source.value());

    // The in-memory baseline executor runs the very same rows in the very
    // same (on-disk) order — the bitwise-identity contract's reference.
    auto rows = data::MaterializeBlocks(*source_);
    ASSERT_TRUE(rows.ok());
    rows_ = std::move(rows.value());

    gpu::DeviceOptions dev_options;
    dev_options.max_fbo_dim = 1024;
    mem_device_ = std::make_unique<gpu::Device>(dev_options);
    src_device_ = std::make_unique<gpu::Device>(dev_options);
    mem_executor_ =
        std::make_unique<Executor>(mem_device_.get(), &rows_, &polys_);
    src_executor_ =
        std::make_unique<Executor>(src_device_.get(), source_.get(), &polys_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void ExpectIdentical(const QueryResult& expected, const QueryResult& actual) {
    ASSERT_EQ(expected.values.size(), actual.values.size());
    for (std::size_t i = 0; i < expected.values.size(); ++i) {
      if (std::isnan(expected.values[i])) {
        EXPECT_TRUE(std::isnan(actual.values[i])) << "value slot " << i;
      } else {
        EXPECT_EQ(expected.values[i], actual.values[i]) << "value slot " << i;
      }
      EXPECT_EQ(expected.arrays.count[i], actual.arrays.count[i]) << i;
      EXPECT_EQ(expected.arrays.sum[i], actual.arrays.sum[i]) << i;
      EXPECT_EQ(expected.arrays.min[i], actual.arrays.min[i]) << i;
      EXPECT_EQ(expected.arrays.max[i], actual.arrays.max[i]) << i;
    }
    ASSERT_EQ(expected.ranges.loose.size(), actual.ranges.loose.size());
    for (std::size_t i = 0; i < expected.ranges.loose.size(); ++i) {
      EXPECT_EQ(expected.ranges.loose[i].lower, actual.ranges.loose[i].lower);
      EXPECT_EQ(expected.ranges.loose[i].upper, actual.ranges.loose[i].upper);
      EXPECT_EQ(expected.ranges.expected[i].lower,
                actual.ranges.expected[i].lower);
      EXPECT_EQ(expected.ranges.expected[i].upper,
                actual.ranges.expected[i].upper);
    }
  }

  std::string path_;
  PolygonSet polys_;
  PointTable rows_;
  std::unique_ptr<data::PointBlockSource> source_;
  std::unique_ptr<gpu::Device> mem_device_;
  std::unique_ptr<gpu::Device> src_device_;
  std::unique_ptr<Executor> mem_executor_;
  std::unique_ptr<Executor> src_executor_;
};

TEST_F(BlockExecutorTest, EveryVariantMatchesInMemoryExecutor) {
  std::vector<SpatialAggQuery> queries;

  SpatialAggQuery bounded;
  bounded.variant = JoinVariant::kBoundedRaster;
  bounded.epsilon = 4.0;
  bounded.aggregate = AggregateKind::kSum;
  bounded.aggregate_column = 0;
  bounded.with_result_ranges = true;
  queries.push_back(bounded);

  SpatialAggQuery accurate;
  accurate.variant = JoinVariant::kAccurateRaster;
  accurate.accurate_canvas_dim = 256;
  accurate.aggregate = AggregateKind::kAverage;
  accurate.aggregate_column = 0;
  ASSERT_TRUE(accurate.filters.Add({1, FilterOp::kLess, 12.0f}).ok());
  queries.push_back(accurate);

  SpatialAggQuery idx_device;
  idx_device.variant = JoinVariant::kIndexDevice;
  ASSERT_TRUE(idx_device.filters.Add({0, FilterOp::kGreaterEqual, 25.0f}).ok());
  queries.push_back(idx_device);

  SpatialAggQuery idx_cpu;
  idx_cpu.variant = JoinVariant::kIndexCpu;
  idx_cpu.aggregate = AggregateKind::kMax;
  idx_cpu.aggregate_column = 0;
  queries.push_back(idx_cpu);

  SpatialAggQuery automatic;
  automatic.variant = JoinVariant::kAuto;
  automatic.epsilon = 10.0;
  queries.push_back(automatic);

  for (const SpatialAggQuery& query : queries) {
    auto expected = mem_executor_->ExecuteUncached(query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto actual = src_executor_->ExecuteUncached(query);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectIdentical(expected.value(), actual.value());
  }
}

TEST_F(BlockExecutorTest, PruningKnobDoesNotChangeResults) {
  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 4.0;
  query.aggregate = AggregateKind::kSum;
  query.aggregate_column = 0;
  ASSERT_TRUE(query.filters.Add({1, FilterOp::kLess, 6.0f}).ok());

  query.enable_block_pruning = true;
  auto on = src_executor_->ExecuteUncached(query);
  ASSERT_TRUE(on.ok());
  query.enable_block_pruning = false;
  auto off = src_executor_->ExecuteUncached(query);
  ASSERT_TRUE(off.ok());
  ExpectIdentical(off.value(), on.value());
}

TEST_F(BlockExecutorTest, PruningKnobIsExcludedFromQueryIdentity) {
  SpatialAggQuery a;
  a.variant = JoinVariant::kBoundedRaster;
  a.epsilon = 4.0;
  SpatialAggQuery b = a;
  b.enable_block_pruning = false;
  // Execution knob, not semantics: equal identity, equal hash (a cached
  // result must be shared across pruning settings).
  EXPECT_TRUE(a == b);
  EXPECT_EQ(HashQuery(a), HashQuery(b));
}

TEST_F(BlockExecutorTest, AdmissionIsSizedByBlockCapacity) {
  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 4.0;
  query.aggregate = AggregateKind::kSum;
  query.aggregate_column = 0;

  auto plan = src_executor_->PlanAdmission(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Block scans are not grant-shrinkable: the floor is the in-flight block
  // VBOs (2 with overlap), and that is also the peak — min == full.
  const std::size_t block_bytes =
      kBlockCapacity * plan.value().bytes_per_point;
  EXPECT_EQ(plan.value().min_bytes,
            std::max(plan.value().fixed_bytes, 2 * block_bytes));
  EXPECT_EQ(plan.value().full_bytes, plan.value().min_bytes);

  query.overlap_transfers = false;
  auto serial = src_executor_->PlanAdmission(query);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().min_bytes,
            std::max(serial.value().fixed_bytes, block_bytes));
}

TEST_F(BlockExecutorTest, CappedGrantStillExecutesIdentically) {
  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 4.0;
  auto plan = src_executor_->PlanAdmission(query);
  ASSERT_TRUE(plan.ok());

  auto uncapped = src_executor_->ExecuteUncached(query);
  ASSERT_TRUE(uncapped.ok());
  // A grant at exactly min_bytes forces the overlap→serialized downgrade
  // path (two block VBOs no longer fit beside the fixed uploads), which
  // must not change a bit of the result.
  query.device_memory_cap_bytes = plan.value().min_bytes;
  auto capped = src_executor_->ExecuteUncached(query);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  ExpectIdentical(uncapped.value(), capped.value());
}

TEST_F(BlockExecutorTest, SourceAccessorsAndSchema) {
  EXPECT_TRUE(src_executor_->source_backed());
  EXPECT_EQ(src_executor_->block_source(), source_.get());
  EXPECT_EQ(src_executor_->points(), nullptr);
  EXPECT_FALSE(src_executor_->sharded());
  EXPECT_EQ(src_executor_->num_attribute_columns(), 2u);
  EXPECT_FALSE(mem_executor_->source_backed());
}

TEST_F(BlockExecutorTest, FusedExecutionMatchesIndividualRuns) {
  SpatialAggQuery count;
  count.variant = JoinVariant::kBoundedRaster;
  count.epsilon = 6.0;
  SpatialAggQuery sum = count;
  sum.aggregate = AggregateKind::kSum;
  sum.aggregate_column = 0;
  sum.with_result_ranges = true;

  const gpu::Counters& counters = src_device_->counters();
  const gpu::CountersSnapshot before_fused = counters.Snapshot();
  auto fused = src_executor_->ExecuteFused({count, sum});
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  ASSERT_EQ(fused.value().size(), 2u);
  const gpu::CountersSnapshot fused_delta =
      counters.Snapshot().DeltaSince(before_fused);

  const gpu::CountersSnapshot before_solo = counters.Snapshot();
  auto solo_count = src_executor_->ExecuteUncached(count);
  const gpu::CountersSnapshot solo_delta =
      counters.Snapshot().DeltaSince(before_solo);
  auto solo_sum = src_executor_->ExecuteUncached(sum);
  ASSERT_TRUE(solo_count.ok());
  ASSERT_TRUE(solo_sum.ok());
  ExpectIdentical(solo_count.value(), fused.value()[0]);
  ExpectIdentical(solo_sum.value(), fused.value()[1]);
  // The group streams the block scan once, not once per member.
  EXPECT_GT(solo_delta.blocks_scanned, 0u);
  EXPECT_EQ(fused_delta.blocks_scanned, solo_delta.blocks_scanned);
}

}  // namespace
}  // namespace rj
