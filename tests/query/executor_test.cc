#include "query/executor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data/datasets.h"

namespace rj {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto polys = TinyRegions(10, BBox(0, 0, 800, 800), 71);
    ASSERT_TRUE(polys.ok());
    polys_ = polys.value();

    Rng rng(72);
    points_.AddAttribute("fare");
    points_.AddAttribute("hour");
    for (int i = 0; i < 12000; ++i) {
      points_.Append(rng.Uniform(0, 800), rng.Uniform(0, 800),
                     {static_cast<float>(rng.Uniform(2, 80)),
                      static_cast<float>(rng.UniformInt(24))});
    }

    gpu::DeviceOptions dev_options;
    dev_options.max_fbo_dim = 1024;
    device_ = std::make_unique<gpu::Device>(dev_options);
    executor_ = std::make_unique<Executor>(device_.get(), &points_, &polys_);
  }

  PolygonSet polys_;
  PointTable points_;
  std::unique_ptr<gpu::Device> device_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, AllVariantsAgreeOnCount) {
  const JoinResult exact =
      ReferenceJoin(points_, polys_, FilterSet(), PointTable::npos);

  for (const JoinVariant variant :
       {JoinVariant::kAccurateRaster, JoinVariant::kIndexDevice,
        JoinVariant::kIndexCpu}) {
    SpatialAggQuery query;
    query.variant = variant;
    auto result = executor_->Execute(query);
    ASSERT_TRUE(result.ok()) << JoinVariantName(variant);
    for (std::size_t i = 0; i < polys_.size(); ++i) {
      EXPECT_DOUBLE_EQ(result.value().values[i], exact.arrays.count[i])
          << JoinVariantName(variant) << " polygon " << i;
    }
  }
}

TEST_F(ExecutorTest, BoundedCloseToExact) {
  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 2.0;
  auto result = executor_->Execute(query);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(points_, polys_, FilterSet(), PointTable::npos);
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    if (exact.arrays.count[i] < 100) continue;
    const double rel = std::fabs(result.value().values[i] -
                                 exact.arrays.count[i]) /
                       exact.arrays.count[i];
    EXPECT_LT(rel, 0.05) << "polygon " << i;
  }
}

TEST_F(ExecutorTest, AverageAggregate) {
  SpatialAggQuery query;
  query.variant = JoinVariant::kAccurateRaster;
  query.aggregate = AggregateKind::kAverage;
  query.aggregate_column = 0;
  auto result = executor_->Execute(query);
  ASSERT_TRUE(result.ok());
  const JoinResult exact = ReferenceJoin(points_, polys_, FilterSet(), 0);
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    if (exact.arrays.count[i] == 0) continue;
    const double want = exact.arrays.sum[i] / exact.arrays.count[i];
    EXPECT_NEAR(result.value().values[i], want, std::fabs(want) * 1e-4);
  }
}

TEST_F(ExecutorTest, NonCountWithoutColumnRejected) {
  SpatialAggQuery query;
  query.aggregate = AggregateKind::kSum;
  EXPECT_FALSE(executor_->Execute(query).ok());
}

TEST_F(ExecutorTest, FiltersFlowThrough) {
  SpatialAggQuery query;
  query.variant = JoinVariant::kIndexCpu;
  ASSERT_TRUE(query.filters.Add({1, FilterOp::kLess, 12.0f}).ok());
  auto result = executor_->Execute(query);
  ASSERT_TRUE(result.ok());
  const JoinResult exact =
      ReferenceJoin(points_, polys_, query.filters, PointTable::npos);
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.value().values[i], exact.arrays.count[i]);
  }
}

TEST_F(ExecutorTest, AutoVariantResolvesAndRuns) {
  SpatialAggQuery query;
  query.variant = JoinVariant::kAuto;
  query.epsilon = 20.0;
  auto result = executor_->Execute(query);
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (const double v : result.value().values) total += v;
  EXPECT_GT(total, 0.0);
}

TEST_F(ExecutorTest, ResultRangesRequested) {
  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 20.0;
  query.with_result_ranges = true;
  auto result = executor_->Execute(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().ranges.loose.size(), polys_.size());
  const JoinResult exact =
      ReferenceJoin(points_, polys_, FilterSet(), PointTable::npos);
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    EXPECT_TRUE(result.value().ranges.loose[i].Contains(
        exact.arrays.count[i]))
        << "polygon " << i;
  }
}

TEST_F(ExecutorTest, TimingPhasesPopulated) {
  SpatialAggQuery query;
  query.variant = JoinVariant::kBoundedRaster;
  query.epsilon = 10.0;
  auto result = executor_->Execute(query);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().total_seconds, 0.0);
  EXPECT_GT(result.value().timing.Get("processing"), 0.0);
}

TEST_F(ExecutorTest, TriangulationCachedAcrossQueries) {
  auto soup1 = executor_->GetTriangulation();
  ASSERT_TRUE(soup1.ok());
  auto soup2 = executor_->GetTriangulation();
  ASSERT_TRUE(soup2.ok());
  EXPECT_EQ(soup1.value(), soup2.value());  // same pointer
}

TEST(AssignSequentialIdsTest, AssignsZeroToNMinusOne) {
  PolygonSet polys;
  polys.emplace_back(Ring{{0, 0}, {1, 0}, {1, 1}});
  polys.emplace_back(Ring{{2, 0}, {3, 0}, {3, 1}});
  polys[0].set_id(50);
  polys[1].set_id(-3);
  AssignSequentialIds(&polys);
  EXPECT_EQ(polys[0].id(), 0);
  EXPECT_EQ(polys[1].id(), 1);
}

}  // namespace
}  // namespace rj
