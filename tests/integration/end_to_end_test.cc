/// End-to-end integration tests: generators → executor → all variants →
/// visualization, plus the disk-resident path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "data/column_store.h"
#include "data/datasets.h"
#include "data/taxi_generator.h"
#include "query/executor.h"
#include "viz/heatmap.h"
#include "viz/jnd.h"

namespace rj {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    points_ = GenerateTaxiPoints(20000);
    auto polys = TinyRegions(26, NycExtentMeters(), 260);
    ASSERT_TRUE(polys.ok());
    polys_ = polys.value();

    gpu::DeviceOptions dev_options;
    dev_options.max_fbo_dim = 2048;
    dev_options.memory_budget_bytes = 64 << 20;
    device_ = std::make_unique<gpu::Device>(dev_options);
    executor_ = std::make_unique<Executor>(device_.get(), &points_, &polys_);
  }

  PointTable points_;
  PolygonSet polys_;
  std::unique_ptr<gpu::Device> device_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(EndToEndTest, UrbaneStyleHeatmapQuery) {
  // Figure 1(a) analogue: COUNT per neighborhood, visualized.
  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 20.0;
  auto approx = executor_->Execute(query);
  ASSERT_TRUE(approx.ok());

  query.spec.variant = JoinVariant::kAccurateRaster;
  auto exact = executor_->Execute(query);
  ASSERT_TRUE(exact.ok());

  // Figure 6 claim: approximate and accurate choropleths are perceptually
  // indistinguishable at ε = 20 m.
  auto report = CompareForPerception(approx.value().values,
                                     exact.value().values);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().Indistinguishable())
      << "max normalized error " << report.value().max_normalized_error;
  EXPECT_LT(report.value().max_normalized_error, 1.0 / 9.0);
}

TEST_F(EndToEndTest, FilteredAverageFareQuery) {
  // "Average fare of morning trips per neighborhood" — exercises filters +
  // algebraic aggregate through every exact variant.
  SpatialAggQuery query;
  query.spec.aggregate = AggregateKind::kAverage;
  query.spec.aggregate_column = kTaxiFare;
  ASSERT_TRUE(query.spec.filters.Add({kTaxiHour, FilterOp::kLess, 12.0f}).ok());

  query.spec.variant = JoinVariant::kAccurateRaster;
  auto a = executor_->Execute(query);
  ASSERT_TRUE(a.ok());
  query.spec.variant = JoinVariant::kIndexCpu;
  auto b = executor_->Execute(query);
  ASSERT_TRUE(b.ok());

  for (std::size_t i = 0; i < polys_.size(); ++i) {
    const double va = a.value().values[i];
    const double vb = b.value().values[i];
    if (std::isnan(va) || std::isnan(vb)) {
      EXPECT_EQ(std::isnan(va), std::isnan(vb));
      continue;
    }
    EXPECT_NEAR(va, vb, std::max(1e-6, std::fabs(vb)) * 1e-4);
  }
}

TEST_F(EndToEndTest, LevelOfDetailZoomImprovesAccuracy) {
  // §4.2 LOD claim: zooming into a sub-region at fixed FBO resolution
  // effectively shrinks ε, improving accuracy for the polygons in view.
  // Emulate by running bounded at two ε values standing for zoomed-out /
  // zoomed-in pixel sizes and comparing per-polygon errors.
  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kAccurateRaster;
  auto exact = executor_->Execute(query);
  ASSERT_TRUE(exact.ok());

  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 200.0;  // zoomed out
  auto coarse = executor_->Execute(query);
  ASSERT_TRUE(coarse.ok());
  query.spec.epsilon = 20.0;  // zoomed in (10× finer pixels)
  auto fine = executor_->Execute(query);
  ASSERT_TRUE(fine.ok());

  double err_coarse = 0.0, err_fine = 0.0;
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    err_coarse += std::fabs(coarse.value().values[i] -
                            exact.value().values[i]);
    err_fine += std::fabs(fine.value().values[i] - exact.value().values[i]);
  }
  EXPECT_LT(err_fine, err_coarse);
}

TEST_F(EndToEndTest, DiskResidentPathMatchesInMemory) {
  // §7.7: stream from the column store in batches, aggregate per batch,
  // merge — must equal the in-memory result exactly (accurate variant).
  const std::string path = ::testing::TempDir() + "/e2e_points.rjc";
  ASSERT_TRUE(WriteColumnStore(path, points_).ok());

  auto reader = ColumnStoreReader::Open(path, {0, 1, 2, 3, 4});
  ASSERT_TRUE(reader.ok());

  std::vector<raster::ResultArrays> parts;
  PointTable batch;
  for (;;) {
    auto n = reader.value().NextBatch(4096, &batch);
    ASSERT_TRUE(n.ok());
    if (n.value() == 0) break;
    Executor batch_exec(device_.get(), &batch, &polys_);
    SpatialAggQuery query;
    query.spec.variant = JoinVariant::kIndexCpu;
    auto r = batch_exec.Execute(query);
    ASSERT_TRUE(r.ok());
    parts.push_back(r.value().arrays);
  }
  const raster::ResultArrays merged = MergeResults(parts);

  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kIndexCpu;
  auto whole = executor_->Execute(query);
  ASSERT_TRUE(whole.ok());
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    EXPECT_DOUBLE_EQ(merged.count[i], whole.value().arrays.count[i]);
  }
  std::remove(path.c_str());
}

TEST_F(EndToEndTest, ChoroplethImagesNearlyIdentical) {
  // Render the Fig. 6 pair and compare pixel-wise.
  SpatialAggQuery query;
  query.spec.variant = JoinVariant::kBoundedRaster;
  query.spec.epsilon = 20.0;
  auto approx = executor_->Execute(query);
  ASSERT_TRUE(approx.ok());
  query.spec.variant = JoinVariant::kAccurateRaster;
  auto exact = executor_->Execute(query);
  ASSERT_TRUE(exact.ok());

  auto soup = executor_->GetTriangulation();
  ASSERT_TRUE(soup.ok());
  auto img_a = RenderChoropleth(polys_, *soup.value(),
                                approx.value().values, 128, 128);
  auto img_b = RenderChoropleth(polys_, *soup.value(), exact.value().values,
                                128, 128);
  ASSERT_TRUE(img_a.ok());
  ASSERT_TRUE(img_b.ok());
  std::size_t differing = 0;
  for (int y = 0; y < 128; ++y) {
    for (int x = 0; x < 128; ++x) {
      const Rgb& pa = img_a.value().At(x, y);
      const Rgb& pb = img_b.value().At(x, y);
      if (pa.r != pb.r || pa.g != pb.g || pa.b != pb.b) ++differing;
    }
  }
  // With the 9-class map, virtually no pixel should change color class.
  EXPECT_LT(static_cast<double>(differing) / (128 * 128), 0.02);
}

}  // namespace
}  // namespace rj
