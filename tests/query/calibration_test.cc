#include "query/calibration.h"

#include <gtest/gtest.h>

namespace rj {
namespace {

TEST(CalibrationTest, ProducesPositiveCosts) {
  gpu::DeviceOptions options;
  gpu::Device device(options);
  auto params = CalibrateCostModel(&device);
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  EXPECT_GT(params.value().per_point_draw, 0.0);
  EXPECT_GT(params.value().per_fragment, 0.0);
  EXPECT_GT(params.value().per_pip_vertex, 0.0);
  // Fragment shading is simpler than a full point pipeline step; costs
  // should be in sane relative ranges (not assertions on absolute times).
  EXPECT_LT(params.value().per_fragment, 1e-5);
  EXPECT_LT(params.value().per_point_draw, 1e-4);
}

TEST(CalibrationTest, TransferCostReflectsBandwidth) {
  gpu::DeviceOptions options;
  options.transfer_bandwidth_bytes_per_sec = 2.0e9;
  gpu::Device device(options);
  auto params = CalibrateCostModel(&device);
  ASSERT_TRUE(params.ok());
  EXPECT_DOUBLE_EQ(params.value().per_byte_transfer, 1.0 / 2.0e9);

  gpu::DeviceOptions no_bw;
  gpu::Device device2(no_bw);
  auto params2 = CalibrateCostModel(&device2);
  ASSERT_TRUE(params2.ok());
  EXPECT_DOUBLE_EQ(params2.value().per_byte_transfer, 0.0);
}

TEST(CalibrationTest, RejectsNullDevice) {
  EXPECT_FALSE(CalibrateCostModel(nullptr).ok());
}

TEST(CalibrationTest, CalibratedModelStillShowsCrossover) {
  gpu::DeviceOptions options;
  gpu::Device device(options);
  auto params = CalibrateCostModel(&device);
  ASSERT_TRUE(params.ok());

  CostModelInputs inputs;
  inputs.num_points = 10'000'000;
  inputs.num_polygons = 260;
  inputs.total_polygon_vertices = 260 * 80;
  inputs.world = BBox(0, 0, 45000, 40000);
  inputs.total_perimeter = 260 * 4000.0;
  inputs.max_fbo_dim = 8192;

  EXPECT_EQ(ChooseRasterVariant(params.value(), inputs, 40.0),
            JoinVariant::kBoundedRaster);
  bool flipped = false;
  for (double eps = 20.0; eps > 0.0005; eps /= 2.0) {
    if (ChooseRasterVariant(params.value(), inputs, eps) ==
        JoinVariant::kAccurateRaster) {
      flipped = true;
      break;
    }
  }
  EXPECT_TRUE(flipped);
}

}  // namespace
}  // namespace rj
