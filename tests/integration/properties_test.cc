/// Parameterized property sweeps over the joins' invariants: exact variants
/// match the reference, bounded error shrinks with ε, and batching and
/// tiling never change a result.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "data/datasets.h"
#include "geometry/pip.h"
#include "join/index_join.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "query/executor.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

struct World {
  PolygonSet polys;
  TriangleSoup soup;
  PointTable points;
  BBox extent;
  JoinResult exact;
};

World MakeWorld(std::size_t num_polys, std::size_t num_points,
                std::uint64_t seed) {
  World w;
  w.extent = BBox(0, 0, 1000, 1000);
  auto polys = TinyRegions(num_polys, w.extent, seed);
  EXPECT_TRUE(polys.ok());
  w.polys = polys.value();
  auto soup = TriangulatePolygonSet(w.polys);
  EXPECT_TRUE(soup.ok());
  w.soup = soup.value();
  Rng rng(seed ^ 0xABCDEF);
  for (std::size_t i = 0; i < num_points; ++i) {
    w.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000));
  }
  w.exact = ReferenceJoin(w.points, w.polys, FilterSet(), PointTable::npos);
  return w;
}

// ---------------------------------------------------------------------------
// Invariant 1: exact variants equal the brute-force reference, across a
// sweep of polygon counts and seeds.
class ExactVariantsProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExactVariantsProperty, AccurateAndIndexJoinsMatchReference) {
  const auto [num_polys, seed] = GetParam();
  World w = MakeWorld(num_polys, 4000, seed);

  gpu::DeviceOptions dev_options;
  dev_options.max_fbo_dim = 256;
  dev_options.num_workers = 1;
  gpu::Device device(dev_options);

  auto accurate = AccurateRasterJoin(&device, w.points, w.polys, w.soup,
                                     w.extent, AccurateRasterJoinOptions{});
  ASSERT_TRUE(accurate.ok());
  auto idx = IndexJoinDevice(&device, w.points, w.polys, w.extent,
                             IndexJoinOptions{});
  ASSERT_TRUE(idx.ok());

  for (std::size_t i = 0; i < w.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(accurate.value().arrays.count[i], w.exact.arrays.count[i])
        << "accurate, polygon " << i;
    EXPECT_DOUBLE_EQ(idx.value().arrays.count[i], w.exact.arrays.count[i])
        << "index, polygon " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolygonCountsAndSeeds, ExactVariantsProperty,
    ::testing::Combine(::testing::Values(2, 5, 12, 24),
                       ::testing::Values(101, 202, 303)));

// ---------------------------------------------------------------------------
// Invariant 2: bounded error decreases with ε (sweep).
class EpsilonConvergenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(EpsilonConvergenceProperty, L1ErrorBoundedByBoundaryMass) {
  const int seed = GetParam();
  World w = MakeWorld(8, 6000, seed);
  gpu::DeviceOptions dev_options;
  dev_options.max_fbo_dim = 2048;
  dev_options.num_workers = 1;

  double prev = std::numeric_limits<double>::infinity();
  for (const double eps : {100.0, 25.0, 6.0}) {
    gpu::Device device(dev_options);
    BoundedRasterJoinOptions options;
    options.epsilon = eps;
    auto r = BoundedRasterJoin(&device, w.points, w.polys, w.soup, w.extent,
                               options);
    ASSERT_TRUE(r.ok());
    double err = 0.0;
    for (std::size_t i = 0; i < w.polys.size(); ++i) {
      err += std::fabs(r.value().arrays.count[i] - w.exact.arrays.count[i]);
    }
    EXPECT_LE(err, prev + 6000 * 0.01) << "eps " << eps;
    prev = err;
  }
  EXPECT_LT(prev / 6000.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpsilonConvergenceProperty,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Invariant 4: batching and tiling equivalence (sweep over batch sizes and
// tile-forcing FBO limits).
class BatchingEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(BatchingEquivalenceProperty, AnyBatchSizeSameResult) {
  const int batch = GetParam();
  World w = MakeWorld(6, 3000, 55);
  gpu::DeviceOptions dev_options;
  dev_options.max_fbo_dim = 512;
  dev_options.num_workers = 1;

  BoundedRasterJoinOptions options;
  options.epsilon = 12.0;
  gpu::Device d_whole(dev_options);
  auto whole = BoundedRasterJoin(&d_whole, w.points, w.polys, w.soup,
                                 w.extent, options);
  ASSERT_TRUE(whole.ok());

  options.batch_size = batch;
  gpu::Device d_batched(dev_options);
  auto batched = BoundedRasterJoin(&d_batched, w.points, w.polys, w.soup,
                                   w.extent, options);
  ASSERT_TRUE(batched.ok());
  for (std::size_t i = 0; i < w.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(whole.value().arrays.count[i],
                     batched.value().arrays.count[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchingEquivalenceProperty,
                         ::testing::Values(1, 7, 100, 999, 3000, 10000));

class TilingEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(TilingEquivalenceProperty, AnyFboLimitSameResult) {
  const int fbo_dim = GetParam();
  World w = MakeWorld(6, 3000, 66);

  gpu::DeviceOptions big;
  big.max_fbo_dim = 4096;
  big.num_workers = 1;
  gpu::Device d_big(big);
  BoundedRasterJoinOptions options;
  options.epsilon = 8.0;
  auto whole = BoundedRasterJoin(&d_big, w.points, w.polys, w.soup, w.extent,
                                 options);
  ASSERT_TRUE(whole.ok());

  gpu::DeviceOptions small;
  small.max_fbo_dim = fbo_dim;
  small.num_workers = 1;
  gpu::Device d_small(small);
  BoundedRasterJoinStats stats;
  auto tiled = BoundedRasterJoin(&d_small, w.points, w.polys, w.soup,
                                 w.extent, options, &stats);
  ASSERT_TRUE(tiled.ok());
  EXPECT_GE(stats.num_tiles, 1u);
  for (std::size_t i = 0; i < w.polys.size(); ++i) {
    EXPECT_DOUBLE_EQ(whole.value().arrays.count[i],
                     tiled.value().arrays.count[i])
        << "fbo_dim " << fbo_dim;
  }
}

INSTANTIATE_TEST_SUITE_P(FboLimits, TilingEquivalenceProperty,
                         ::testing::Values(37, 64, 100, 177, 256));

// ---------------------------------------------------------------------------
// Invariant 3 (sweep form): misclassified mass only near boundaries.
class HausdorffProperty : public ::testing::TestWithParam<double> {};

TEST_P(HausdorffProperty, DiscrepancyBoundedByNearBoundaryPoints) {
  const double eps = GetParam();
  World w = MakeWorld(5, 2000, 77);
  gpu::DeviceOptions dev_options;
  dev_options.max_fbo_dim = 2048;
  dev_options.num_workers = 1;
  gpu::Device device(dev_options);
  BoundedRasterJoinOptions options;
  options.epsilon = eps;
  auto r = BoundedRasterJoin(&device, w.points, w.polys, w.soup, w.extent,
                             options);
  ASSERT_TRUE(r.ok());

  for (std::size_t pi = 0; pi < w.polys.size(); ++pi) {
    std::size_t near = 0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      if (w.polys[pi].DistanceToBoundary(w.points.At(i)) <= eps) ++near;
    }
    EXPECT_LE(std::fabs(r.value().arrays.count[pi] -
                        w.exact.arrays.count[pi]),
              static_cast<double>(near))
        << "polygon " << pi << " eps " << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, HausdorffProperty,
                         ::testing::Values(4.0, 16.0, 64.0));

}  // namespace
}  // namespace rj
