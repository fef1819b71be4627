/// \file parallel_determinism_test.cc
/// \brief 1-thread vs N-thread runs of the tiled-parallel raster joins must
/// produce identical ResultArrays.
///
/// The parallel draw calls stage fragments per row band and merge per-worker
/// partials in ascending chunk order, so per-pixel blend order matches the
/// sequential loop exactly. Weights are integer-valued floats, which makes
/// every SUM exactly representable in double — the merge-order-independent
/// regime the determinism guarantee covers (COUNT/MIN/MAX are always exact).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "agg/aggregate.h"
#include "agg/result_range.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "gpu/device.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "raster/pipeline.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

struct JoinSetup {
  PolygonSet polys;
  TriangleSoup soup;
  PointTable points;
  BBox world;
};

JoinSetup MakeSetup(std::size_t num_polys, std::size_t num_points,
                    std::uint64_t seed) {
  JoinSetup s;
  s.world = BBox(0, 0, 1000, 1000);
  auto polys = TinyRegions(num_polys, s.world, seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  auto soup = TriangulatePolygonSet(s.polys);
  EXPECT_TRUE(soup.ok());
  s.soup = soup.value();

  Rng rng(seed * 31 + 7);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    // Integer-valued weights: double-exact sums for any accumulation order.
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return s;
}

gpu::Device MakeDevice(std::size_t num_workers) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = 1024;
  options.memory_budget_bytes = 64 << 20;
  options.num_workers = num_workers;
  return gpu::Device(options);
}

void ExpectIdentical(const raster::ResultArrays& a,
                     const raster::ResultArrays& b) {
  ASSERT_EQ(a.count.size(), b.count.size());
  for (std::size_t i = 0; i < a.count.size(); ++i) {
    EXPECT_EQ(a.count[i], b.count[i]) << "count slot " << i;
    EXPECT_EQ(a.sum[i], b.sum[i]) << "sum slot " << i;
    EXPECT_EQ(a.min[i], b.min[i]) << "min slot " << i;
    EXPECT_EQ(a.max[i], b.max[i]) << "max slot " << i;
  }
}

TEST(ParallelDeterminismTest, BoundedJoinMatchesAcrossThreadCounts) {
  JoinSetup s = MakeSetup(10, 20000, 11);
  BoundedRasterJoinOptions options;
  options.epsilon = 5.0;
  options.weight_column = 0;

  gpu::Device one = MakeDevice(1);
  auto r1 = BoundedRasterJoin(&one, s.points, s.polys, s.soup, s.world,
                              options);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  for (const std::size_t workers : {2, 3, 8}) {
    gpu::Device many = MakeDevice(workers);
    auto rn = BoundedRasterJoin(&many, s.points, s.polys, s.soup, s.world,
                                options);
    ASSERT_TRUE(rn.ok()) << rn.status().ToString();
    ExpectIdentical(r1.value().arrays, rn.value().arrays);
  }
}

TEST(ParallelDeterminismTest, BoundedJoinMatchesWhenBatched) {
  // Out-of-core regime: several point batches per tile, each drawn with the
  // tiled-parallel point pass.
  JoinSetup s = MakeSetup(6, 15000, 12);
  BoundedRasterJoinOptions options;
  options.epsilon = 8.0;
  options.weight_column = 0;
  options.batch_size = 4096;

  gpu::Device one = MakeDevice(1);
  auto r1 = BoundedRasterJoin(&one, s.points, s.polys, s.soup, s.world,
                              options);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  gpu::Device many = MakeDevice(8);
  auto rn = BoundedRasterJoin(&many, s.points, s.polys, s.soup, s.world,
                              options);
  ASSERT_TRUE(rn.ok()) << rn.status().ToString();
  ExpectIdentical(r1.value().arrays, rn.value().arrays);
}

TEST(ParallelDeterminismTest, AccurateJoinMatchesAcrossThreadCounts) {
  JoinSetup s = MakeSetup(8, 20000, 13);
  AccurateRasterJoinOptions options;
  options.weight_column = 0;
  options.canvas_dim = 512;

  gpu::Device one = MakeDevice(1);
  AccurateRasterJoinStats stats1;
  auto r1 = AccurateRasterJoin(&one, s.points, s.polys, s.soup, s.world,
                               options, &stats1);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();

  for (const std::size_t workers : {2, 8}) {
    gpu::Device many = MakeDevice(workers);
    AccurateRasterJoinStats stats_n;
    auto rn = AccurateRasterJoin(&many, s.points, s.polys, s.soup, s.world,
                                 options, &stats_n);
    ASSERT_TRUE(rn.ok()) << rn.status().ToString();
    ExpectIdentical(r1.value().arrays, rn.value().arrays);
    EXPECT_EQ(stats1.boundary_points, stats_n.boundary_points);
    EXPECT_EQ(stats1.interior_points, stats_n.interior_points);
  }
}

TEST(ParallelDeterminismTest, DrawPointsBitwiseIdentical) {
  // The point pass preserves per-pixel blend order exactly, so the FBO is
  // bitwise identical for any worker count — even for non-integer weights.
  JoinSetup s = MakeSetup(4, 30000, 14);
  raster::Viewport vp(s.world, 800, 600);
  FilterSet no_filters;

  raster::Fbo seq_fbo(800, 600);
  const std::uint64_t seq_drawn = raster::DrawPoints(
      vp, s.points, no_filters, /*weight_column=*/0, &seq_fbo, nullptr);

  ThreadPool pool(8);
  raster::Fbo par_fbo(800, 600);
  const std::uint64_t par_drawn =
      raster::DrawPoints(vp, s.points, no_filters, /*weight_column=*/0,
                         &par_fbo, nullptr, &pool);

  EXPECT_EQ(seq_drawn, par_drawn);
  ASSERT_EQ(seq_fbo.data().size(), par_fbo.data().size());
  EXPECT_EQ(seq_fbo.data(), par_fbo.data());
}

TEST(ParallelDeterminismTest, DrawBoundariesBitwiseIdentical) {
  // The boundary pass stages outline fragments per row band; marks are
  // idempotent sets, so any worker count must produce a bitwise-identical
  // mask and the exact sequential fragment count.
  JoinSetup s = MakeSetup(12, 0, 16);
  raster::Viewport vp(s.world, 640, 480);

  for (const bool conservative : {false, true}) {
    gpu::Counters seq_counters;
    raster::BoundaryMask seq_mask(640, 480);
    raster::DrawBoundaries(vp, s.polys, conservative, &seq_mask,
                           &seq_counters);

    for (const std::size_t workers : {2, 8}) {
      ThreadPool pool(workers);
      gpu::Counters par_counters;
      raster::BoundaryMask par_mask(640, 480);
      raster::DrawBoundaries(vp, s.polys, conservative, &par_mask,
                             &par_counters, &pool);
      EXPECT_EQ(seq_mask.words(), par_mask.words())
          << "conservative=" << conservative << " workers=" << workers;
      EXPECT_EQ(seq_counters.fragments(), par_counters.fragments());
    }
  }
}

TEST(ParallelDeterminismTest, ComputeResultRangesMatchesAcrossThreadCounts) {
  // Result ranges are computed per polygon (independent output slots), so
  // the parallel pass must reproduce the sequential intervals exactly.
  JoinSetup s = MakeSetup(10, 20000, 17);
  raster::Viewport vp(s.world, 512, 512);
  FilterSet no_filters;

  raster::Fbo point_fbo(512, 512);
  raster::DrawPoints(vp, s.points, no_filters, PointTable::npos, &point_fbo,
                     nullptr);
  raster::ResultArrays arrays(s.polys.size());
  raster::DrawPolygons(vp, s.soup, point_fbo, nullptr, &arrays, nullptr);
  const std::vector<double> approx =
      FinalizeAggregate(AggregateKind::kCount, arrays);

  gpu::Counters seq_counters;
  auto seq = ComputeResultRanges(vp, s.polys, s.soup, point_fbo, approx,
                                 &seq_counters);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  for (const std::size_t workers : {2, 8}) {
    ThreadPool pool(workers);
    gpu::Counters par_counters;
    auto par = ComputeResultRanges(vp, s.polys, s.soup, point_fbo, approx,
                                   &par_counters, &pool);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    ASSERT_EQ(seq.value().loose.size(), par.value().loose.size());
    for (std::size_t i = 0; i < seq.value().loose.size(); ++i) {
      EXPECT_EQ(seq.value().loose[i].lower, par.value().loose[i].lower);
      EXPECT_EQ(seq.value().loose[i].upper, par.value().loose[i].upper);
      EXPECT_EQ(seq.value().expected[i].lower,
                par.value().expected[i].lower);
      EXPECT_EQ(seq.value().expected[i].upper,
                par.value().expected[i].upper);
    }
    EXPECT_EQ(seq_counters.fragments(), par_counters.fragments());
  }
}

TEST(ParallelDeterminismTest, DrawPolygonsCountersMatch) {
  JoinSetup s = MakeSetup(10, 20000, 15);
  raster::Viewport vp(s.world, 512, 512);
  FilterSet no_filters;

  raster::Fbo point_fbo(512, 512);
  raster::DrawPoints(vp, s.points, no_filters, /*weight_column=*/0,
                     &point_fbo, nullptr);

  gpu::Counters seq_counters;
  raster::ResultArrays seq(s.polys.size());
  raster::DrawPolygons(vp, s.soup, point_fbo, nullptr, &seq, &seq_counters);

  ThreadPool pool(8);
  gpu::Counters par_counters;
  raster::ResultArrays par(s.polys.size());
  raster::DrawPolygons(vp, s.soup, point_fbo, nullptr, &par, &par_counters,
                       &pool);

  ExpectIdentical(seq, par);
  EXPECT_EQ(seq_counters.fragments(), par_counters.fragments());
  EXPECT_EQ(seq_counters.atomic_adds(), par_counters.atomic_adds());
  EXPECT_EQ(seq_counters.vertices(), par_counters.vertices());
}

}  // namespace
}  // namespace rj
