/// \file bench_micro_primitives.cpp
/// \brief google-benchmark micro-benchmarks for the hot primitives the
/// join operators are built from: PIP tests, triangle rasterization,
/// point drawing, grid probes, and triangulation.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/math_utils.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "data/taxi_generator.h"
#include "geometry/pip.h"
#include "index/grid_index.h"
#include "raster/pipeline.h"
#include "triangulate/triangulation.h"

namespace rj {
namespace {

/// PIP test cost grows linearly with the vertex count (the cost the
/// bounded raster join eliminates entirely).
void BM_PointInPolygon(benchmark::State& state) {
  const int vertices = static_cast<int>(state.range(0));
  Ring ring;
  for (int i = 0; i < vertices; ++i) {
    const double a = 2.0 * kPi * i / vertices;
    ring.push_back({std::cos(a) * 100.0 + std::sin(3 * a) * 20.0,
                    std::sin(a) * 100.0 + std::cos(5 * a) * 20.0});
  }
  Rng rng(1);
  for (auto _ : state) {
    const Point p{rng.Uniform(-130, 130), rng.Uniform(-130, 130)};
    benchmark::DoNotOptimize(TestPointInRing(ring, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointInPolygon)->Arg(8)->Arg(64)->Arg(512);

/// The polygon pass (DrawPolygons) of one triangle spanning a size × size
/// canvas whose point FBO holds about one point per two pixels; items are
/// the fragments the pass meters.
void BM_TriangleRasterization(benchmark::State& state) {
  const auto dim = static_cast<std::int32_t>(state.range(0));
  const double size = dim;
  const raster::Viewport vp(BBox(0, 0, size, size), dim, dim);
  raster::Fbo fbo(dim, dim);
  PointTable points;
  Rng rng(3);
  for (std::int64_t i = 0; i < state.range(0) * state.range(0) / 2; ++i) {
    points.Append(rng.Uniform(0, size), rng.Uniform(0, size));
  }
  raster::DrawPoints(vp, points, FilterSet(), PointTable::npos, &fbo,
                     nullptr);
  const TriangleSoup soup = {
      Triangle{{1.0, 1.0}, {size - 1.0, 2.0}, {size / 2, size - 1.0}, 0}};
  raster::ResultArrays result(soup.size());
  gpu::Counters counters;
  for (auto _ : state) {
    raster::DrawPolygons(vp, soup, fbo, nullptr, &result, &counters);
    benchmark::DoNotOptimize(result.count.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(counters.fragments()));
}
BENCHMARK(BM_TriangleRasterization)->Arg(64)->Arg(512)->Arg(2048);

void BM_DrawPoints(benchmark::State& state) {
  const PointTable points =
      GenerateTaxiPoints(static_cast<std::size_t>(state.range(0)));
  const raster::Viewport vp(NycExtentMeters(), 2048, 2048);
  raster::Fbo fbo(2048, 2048);
  for (auto _ : state) {
    fbo.Clear();
    benchmark::DoNotOptimize(raster::DrawPoints(
        vp, points, FilterSet(), PointTable::npos, &fbo, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DrawPoints)->Arg(100'000)->Arg(500'000);

void BM_GridProbe(benchmark::State& state) {
  auto polys = TinyRegions(260, NycExtentMeters(), 5);
  if (!polys.ok()) {
    state.SkipWithError("region generation failed");
    return;
  }
  auto index = GridIndex::Build(polys.value(), NycExtentMeters(), 1024,
                                GridAssignMode::kMbr);
  if (!index.ok()) {
    state.SkipWithError("index build failed");
    return;
  }
  Rng rng(2);
  const BBox extent = NycExtentMeters();
  for (auto _ : state) {
    const Point p{rng.Uniform(extent.min_x, extent.max_x),
                  rng.Uniform(extent.min_y, extent.max_y)};
    benchmark::DoNotOptimize(index.value().Candidates(p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridProbe);

void BM_Triangulation(benchmark::State& state) {
  auto polys = TinyRegions(static_cast<std::size_t>(state.range(0)),
                           NycExtentMeters(), 6);
  if (!polys.ok()) {
    state.SkipWithError("region generation failed");
    return;
  }
  for (auto _ : state) {
    auto soup = TriangulatePolygonSet(polys.value());
    benchmark::DoNotOptimize(soup);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Triangulation)->Arg(64)->Arg(260);

}  // namespace
}  // namespace rj
