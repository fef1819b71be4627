/// \file bench_fig10_scaling_polygons.cpp
/// \brief Reproduces Figure 10: scaling with the number of polygons.
/// Left pane: polygon processing costs (triangulation; index build).
/// Middle pane: total query time (out-of-core). Right pane: device
/// processing time only. Paper result: increasing the polygon count has
/// almost no effect on the bounded variant (it decouples point and
/// polygon processing); the accurate variant degrades toward the baseline
/// because dense outlines put more points on boundary pixels.
#include "bench_common.h"
#include "data/region_generator.h"
#include "geometry/pip.h"
#include "index/grid_index.h"
#include "query/executor.h"
#include "triangulate/triangulation.h"

using namespace rj;
using namespace rj::bench;

int main() {
  PrintHeader("Figure 10: scaling with polygons",
              "Fig. 10 (paper: 1k..64k Voronoi-merged polygons; Bounded "
              "flat, Accurate -> baseline)");

  const BBox extent = NycExtentMeters();
  const std::size_t points_n = Scaled(600'000);  // paper: 600M
  const PointTable points = GenerateTaxiPoints(points_n);

  const std::size_t poly_counts[] = {250, 500, 1000, 2000, 4000};

  std::printf(
      "%-8s | %12s %14s | %12s %12s %12s | %12s %12s\n", "#poly",
      "triang(ms)", "index-dev(ms)", "IdxDev(ms)", "Accur(ms)", "Bound(ms)",
      "acc-PIP", "boundary-pts");

  for (const std::size_t n_polys : poly_counts) {
    RegionGeneratorOptions gen_options;
    gen_options.seed = 1000 + n_polys;
    auto regions = GenerateRegions(n_polys, extent, gen_options);
    if (!regions.ok()) {
      std::fprintf(stderr, "generate %zu: %s\n", n_polys,
                   regions.status().ToString().c_str());
      return 1;
    }
    PolygonSet polys = regions.value();

    // Left pane: processing costs.
    const double triang_ms = 1e3 * TimeOnce([&] {
      auto r = TriangulatePolygonSet(polys);
      (void)r;
    });
    const double index_ms = 1e3 * TimeOnce([&] {
      auto r = GridIndex::Build(polys, extent, 1024, GridAssignMode::kMbr);
      (void)r;
    });

    // Middle/right panes: query times per variant (out-of-core budget).
    gpu::Device device(PaperDeviceOptions(/*memory=*/4ull << 20));
    Executor executor(&device, &points, &polys);

    auto run = [&executor](JoinVariant variant) {
      SpatialAggQuery query;
      query.spec.variant = variant;
      query.spec.epsilon = 40.0;  // scaled ε, see bench_fig8 comment
      query.spec.canvas_dim = 1024;
      Timer t;
      auto r = executor.Execute(query);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s\n", JoinVariantName(variant).c_str(),
                     r.status().ToString().c_str());
        std::exit(1);
      }
      return t.ElapsedMillis();
    };

    const double idx_ms_q = run(JoinVariant::kIndexDevice);
    const std::size_t pip_before = GetPipTestCount();
    const double acc_ms = run(JoinVariant::kAccurateRaster);
    const std::size_t acc_pips = GetPipTestCount() - pip_before;
    const double bound_ms = run(JoinVariant::kBoundedRaster);

    std::printf(
        "%-8zu | %12.1f %14.1f | %12.1f %12.1f %12.1f | %12zu %12s\n",
        n_polys, triang_ms, index_ms, idx_ms_q, acc_ms, bound_ms, acc_pips,
        "-");
  }

  std::printf(
      "\nShape check vs paper: Bounded time is nearly flat in the polygon\n"
      "count; Accurate's PIP count (and time) grows with outline density,\n"
      "closing the gap to the index baseline (Fig. 10 middle/right).\n");
  return 0;
}
