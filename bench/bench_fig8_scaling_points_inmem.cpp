/// \file bench_fig8_scaling_points_inmem.cpp
/// \brief Reproduces Figure 8: scaling with input size for
/// Taxi ⋈ Neighborhood when all points fit in device memory.
/// Left pane: speedup of every parallel approach over the single-CPU
/// baseline. Right pane: total query time. Paper result: rasterization
/// approaches are >100× over single-CPU; Bounded is >4× faster than
/// Accurate; Bounded scales best because it performs zero PIP tests.
#include <thread>

#include "bench_common.h"
#include "join/raster_join_bounded.h"
#include "query/executor.h"
#include "triangulate/triangulation.h"

using namespace rj;
using namespace rj::bench;

int main() {
  PrintHeader("Figure 8: scaling with points (in-memory)",
              "Fig. 8 (paper: Bounded > Accurate > IndexDevice >> mtCPU > "
              "1CPU; 2 orders of magnitude GPU vs CPU)");

  auto regions = NycNeighborhoods();
  if (!regions.ok()) return 1;
  PolygonSet polys = regions.value();

  const std::size_t sizes[] = {Scaled(125'000), Scaled(250'000),
                               Scaled(500'000), Scaled(1'000'000)};
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  // Scaled ε: the paper runs ε = 10 m against up to ~450M points, so the
  // point pass dominates the fragment pass (~25 points per canvas pixel).
  // At bench scale the canvas must shrink with the input or fragment work
  // would swamp the point work and invert the paper's regime; ε = 80 m
  // restores the paper's point/fragment ratio at the largest bench size.
  const double kEps = 80.0;
  const std::int32_t kAccurateCanvas = 1024;

  BenchJson json("fig8_scaling_points_inmem");

  std::printf(
      "%-12s | %12s %12s %12s %12s %12s | %9s %9s %9s %9s\n", "points",
      "1CPU(ms)", "mtCPU(ms)", "IdxDev(ms)", "Accur(ms)", "Bound(ms)",
      "sp.mtCPU", "sp.IdxDev", "sp.Accur", "sp.Bound");

  for (const std::size_t n : sizes) {
    const PointTable points = GenerateTaxiPoints(n);
    // In-memory regime: budget comfortably holds all points.
    gpu::Device device(PaperDeviceOptions(/*memory=*/512ull << 20));
    Executor executor(&device, &points, &polys);

    auto run = [&executor, kAccurateCanvas](JoinVariant variant, int threads,
                                            double epsilon) {
      SpatialAggQuery query;
      query.variant = variant;
      query.cpu_threads = threads;
      query.epsilon = epsilon;
      query.accurate_canvas_dim = kAccurateCanvas;
      Timer t;
      auto r = executor.Execute(query);
      if (!r.ok()) {
        std::fprintf(stderr, "%s failed: %s\n",
                     JoinVariantName(variant).c_str(),
                     r.status().ToString().c_str());
        std::exit(1);
      }
      return t.ElapsedMillis();
    };

    const double one_cpu = run(JoinVariant::kIndexCpu, 1, kEps);
    const double mt_cpu = run(JoinVariant::kIndexCpu, hw, kEps);
    const double idx_dev = run(JoinVariant::kIndexDevice, 1, kEps);
    const double accurate = run(JoinVariant::kAccurateRaster, 1, kEps);
    const double bounded = run(JoinVariant::kBoundedRaster, 1, kEps);

    std::printf(
        "%-12zu | %12.1f %12.1f %12.1f %12.1f %12.1f | %8.2fx %8.2fx "
        "%8.2fx %8.2fx\n",
        n, one_cpu, mt_cpu, idx_dev, accurate, bounded, one_cpu / mt_cpu,
        one_cpu / idx_dev, one_cpu / accurate, one_cpu / bounded);

    json.Row()
        .Field("section", std::string("variant_scaling"))
        .Field("points", n)
        .Field("one_cpu_ms", one_cpu)
        .Field("mt_cpu_ms", mt_cpu)
        .Field("index_device_ms", idx_dev)
        .Field("accurate_ms", accurate)
        .Field("bounded_ms", bounded);
  }

  // --- Worker scaling of the tiled-parallel bounded join. -----------------
  // The simulated device splits DrawPoints/DrawPolygons across its worker
  // pool (band-tiled canvas, per-worker result arrays); aggregates are
  // bitwise identical for every worker count, so only time may change.
  {
    const std::size_t n = sizes[sizeof(sizes) / sizeof(sizes[0]) - 1];
    const PointTable points = GenerateTaxiPoints(n);
    auto soup_r = TriangulatePolygonSet(polys);
    if (!soup_r.ok()) {
      std::fprintf(stderr, "triangulation failed: %s\n",
                   soup_r.status().ToString().c_str());
      return 1;
    }
    const TriangleSoup& soup = soup_r.value();
    BBox world;
    for (const Polygon& p : polys) world.Expand(p.bbox());
    for (std::size_t i = 0; i < points.size(); ++i) world.Expand(points.At(i));

    std::printf("\nBounded raster join, worker scaling at %zu points "
                "(host: %d hardware thread(s)):\n", n, hw);
    std::printf("%-8s | %12s %9s %10s\n", "workers", "time(ms)", "speedup",
                "identical");

    std::vector<double> baseline;
    double baseline_ms = 0.0;
    for (const std::size_t workers : {1, 2, 4, 8}) {
      gpu::DeviceOptions dopts = PaperDeviceOptions(/*memory=*/512ull << 20);
      dopts.num_workers = workers;
      gpu::Device device(dopts);
      BoundedRasterJoinOptions options;
      options.epsilon = kEps;
      Timer t;
      auto r = BoundedRasterJoin(&device, points, polys, soup, world, options);
      const double ms = t.ElapsedMillis();
      if (!r.ok()) {
        std::fprintf(stderr, "bounded join failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      const std::vector<double> counts = r.value().Finalize(
          AggregateKind::kCount);
      bool identical = true;
      if (workers == 1) {
        baseline = counts;
        baseline_ms = ms;
      } else {
        identical = counts == baseline;
      }
      std::printf("%-8zu | %12.1f %8.2fx %10s\n", workers, ms,
                  baseline_ms / ms, identical ? "yes" : "NO");
      json.Row()
          .Field("section", std::string("worker_scaling"))
          .Field("points", n)
          .Field("workers", workers)
          .Field("bounded_ms", ms)
          .Field("speedup", baseline_ms / ms);
      if (!identical) {
        std::fprintf(stderr, "aggregate mismatch at %zu workers\n", workers);
        return 1;
      }
    }
  }

  std::printf(
      "\nShape check vs paper: Bounded fastest (no PIP tests at all);\n"
      "Accurate beats the index baseline (PIP only on boundary pixels);\n"
      "all scale ~linearly with input size. NOTE: this host exposes %d\n"
      "hardware thread(s), so CPU-parallel speedups compress toward 1x —\n"
      "the variant ordering is the machine-independent signal (the\n"
      "device is simulated on host cores; see README.md).\n",
      hw);
  return 0;
}
