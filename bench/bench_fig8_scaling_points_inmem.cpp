/// \file bench_fig8_scaling_points_inmem.cpp
/// \brief Reproduces Figure 8: scaling with input size for
/// Taxi ⋈ Neighborhood when all points fit in device memory.
/// Left pane: speedup of every parallel approach over the single-CPU
/// baseline. Right pane: total query time. Paper result: rasterization
/// approaches are >100× over single-CPU; Bounded is >4× faster than
/// Accurate; Bounded scales best because it performs zero PIP tests.
/// Each time is the median of 3 warm joins, after one untimed join per
/// variant fills the executor's caches.
#include <thread>
#include <vector>

#include "bench_common.h"
#include "query/executor.h"

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
  // Every cell is the median of this many warm joins.
  constexpr int kTimedRuns = 3;

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

    // A variant's first query on an executor builds what it caches for every
    // later one: the CPU or device grid index, the triangulation, the
    // accurate canvas. Run it once untimed, then time warm joins.
    auto run = [&executor, kAccurateCanvas](JoinVariant variant, int threads,
                                            double epsilon) {
      SpatialAggQuery query;
      query.spec.variant = variant;
      query.policy.cpu_threads = threads;
      query.spec.epsilon = epsilon;
      query.spec.canvas_dim = kAccurateCanvas;
      auto once = [&executor, &query] {
        Timer t;
        auto r = executor.ExecuteUncached(query);
        if (!r.ok()) {
          std::fprintf(stderr, "%s failed: %s\n",
                       JoinVariantName(query.spec.variant).c_str(),
                       r.status().ToString().c_str());
          std::exit(1);
        }
        return t.ElapsedMillis();
      };
      once();
      std::vector<double> ms;
      for (int i = 0; i < kTimedRuns; ++i) ms.push_back(once());
      return ComputeBoxStats(ms).median;
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

  std::printf(
      "\nShape check vs paper: Bounded fastest (no PIP tests at all);\n"
      "Accurate beats the index baseline (PIP only on boundary pixels);\n"
      "all scale ~linearly with input size. NOTE: this host exposes %d\n"
      "hardware thread(s), so CPU-parallel speedups compress toward 1x —\n"
      "the variant ordering is the machine-independent signal (the\n"
      "device is simulated on the calling thread; see README.md).\n",
      hw);
  return 0;
}
