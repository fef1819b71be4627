/// \file bench_fig14_accuracy_twitter.cpp
/// \brief Reproduces Figure 14: accuracy–time and accuracy–ε trade-offs
/// for the Twitter ⋈ County workload (US extent, ε default 1 km).
/// Paper result: same shape as the taxi experiments — errors shrink with
/// ε, approximate values hug the accurate diagonal.
#include "bench_common.h"
#include "query/executor.h"

using namespace rj;
using namespace rj::bench;

int main() {
  PrintHeader("Figure 14: accuracy trade-offs (twitter x counties)",
              "Fig. 14 (paper: 1.8B points; eps sweep around the 1km "
              "default; scatter hugs the diagonal)");

  auto counties = UsCounties();
  if (!counties.ok()) return 1;
  PolygonSet polys = counties.value();

  const std::size_t n = Scaled(1'800'000);  // paper: 1.8B
  const PointTable points = GenerateTwitterPoints(n);

  gpu::Device device(PaperDeviceOptions(/*memory=*/8ull << 20,
                                        /*max_fbo=*/2048));
  Executor executor(&device, &points, &polys);

  SpatialAggQuery accurate_query;
  accurate_query.spec.variant = JoinVariant::kAccurateRaster;
  accurate_query.spec.canvas_dim = 2048;
  Timer t_acc;
  auto exact = executor.Execute(accurate_query);
  if (!exact.ok()) return 1;
  const double accurate_ms = t_acc.ElapsedMillis();
  std::printf("accurate variant reference time: %.1f ms\n\n", accurate_ms);

  std::printf("%-10s %8s %12s | %9s %9s %9s %9s\n", "eps(km)", "tiles",
              "time(ms)", "q1%", "median%", "q3%", "whisk-hi%");

  for (const double eps_km : {4.0, 2.0, 1.0, 0.5}) {
    SpatialAggQuery query;
    query.spec.variant = JoinVariant::kBoundedRaster;
    query.spec.epsilon = eps_km * 1000.0;
    Timer t;
    auto r = executor.Execute(query);
    if (!r.ok()) {
      std::fprintf(stderr, "eps %.2f km: %s\n", eps_km,
                   r.status().ToString().c_str());
      return 1;
    }
    const BoxStats stats =
        ComputeBoxStats(PercentErrors(r.value().values, exact.value().values));
    auto tiles = raster::PlanCanvas(executor.world(), query.spec.epsilon,
                                    device.options().max_fbo_dim);
    std::printf("%-10.2f %8zu %12.1f | %9.4f %9.4f %9.4f %9.4f %s\n", eps_km,
                tiles.ok() ? tiles.value().size() : 0, t.ElapsedMillis(),
                stats.q1, stats.median, stats.q3, stats.whisker_hi,
                t.ElapsedMillis() > accurate_ms ? "<- slower than accurate"
                                                : "");
  }

  std::printf(
      "\nShape check vs paper: identical qualitative behaviour to the taxi\n"
      "data (Fig. 12) at the US scale — errors fall with eps while the\n"
      "pass count (and time) rises.\n");
  return 0;
}
