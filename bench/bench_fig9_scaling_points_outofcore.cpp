/// \file bench_fig9_scaling_points_outofcore.cpp
/// \brief Reproduces Figure 9: scaling with input size when the points do
/// NOT fit in device memory. Left pane: speedup over single-CPU. Right
/// pane: execution-time breakdown (host→device transfer vs device
/// processing). Paper result: bounded keeps a >100× speedup, and its
/// execution time is dominated by the memory transfer component — which
/// the out-of-core analysis (§5) assumes can be hidden behind the draw.
///
/// This driver additionally measures that hiding: the serialized
/// transfer→draw loop (overlap_transfers = off) against the
/// double-buffered BatchPipeline (overlap on, the default). The paper's
/// regime amortizes the per-tile polygon pass over ~10⁹ points, so the
/// per-batch point draw dominates; to reproduce that shape at bench scale
/// the overlap section uses a small canvas (cheap polygon pass) and
/// calibrates the simulated bandwidth so transfer ≈ the point-draw time —
/// the regime where ideal double-buffering approaches 2×. The bench exits
/// 1 if the two modes' aggregates are not bitwise identical.
#include <cmath>

#include "bench_common.h"
#include "join/raster_join_bounded.h"
#include "query/executor.h"

using namespace rj;
using namespace rj::bench;

int main() {
  PrintHeader("Figure 9: scaling with points (out-of-device-core)",
              "Fig. 9 (paper: 868M points in 1.1s; transfer dominates the "
              "bounded breakdown and overlaps the draw)");

  auto regions = NycNeighborhoods();
  if (!regions.ok()) return 1;
  PolygonSet polys = regions.value();

  // Floors keep the out-of-core regime meaningful under smoke scales: the
  // overlap measurement needs the point draw to dominate the constant
  // polygon pass, which tiny inputs cannot show.
  const std::size_t sizes[] = {
      std::max<std::size_t>(Scaled(500'000), 150'000),
      std::max<std::size_t>(Scaled(1'000'000), 300'000),
      std::max<std::size_t>(Scaled(2'000'000), 600'000)};

  BenchJson json("fig9_scaling_points_outofcore");
  std::printf("%-12s %8s %10s | %9s %9s %9s %9s | %9s %8s\n", "points",
              "batches", "1CPU(ms)", "off(ms)", "on(ms)", "xfer(ms)",
              "proc(ms)", "ovl-spdup", "vs-1CPU");

  int exit_code = 0;
  for (const std::size_t n : sizes) {
    const PointTable points = GenerateTaxiPoints(n);

    gpu::Device probe(PaperDeviceOptions(/*memory=*/64ull << 20));
    Executor executor(&probe, &points, &polys);
    auto soup = executor.GetTriangulation();
    if (!soup.ok()) return 1;
    const BBox world = executor.world();

    double one_cpu_ms = 0.0;
    {
      SpatialAggQuery cpu_query;
      cpu_query.spec.variant = JoinVariant::kIndexCpu;
      cpu_query.policy.cpu_threads = 1;
      Timer t_cpu;
      if (!executor.Execute(cpu_query).ok()) return 1;
      one_cpu_ms = t_cpu.ElapsedMillis();
    }

    // Paper regime: the per-tile polygon pass amortizes away, the
    // per-batch point draw dominates. A ~256-pixel canvas keeps the
    // polygon pass cheap at bench scale; 16 batches mirror the
    // out-of-core batching of a memory-capped device (and keep the
    // unhideable first-batch transfer a small share).
    BoundedRasterJoinOptions options;
    options.epsilon = std::max(world.Width(), world.Height()) / 256.0 *
                      std::sqrt(2.0);
    options.batch_size = std::max<std::size_t>(points.size() / 16, 1);
    const std::size_t num_batches =
        (points.size() + options.batch_size - 1) / options.batch_size;

    // Calibration: two serialized, bandwidth-free runs (full and half
    // input) separate the point-draw slope from the constant polygon
    // pass, then the bandwidth is set so transfer ≈ point-draw — the
    // fully hideable regime Fig. 9 assumes.
    options.overlap_transfers = false;
    double draw_full_s = 0.0, draw_half_s = 0.0;
    std::uint64_t shipped_bytes = 0;
    // Warm-up (untimed): the first pass over a fresh point table pays cold
    // caches and page faults that would corrupt the slope below.
    {
      gpu::Device device(PaperDeviceOptions(/*memory=*/64ull << 20));
      if (!BoundedRasterJoin(&device, points, polys, *soup.value(), world,
                             options)
               .ok()) {
        return 1;
      }
    }
    {
      gpu::Device device(PaperDeviceOptions(/*memory=*/64ull << 20));
      auto r = BoundedRasterJoin(&device, points, polys, *soup.value(),
                                 world, options);
      if (!r.ok()) {
        std::fprintf(stderr, "calibration: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      draw_full_s = r.value().timing.Get(phase::kProcessing);
      shipped_bytes = device.counters().bytes_transferred();
    }
    {
      const PointTable half = points.Slice(0, points.size() / 2);
      gpu::Device device(PaperDeviceOptions(/*memory=*/64ull << 20));
      auto r = BoundedRasterJoin(&device, half, polys, *soup.value(),
                                 world, options);
      if (!r.ok()) return 1;
      draw_half_s = r.value().timing.Get(phase::kProcessing);
    }
    const double point_draw_s =
        std::max(2.0 * (draw_full_s - draw_half_s), 1e-4);
    const double bandwidth = static_cast<double>(shipped_bytes) / point_draw_s;

    auto dev_options = PaperDeviceOptions(/*memory=*/64ull << 20);
    dev_options.transfer_bandwidth_bytes_per_sec = bandwidth;

    // Serialized vs overlapped, identical device/bandwidth/batching.
    double mode_ms[2] = {0.0, 0.0};
    double transfer_ms = 0.0, process_ms = 0.0;
    std::vector<double> counts[2];
    for (const bool overlap : {false, true}) {
      options.overlap_transfers = overlap;
      gpu::Device device(dev_options);
      Timer t;
      auto r = BoundedRasterJoin(&device, points, polys, *soup.value(),
                                 world, options);
      if (!r.ok()) {
        std::fprintf(stderr, "bounded(overlap=%d): %s\n", overlap ? 1 : 0,
                     r.status().ToString().c_str());
        return 1;
      }
      mode_ms[overlap ? 1 : 0] = t.ElapsedMillis();
      counts[overlap ? 1 : 0] = r.value().Finalize(AggregateKind::kCount);
      if (!overlap) {
        transfer_ms = r.value().timing.Get(phase::kTransfer) * 1e3;
        process_ms = r.value().timing.Get(phase::kProcessing) * 1e3;
      }
    }

    // Hiding the transfer must never change the answer.
    bool identical = counts[0].size() == counts[1].size();
    for (std::size_t i = 0; identical && i < counts[0].size(); ++i) {
      if (counts[0][i] != counts[1][i]) {
        std::fprintf(stderr,
                     "DIVERGENCE at polygon %zu: overlap-off %.17g vs "
                     "overlap-on %.17g\n",
                     i, counts[0][i], counts[1][i]);
        identical = false;
      }
    }
    if (!identical) exit_code = 1;

    const double overlap_speedup = mode_ms[0] / std::max(mode_ms[1], 1e-9);
    std::printf(
        "%-12zu %8zu %10.1f | %9.1f %9.1f %9.1f %9.1f | %8.2fx %7.2fx\n", n,
        num_batches, one_cpu_ms, mode_ms[0], mode_ms[1], transfer_ms,
        process_ms, overlap_speedup,
        one_cpu_ms / std::max(mode_ms[1], 1e-9));
    json.Row()
        .Field("points", n)
        .Field("batches", num_batches)
        .Field("one_cpu_ms", one_cpu_ms)
        .Field("bounded_overlap_off_ms", mode_ms[0])
        .Field("bounded_overlap_on_ms", mode_ms[1])
        .Field("transfer_ms", transfer_ms)
        .Field("process_ms", process_ms)
        .Field("overlap_speedup", overlap_speedup)
        .Field("bandwidth_bytes_per_sec", bandwidth)
        .Field("identical", std::string(identical ? "yes" : "no"));
  }

  std::printf(
      "\nShape check vs paper: each point is transferred exactly once per\n"
      "tile pass, and with transfer calibrated to ~= the point draw the\n"
      "serialized breakdown is transfer-dominated (Fig. 9 right pane)\n"
      "while the double-buffered pipeline (overlap on) hides it, pushing\n"
      "end-to-end time toward the max(transfer, draw) bound (up to ~2x).\n"
      "Aggregates are bitwise identical in both modes (exit 1 otherwise).\n");
  return exit_code;
}
