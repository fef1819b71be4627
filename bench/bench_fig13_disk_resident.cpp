/// \file bench_fig13_disk_resident.cpp
/// \brief Reproduces Figure 13: Twitter ⋈ County when the point data does
/// not fit in host memory and must be streamed from disk. The disk tier is
/// the v2 block file (data/block_file.h): Hilbert-clustered fixed-capacity
/// blocks read through mmap by the three-stage disk→host→device pipeline.
/// Left pane: total query time (includes disk access). Right pane:
/// processing time excluding memory access. Paper result: GPU approaches
/// keep >10× speedup despite disk I/O, and processing-only times match
/// the in-memory experiments.
///
/// Two extra axes beyond the paper's figure:
///  * scan throughput — MB/s of block bytes moved from the file to the
///    device per variant: bytes_read / (phase::kDiskRead + phase::kTransfer
///    wall time). A block is read in place (a view of the mapping), so
///    the disk-read phase only creates the view; the page-ins of a fresh
///    mapping and the pack into the device buffer are timed under the
///    transfer phase, and the scan rate spans both;
///  * pruning selectivity — a sweep of canvas sub-regions over the same
///    file, reporting the fraction of blocks the zone maps prune and the
///    disk bytes saved, pruning on vs off.
///
/// Every disk-resident execution is checked bitwise against the in-memory
/// join on the materialized rows; ANY divergence exits 1 — this bench is
/// the CI gate for the disk tier's determinism contract.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/block_file.h"
#include "index/grid_index.h"
#include "join/index_join.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
#include "triangulate/triangulation.h"

using namespace rj;
using namespace rj::bench;

namespace {

/// Bitwise comparison of two result arrays; any mismatch is a determinism
/// bug in the disk tier and fails the bench (and CI).
bool Identical(const raster::ResultArrays& a, const raster::ResultArrays& b) {
  if (a.count.size() != b.count.size()) return false;
  for (std::size_t i = 0; i < a.count.size(); ++i) {
    if (a.count[i] != b.count[i] || a.sum[i] != b.sum[i] ||
        a.min[i] != b.min[i] || a.max[i] != b.max[i]) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<data::PointBlockSource> OpenOrDie(const std::string& path) {
  auto source = data::OpenPointBlockSource(path);
  if (!source.ok()) {
    std::fprintf(stderr, "open %s: %s\n", path.c_str(),
                 source.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(source.value());
}

/// Scan throughput of one execution: bytes the source read over the time
/// spent viewing blocks and packing them into device buffers.
double ScanMbPerSec(const data::PointBlockSource& source,
                    const JoinResult& result) {
  const double scan_s = result.timing.Get(phase::kDiskRead) +
                        result.timing.Get(phase::kTransfer);
  if (scan_s <= 0.0) return 0.0;
  return static_cast<double>(source.bytes_read()) / (1 << 20) / scan_s;
}

}  // namespace

int main() {
  PrintHeader("Figure 13: disk-resident data (Twitter x County)",
              "Fig. 13 (paper: 2.3B points, Bounded device-processing < 5s; "
              ">10x speedup vs CPU despite disk I/O)");

  auto counties = UsCounties();
  if (!counties.ok()) {
    std::fprintf(stderr, "counties: %s\n",
                 counties.status().ToString().c_str());
    return 1;
  }
  PolygonSet polys = counties.value();
  const BBox world = UsExtentMeters();

  auto soup_result = TriangulatePolygonSet(polys);
  if (!soup_result.ok()) return 1;
  const TriangleSoup soup = soup_result.value();
  auto cpu_index =
      GridIndex::Build(polys, world, 1024, GridAssignMode::kExactGeometry);
  if (!cpu_index.ok()) return 1;

  BenchJson json("fig13_disk_resident");
  const std::string path = "/tmp/rj_twitter_bench.rjb";
  // Scaled ε (see bench_fig8): paper uses 1 km on the full 2.3B points.
  const double kEps = 4000.0;
  bool diverged = false;

  // --- Part 1: the figure — total vs processing time per variant. --------

  const std::size_t sizes[] = {Scaled(500'000), Scaled(1'000'000),
                               Scaled(2'300'000)};
  std::printf("%-12s | %9s %9s %9s | %12s %12s | %10s\n", "points",
              "1CPU(ms)", "Accur(ms)", "Bound(ms)", "proc-Acc(ms)",
              "proc-Bnd(ms)", "scan MB/s");

  for (const std::size_t n : sizes) {
    PointTable rows;  // materialized on-disk order: the bitwise baseline
    {
      const PointTable all = GenerateTwitterPoints(n);
      data::BlockFileOptions options;
      options.block_capacity = 1u << 16;
      if (!data::BlockFileWriter(options).Write(path, all).ok()) return 1;
      auto source = OpenOrDie(path);
      auto materialized = data::MaterializeBlocks(*source);
      if (!materialized.ok()) return 1;
      rows = std::move(materialized).MoveValueUnsafe();
    }

    // CPU 1T baseline, block-at-a-time from disk.
    IndexJoinOptions cpu_options;
    auto cpu_source = OpenOrDie(path);
    Timer t_cpu;
    auto cpu = IndexJoinCpu(*cpu_source, polys, cpu_index.value(),
                            cpu_options, 1);
    if (!cpu.ok()) return 1;
    const double cpu_ms = t_cpu.ElapsedMillis();
    auto cpu_mem = IndexJoinCpu(rows, polys, cpu_index.value(), cpu_options, 1);
    if (!cpu_mem.ok()) return 1;
    diverged |= !Identical(cpu.value().arrays, cpu_mem.value().arrays);

    // Accurate raster join over the block pipeline.
    gpu::Device dev_acc(PaperDeviceOptions(/*memory=*/8ull << 20, 2048));
    AccurateRasterJoinOptions acc_options;
    acc_options.canvas_dim = 2048;
    auto acc_source = OpenOrDie(path);
    Timer t_acc;
    auto acc = AccurateRasterJoin(&dev_acc, *acc_source, polys, soup, world,
                                  acc_options);
    if (!acc.ok()) return 1;
    const double acc_ms = t_acc.ElapsedMillis();
    const double acc_mbps = ScanMbPerSec(*acc_source, acc.value());
    gpu::Device dev_acc_mem(PaperDeviceOptions(8ull << 20, 2048));
    auto acc_mem = AccurateRasterJoin(&dev_acc_mem, rows, polys, soup, world,
                                      acc_options);
    if (!acc_mem.ok()) return 1;
    diverged |= !Identical(acc.value().arrays, acc_mem.value().arrays);

    // Bounded raster join over the block pipeline.
    gpu::Device dev_bnd(PaperDeviceOptions(/*memory=*/8ull << 20, 2048));
    BoundedRasterJoinOptions bnd_options;
    bnd_options.epsilon = kEps;
    auto bnd_source = OpenOrDie(path);
    Timer t_bnd;
    auto bnd = BoundedRasterJoin(&dev_bnd, *bnd_source, polys, soup, world,
                                 bnd_options);
    if (!bnd.ok()) return 1;
    const double bnd_ms = t_bnd.ElapsedMillis();
    const double bnd_mbps = ScanMbPerSec(*bnd_source, bnd.value());
    gpu::Device dev_bnd_mem(PaperDeviceOptions(8ull << 20, 2048));
    auto bnd_mem = BoundedRasterJoin(&dev_bnd_mem, rows, polys, soup, world,
                                     bnd_options);
    if (!bnd_mem.ok()) return 1;
    diverged |= !Identical(bnd.value().arrays, bnd_mem.value().arrays);

    const double scan_mbps = (acc_mbps + bnd_mbps) / 2.0;
    std::printf("%-12zu | %9.1f %9.1f %9.1f | %12.1f %12.1f | %10.1f\n", n,
                cpu_ms, acc_ms, bnd_ms,
                acc.value().timing.Get(phase::kProcessing) * 1e3,
                bnd.value().timing.Get(phase::kProcessing) * 1e3, scan_mbps);
    json.Row()
        .Field("kind", std::string("fig13"))
        .Field("points", n)
        .Field("cpu_ms", cpu_ms)
        .Field("accurate_ms", acc_ms)
        .Field("bounded_ms", bnd_ms)
        .Field("accurate_processing_ms",
               acc.value().timing.Get(phase::kProcessing) * 1e3)
        .Field("bounded_processing_ms",
               bnd.value().timing.Get(phase::kProcessing) * 1e3)
        .Field("accurate_disk_ms",
               acc.value().timing.Get(phase::kDiskRead) * 1e3)
        .Field("bounded_disk_ms",
               bnd.value().timing.Get(phase::kDiskRead) * 1e3)
        .Field("scan_mb_per_s", scan_mbps)
        .Field("bytes_read", static_cast<std::size_t>(bnd_source->bytes_read()));
  }

  // --- Part 2: pruning selectivity — canvas sub-regions of the extent. ----

  const std::size_t n_prune = Scaled(1'000'000);
  {
    const PointTable all = GenerateTwitterPoints(n_prune);
    data::BlockFileOptions options;
    options.block_capacity = 1u << 13;  // finer blocks: pruning-grain axis
    if (!data::BlockFileWriter(options).Write(path, all).ok()) return 1;
  }

  std::printf("\npruning selectivity (%zu points, 8K-row blocks)\n", n_prune);
  std::printf("%-10s | %10s %12s %12s | %10s %10s\n", "canvas", "pruned(%)",
              "bytes-off", "bytes-on", "off(ms)", "on(ms)");

  // Shrinking canvas windows anchored at the extent's lower-left: the full
  // extent (nothing prunable), then 1/4, 1/16, and 1/64 of the area.
  for (const double frac : {1.0, 0.5, 0.25, 0.125}) {
    const BBox canvas(world.min_x, world.min_y,
                      world.min_x + world.Width() * frac,
                      world.min_y + world.Height() * frac);
    auto region_polys = TinyRegions(32, canvas, 4242);
    if (!region_polys.ok()) return 1;
    auto region_soup = TriangulatePolygonSet(region_polys.value());
    if (!region_soup.ok()) return 1;

    BoundedRasterJoinOptions options;
    options.epsilon = kEps;

    options.enable_block_pruning = false;
    auto off_source = OpenOrDie(path);
    gpu::Device dev_off(PaperDeviceOptions(8ull << 20, 2048));
    Timer t_off;
    auto off = BoundedRasterJoin(&dev_off, *off_source, region_polys.value(),
                                 region_soup.value(), canvas, options);
    if (!off.ok()) return 1;
    const double off_ms = t_off.ElapsedMillis();

    options.enable_block_pruning = true;
    auto on_source = OpenOrDie(path);
    gpu::Device dev_on(PaperDeviceOptions(8ull << 20, 2048));
    BoundedRasterJoinStats stats;
    Timer t_on;
    auto on = BoundedRasterJoin(&dev_on, *on_source, region_polys.value(),
                                region_soup.value(), canvas, options, &stats);
    if (!on.ok()) return 1;
    const double on_ms = t_on.ElapsedMillis();

    // The determinism gate: pruning may only skip provably-empty blocks.
    diverged |= !Identical(off.value().arrays, on.value().arrays);

    const double pruned_pct = 100.0 * static_cast<double>(stats.blocks_pruned) /
                              static_cast<double>(on_source->num_blocks());
    char label[32];
    std::snprintf(label, sizeof(label), "%.3gx%.3g", frac, frac);
    std::printf("%-10s | %10.1f %12zu %12zu | %10.1f %10.1f\n", label,
                pruned_pct, static_cast<std::size_t>(off_source->bytes_read()),
                static_cast<std::size_t>(on_source->bytes_read()), off_ms,
                on_ms);
    json.Row()
        .Field("kind", std::string("pruning"))
        .Field("points", n_prune)
        .Field("canvas_fraction", frac * frac)
        .Field("num_blocks", on_source->num_blocks())
        .Field("blocks_pruned", stats.blocks_pruned)
        .Field("pruned_pct", pruned_pct)
        .Field("bytes_read_off", static_cast<std::size_t>(off_source->bytes_read()))
        .Field("bytes_read_on", static_cast<std::size_t>(on_source->bytes_read()))
        .Field("full_scan_ms", off_ms)
        .Field("pruned_scan_ms", on_ms);
  }
  std::remove(path.c_str());

  if (diverged) {
    std::fprintf(stderr,
                 "\nFAIL: disk-resident execution diverged from the "
                 "in-memory baseline (determinism contract broken)\n");
    return 1;
  }
  std::printf(
      "\nShape check vs paper: totals include disk reads; the\n"
      "processing-only columns (right pane) stay consistent with the\n"
      "in-memory experiments, Bounded < Accurate < 1CPU throughout, and\n"
      "Hilbert-clustered zone maps prune most blocks for selective\n"
      "canvases (bytes-on << bytes-off) with bitwise-identical results.\n");
  return 0;
}
