/// \file block_source_determinism_test.cc
/// \brief The tentpole guarantee of the block-based scan stack: every join
/// variant run over a PointBlockSource — mmap-backed v2 file or in-memory
/// adapter — is bitwise identical to the in-memory overload on the
/// materialized rows, for any block size, worker count, or pruning
/// setting; and zone-map pruning skips most blocks of Hilbert-clustered
/// data under a selective canvas without changing a bit of the result.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/block_file.h"
#include "data/datasets.h"
#include "join/index_join.h"
#include "join/join_common.h"
#include "join/raster_join_accurate.h"
#include "join/raster_join_bounded.h"
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
                    std::uint64_t seed, BBox world = BBox(0, 0, 1000, 1000)) {
  JoinSetup s;
  s.world = world;
  auto polys = TinyRegions(num_polys, world, seed);
  EXPECT_TRUE(polys.ok());
  s.polys = polys.value();
  auto soup = TriangulatePolygonSet(s.polys);
  EXPECT_TRUE(soup.ok());
  s.soup = soup.value();

  Rng rng(seed * 31 + 7);
  s.points.AddAttribute("w");
  for (std::size_t i = 0; i < num_points; ++i) {
    // Integer-valued weights: double-exact sums for any batching.
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return s;
}

gpu::Device MakeDevice(std::size_t num_workers = 1,
                       std::size_t budget = 64 << 20) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = 512;
  options.memory_budget_bytes = budget;
  options.num_workers = num_workers;
  return gpu::Device(options);
}

void ExpectIdenticalArrays(const raster::ResultArrays& a,
                           const raster::ResultArrays& b) {
  ASSERT_EQ(a.count.size(), b.count.size());
  for (std::size_t i = 0; i < a.count.size(); ++i) {
    EXPECT_EQ(a.count[i], b.count[i]) << "count slot " << i;
    EXPECT_EQ(a.sum[i], b.sum[i]) << "sum slot " << i;
    EXPECT_EQ(a.min[i], b.min[i]) << "min slot " << i;
    EXPECT_EQ(a.max[i], b.max[i]) << "max slot " << i;
  }
}

void ExpectIdenticalRanges(const ResultRanges& a, const ResultRanges& b) {
  ASSERT_EQ(a.loose.size(), b.loose.size());
  ASSERT_EQ(a.expected.size(), b.expected.size());
  for (std::size_t i = 0; i < a.loose.size(); ++i) {
    EXPECT_EQ(a.loose[i].lower, b.loose[i].lower) << i;
    EXPECT_EQ(a.loose[i].upper, b.loose[i].upper) << i;
    EXPECT_EQ(a.expected[i].lower, b.expected[i].lower) << i;
    EXPECT_EQ(a.expected[i].upper, b.expected[i].upper) << i;
  }
}

/// Writes `points` as a v2 block file at the given capacity and opens it.
/// Caller owns the path cleanup.
std::unique_ptr<data::PointBlockSource> WriteAndOpen(
    const PointTable& points, const std::string& path,
    std::size_t block_capacity) {
  data::BlockFileOptions options;
  options.block_capacity = block_capacity;
  options.hilbert_order = 8;
  EXPECT_TRUE(data::BlockFileWriter(options).Write(path, points).ok());
  auto source = data::OpenPointBlockSource(path);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return std::move(source.value());
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// --- Bounded raster join: the full matrix. -------------------------------

TEST(BlockSourceDeterminism, BoundedMatchesInMemoryAcrossTheMatrix) {
  JoinSetup s = MakeSetup(8, 12000, 41);
  const std::string path = TempPath("det_bounded.rjb");

  BoundedRasterJoinOptions options;
  options.epsilon = 12.0;
  options.weight_column = 0;
  options.compute_result_ranges = true;
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kLess, 80.0f}).ok());

  for (const std::size_t capacity : {1000u, 4096u}) {
    auto source = WriteAndOpen(s.points, path, capacity);
    ASSERT_NE(source, nullptr);
    // The baseline: the in-memory overload on the rows in on-disk order.
    auto rows = data::MaterializeBlocks(*source);
    ASSERT_TRUE(rows.ok());
    gpu::Device ref_device = MakeDevice(1);
    ResultRanges ref_ranges;
    auto ref = BoundedRasterJoin(&ref_device, rows.value(), s.polys, s.soup,
                                 s.world, options, nullptr, &ref_ranges);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();

    for (const std::size_t workers : {1u, 8u}) {
      for (const bool prune : {false, true}) {
        options.enable_block_pruning = prune;
        gpu::Device device = MakeDevice(workers);
        ResultRanges ranges;
        BoundedRasterJoinStats stats;
        auto result = BoundedRasterJoin(&device, *source, s.polys, s.soup,
                                        s.world, options, &stats, &ranges);
        ASSERT_TRUE(result.ok())
            << result.status().ToString() << " capacity=" << capacity
            << " workers=" << workers << " prune=" << prune;
        ExpectIdenticalArrays(ref.value().arrays, result.value().arrays);
        ExpectIdenticalRanges(ref_ranges, ranges);
        // The counters must account for every block, pruned or scanned.
        EXPECT_EQ(device.counters().blocks_scanned() +
                      device.counters().blocks_pruned(),
                  source->num_blocks());
        if (!prune) {
          EXPECT_EQ(stats.blocks_pruned, 0u);
        }
      }
    }
    options.enable_block_pruning = true;
  }
  std::remove(path.c_str());
}

// --- Accurate raster + device index join. --------------------------------

TEST(BlockSourceDeterminism, AccurateMatchesInMemory) {
  JoinSetup s = MakeSetup(6, 9000, 42);
  const std::string path = TempPath("det_accurate.rjb");
  auto source = WriteAndOpen(s.points, path, 777);
  ASSERT_NE(source, nullptr);
  auto rows = data::MaterializeBlocks(*source);
  ASSERT_TRUE(rows.ok());

  AccurateRasterJoinOptions options;
  options.weight_column = 0;
  options.canvas_dim = 256;
  gpu::Device ref_device = MakeDevice(2);
  auto ref = AccurateRasterJoin(&ref_device, rows.value(), s.polys, s.soup,
                                s.world, options);
  ASSERT_TRUE(ref.ok());

  for (const bool prune : {false, true}) {
    options.enable_block_pruning = prune;
    gpu::Device device = MakeDevice(2);
    AccurateRasterJoinStats stats;
    auto result = AccurateRasterJoin(&device, *source, s.polys, s.soup,
                                     s.world, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalArrays(ref.value().arrays, result.value().arrays);
    // Exactness: pruning may not change the exact-PIP workload either.
    EXPECT_EQ(ref_device.counters().pip_tests(),
              device.counters().pip_tests());
  }
  std::remove(path.c_str());
}

TEST(BlockSourceDeterminism, IndexDeviceMatchesInMemory) {
  JoinSetup s = MakeSetup(6, 9000, 43);
  const std::string path = TempPath("det_idxdev.rjb");
  auto source = WriteAndOpen(s.points, path, 777);
  ASSERT_NE(source, nullptr);
  auto rows = data::MaterializeBlocks(*source);
  ASSERT_TRUE(rows.ok());

  IndexJoinOptions options;
  options.weight_column = 0;
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kGreaterEqual, 30.0f}).ok());
  gpu::Device ref_device = MakeDevice(2);
  auto ref = IndexJoinDevice(&ref_device, rows.value(), s.polys, s.world,
                             options);
  ASSERT_TRUE(ref.ok());

  for (const bool prune : {false, true}) {
    options.enable_block_pruning = prune;
    gpu::Device device = MakeDevice(2);
    auto result = IndexJoinDevice(&device, *source, s.polys, s.world,
                                  options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalArrays(ref.value().arrays, result.value().arrays);
    EXPECT_EQ(ref_device.counters().pip_tests(),
              device.counters().pip_tests());
  }
  std::remove(path.c_str());
}

// --- CPU index join (no device in the loop at all). ----------------------

TEST(BlockSourceDeterminism, IndexCpuMatchesInMemoryAndAccountsBlocks) {
  JoinSetup s = MakeSetup(6, 8000, 44);
  const std::string path = TempPath("det_idxcpu.rjb");
  auto source = WriteAndOpen(s.points, path, 512);
  ASSERT_NE(source, nullptr);
  auto rows = data::MaterializeBlocks(*source);
  ASSERT_TRUE(rows.ok());

  auto index = GridIndex::Build(s.polys, s.world, 64,
                                GridAssignMode::kExactGeometry);
  ASSERT_TRUE(index.ok());
  IndexJoinOptions options;
  options.weight_column = 0;
  auto ref = IndexJoinCpu(rows.value(), s.polys, index.value(), options, 1);
  ASSERT_TRUE(ref.ok());

  for (const int threads : {1, 4}) {
    for (const bool prune : {false, true}) {
      options.enable_block_pruning = prune;
      IndexJoinBlockStats stats;
      auto result = IndexJoinCpu(*source, s.polys, index.value(), options,
                                 threads, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectIdenticalArrays(ref.value().arrays, result.value().arrays);
      EXPECT_EQ(stats.blocks_scanned + stats.blocks_pruned,
                source->num_blocks());
      if (!prune) {
        EXPECT_EQ(stats.blocks_pruned, 0u);
      }
    }
  }
  std::remove(path.c_str());
}

// --- SelectBlocks vs the brute-force zone-map walk. ----------------------

TEST(BlockSourceDeterminism, SelectBlocksMatchesBruteForce) {
  JoinSetup s = MakeSetup(4, 5000, 45);
  data::TableBlockSource source(&s.points, 400);
  source.BuildZoneMaps();

  const BBox corner(0, 0, 250, 250);
  FilterSet none;
  FilterSet low;
  ASSERT_TRUE(low.Add({0, FilterOp::kLess, 10.0f}).ok());
  FilterSet impossible;  // weights are in [0, 99]: empty-range prune
  ASSERT_TRUE(impossible.Add({0, FilterOp::kGreater, 1000.0f}).ok());

  struct Case {
    const FilterSet* filters;
    const BBox* world;
  };
  const Case cases[] = {{&none, nullptr},       {&none, &corner},
                        {&low, nullptr},        {&low, &corner},
                        {&impossible, nullptr}};
  for (const Case& c : cases) {
    const BlockSelection sel = SelectBlocks(source, *c.filters, c.world,
                                            /*enable_pruning=*/true);
    std::vector<std::size_t> expected;
    for (std::size_t b = 0; b < source.num_blocks(); ++b) {
      if (ZoneMapCanMatch(*source.zone_map(b), *c.filters, c.world)) {
        expected.push_back(b);
      }
    }
    EXPECT_EQ(sel.blocks, expected);
    EXPECT_EQ(sel.scanned, expected.size());
    EXPECT_EQ(sel.scanned + sel.pruned, source.num_blocks());
  }
  // The impossible filter prunes everything; pruning off selects
  // everything regardless.
  EXPECT_TRUE(
      SelectBlocks(source, impossible, nullptr, true).blocks.empty());
  const BlockSelection all = SelectBlocks(source, impossible, &corner, false);
  EXPECT_EQ(all.blocks.size(), source.num_blocks());
  EXPECT_EQ(all.pruned, 0u);

  // A source without zone maps is never pruned.
  data::TableBlockSource bare(&s.points, 400);
  const BlockSelection unpruned = SelectBlocks(bare, impossible, &corner,
                                               true);
  EXPECT_EQ(unpruned.blocks.size(), bare.num_blocks());
}

// --- The acceptance bar: ≥50% of blocks pruned on clustered data. --------

TEST(BlockSourceDeterminism, SelectiveCanvasPrunesMostClusteredBlocks) {
  // Points cover (0,0)-(1000,1000); the polygons (and hence the canvas)
  // only the lower-left 250×250 quadrant — 1/16 of the area. With Hilbert
  // clustering at 256-row blocks, the blocks are spatially tight, so at
  // least half of them (in fact far more) must be provably outside the
  // canvas and pruned — while the result stays bitwise identical.
  JoinSetup s = MakeSetup(4, 12000, 46, BBox(0, 0, 250, 250));
  const std::string path = TempPath("det_prune.rjb");
  auto source = WriteAndOpen(s.points, path, 256);
  ASSERT_NE(source, nullptr);
  ASSERT_GE(source->num_blocks(), 40u);

  BoundedRasterJoinOptions options;
  options.epsilon = 5.0;
  options.weight_column = 0;

  options.enable_block_pruning = false;
  gpu::Device full_device = MakeDevice(1);
  auto full = BoundedRasterJoin(&full_device, *source, s.polys, s.soup,
                                s.world, options);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full_device.counters().blocks_pruned(), 0u);

  options.enable_block_pruning = true;
  gpu::Device pruned_device = MakeDevice(1);
  BoundedRasterJoinStats stats;
  auto pruned = BoundedRasterJoin(&pruned_device, *source, s.polys, s.soup,
                                  s.world, options, &stats);
  ASSERT_TRUE(pruned.ok());

  ExpectIdenticalArrays(full.value().arrays, pruned.value().arrays);
  EXPECT_GE(stats.blocks_pruned, source->num_blocks() / 2)
      << "pruned " << stats.blocks_pruned << " of " << source->num_blocks();
  EXPECT_EQ(pruned_device.counters().blocks_pruned(), stats.blocks_pruned);
  // Pruning must also skip the pruned blocks' transfers entirely.
  EXPECT_LT(pruned_device.counters().bytes_transferred(),
            full_device.counters().bytes_transferred());
  std::remove(path.c_str());
}

// --- The three-stage disk scan under a one-block budget. ----------------

TEST(BlockSourceDeterminism, DiskStagedScanBacksOffUnderMemoryPressure) {
  // 20 blocks of 400 rows at the (x, y, w) stride of 12 B: 4,800 B per
  // block VBO. The 6,000-byte budget holds one block, never two, so with
  // overlap on every upload after the first backs off (AllocateWithBackoff)
  // while the reader thread keeps loading the next block into the slot
  // the consumer just freed. The scan must complete serialized, within
  // budget, with every byte returned and bitwise equal to overlap off.
  JoinSetup s = MakeSetup(4, 8000, 48);
  const std::string path = TempPath("det_backoff.rjb");
  auto source = WriteAndOpen(s.points, path, 400);
  ASSERT_NE(source, nullptr);
  ASSERT_TRUE(source->disk_resident());
  ASSERT_EQ(source->num_blocks(), 20u);

  BoundedRasterJoinOptions options;
  options.epsilon = 12.0;
  options.weight_column = 0;

  raster::ResultArrays arrays[2] = {raster::ResultArrays(0),
                                    raster::ResultArrays(0)};
  for (const bool overlap : {false, true}) {
    options.overlap_transfers = overlap;
    gpu::Device device = MakeDevice(1, /*budget=*/6000);
    auto result = BoundedRasterJoin(&device, *source, s.polys, s.soup,
                                    s.world, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString()
                             << " overlap=" << overlap;
    EXPECT_LE(device.peak_bytes_allocated(), 6000u) << "overlap=" << overlap;
    EXPECT_EQ(device.bytes_allocated(), 0u) << "overlap=" << overlap;
    arrays[overlap ? 1 : 0] = std::move(result.value().arrays);
  }
  ExpectIdenticalArrays(arrays[0], arrays[1]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rj
