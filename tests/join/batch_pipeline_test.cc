/// \file batch_pipeline_test.cc
/// \brief Tests for the double-buffered upload pipeline
/// (join::BatchPipeline): batches view their blocks in place, overlap
/// on/off must be bitwise identical, a join must meter exactly the bytes
/// its batches ship, and pipeline errors must propagate cleanly
/// (drain-on-error).
#include "join/batch_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/block_file.h"
#include "data/datasets.h"
#include "join/index_join.h"
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
    // Integer-valued weights: double-exact sums for any batching.
    s.points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000),
                    {static_cast<float>(rng.UniformInt(100))});
  }
  return s;
}

gpu::Device MakeDevice(std::size_t budget = 64 << 20) {
  gpu::DeviceOptions options;
  options.max_fbo_dim = 512;
  options.memory_budget_bytes = budget;
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

// --- Plain pipeline mechanics. -------------------------------------------

TEST(BatchPipelineTest, PullModeCoversEveryRowInOrder) {
  JoinSetup s = MakeSetup(4, 5000, 91);
  for (const bool overlap : {false, true}) {
    gpu::Device device = MakeDevice();
    join::BatchPipeline pipeline(
        &device,
        PlanTableScan(device, s.points, /*bytes_per_point=*/0, 777, overlap),
        {0});
    EXPECT_EQ(pipeline.num_batches(), (5000 + 776) / 777);
    // Each batch views its row window of the table in place.
    std::size_t expected_begin = 0;
    std::size_t index = 0;
    for (;;) {
      auto view = pipeline.Acquire();
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      if (!view.value().has_value()) break;
      const data::BlockView& rows = view.value()->rows;
      EXPECT_EQ(view.value()->index, index);
      EXPECT_EQ(rows.xs, s.points.xs().data() + expected_begin);
      EXPECT_EQ(rows.ys, s.points.ys().data() + expected_begin);
      EXPECT_EQ(rows.attribute(0),
                s.points.attribute(0).data() + expected_begin);
      EXPECT_EQ(rows.size, std::min<std::size_t>(
                               777, s.points.size() - expected_begin));
      expected_begin += rows.size;
      ++index;
      pipeline.Release(*view.value());
    }
    EXPECT_EQ(expected_begin, s.points.size());
    PhaseTimer timing;
    EXPECT_TRUE(pipeline.Drain(&timing).ok());
    // Stride: x, y plus one attribute column, float32 each.
    EXPECT_EQ(device.counters().bytes_transferred(),
              s.points.size() * 3 * sizeof(float));
    // Every buffer was released: nothing left allocated on the device.
    EXPECT_EQ(device.bytes_allocated(), 0u);
  }
}

TEST(BatchPipelineTest, DiskBatchesViewTheMappedBlocksInPlace) {
  JoinSetup s = MakeSetup(4, 5000, 95);
  const std::string path = ::testing::TempDir() + "/batch_pipeline_test.rjb";
  data::BlockFileOptions file_options;
  file_options.block_capacity = 777;
  ASSERT_TRUE(data::BlockFileWriter(file_options).Write(path, s.points).ok());
  auto reader = data::BlockFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const data::BlockFileReader& source = *reader.value();
  ASSERT_EQ(source.num_blocks(), (5000u + 776) / 777);
  // Block bytes of the whole file: x, y as f64 plus one f32 column.
  const std::size_t file_bytes =
      s.points.size() * (2 * sizeof(double) + sizeof(float));
  const FilterSet no_filters;
  // Serialized, then three-stage (reader, transfer and drawing threads).
  for (const bool overlap : {false, true}) {
    std::vector<data::BlockView> mapped;
    for (std::size_t b = 0; b < source.num_blocks(); ++b) {
      auto view = source.ViewBlock(b);
      ASSERT_TRUE(view.ok());
      mapped.push_back(std::move(view).MoveValueUnsafe());
    }
    const std::uint64_t read_before = source.bytes_read();
    gpu::Device device = MakeDevice();
    join::BatchPipeline pipeline(
        &device,
        PlanBlockScan(&device, source, {&no_filters}, s.world,
                      /*enable_pruning=*/false, overlap),
        {0});
    std::size_t index = 0;
    for (;;) {
      auto view = pipeline.Acquire();
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      if (!view.value().has_value()) break;
      const data::BlockView& rows = view.value()->rows;
      ASSERT_LT(index, mapped.size());
      EXPECT_EQ(rows.xs, mapped[index].xs) << "batch " << index;
      EXPECT_EQ(rows.ys, mapped[index].ys) << "batch " << index;
      EXPECT_EQ(rows.attrs, mapped[index].attrs) << "batch " << index;
      EXPECT_EQ(rows.size, source.block_rows(index)) << "batch " << index;
      ++index;
      pipeline.Release(*view.value());
    }
    EXPECT_EQ(index, source.num_blocks());
    EXPECT_TRUE(pipeline.Drain(nullptr).ok());
    // x, y plus one attribute column, float32 each, once per row.
    EXPECT_EQ(device.counters().bytes_transferred(),
              s.points.size() * 3 * sizeof(float));
    EXPECT_EQ(source.bytes_read() - read_before, file_bytes);
    EXPECT_EQ(device.bytes_allocated(), 0u);
  }
  std::remove(path.c_str());
}

TEST(BatchPipelineTest, OverlapKeepsAtMostTwoBatchesResident) {
  JoinSetup s = MakeSetup(4, 4096, 92);
  gpu::Device device = MakeDevice();
  const std::size_t stride_bytes = 3 * sizeof(float);
  join::BatchPipeline pipeline(
      &device,
      PlanTableScan(device, s.points, /*bytes_per_point=*/0, 1024,
                    /*overlap_transfers=*/true),
      {0});
  for (;;) {
    auto view = pipeline.Acquire();
    ASSERT_TRUE(view.ok());
    if (!view.value().has_value()) break;
    pipeline.Release(*view.value());
  }
  EXPECT_TRUE(pipeline.Drain(nullptr).ok());
  EXPECT_LE(device.peak_bytes_allocated(), 2 * 1024 * stride_bytes);
  EXPECT_EQ(device.bytes_allocated(), 0u);
}

TEST(BatchPipelineTest, RewindRestreamsEveryBatchPerTilePass) {
  JoinSetup s = MakeSetup(4, 5000, 91);
  // Multi-tile joins re-stream the points once per tile pass through the
  // same pipeline (Rewind), keeping the transfer thread warm instead of
  // rebuilding the pipeline per tile.
  constexpr std::size_t kPasses = 3;
  for (const bool overlap : {false, true}) {
    gpu::Device device = MakeDevice();
    join::BatchPipeline pipeline(
        &device,
        PlanTableScan(device, s.points, /*bytes_per_point=*/0, 777, overlap),
        {0});
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      if (pass > 0) {
        ASSERT_TRUE(pipeline.Rewind().ok());
      }
      std::size_t expected_begin = 0;
      std::size_t index = 0;
      for (;;) {
        auto view = pipeline.Acquire();
        ASSERT_TRUE(view.ok()) << view.status().ToString();
        if (!view.value().has_value()) break;
        const data::BlockView& rows = view.value()->rows;
        EXPECT_EQ(view.value()->index, index);
        EXPECT_EQ(rows.xs, s.points.xs().data() + expected_begin);
        EXPECT_EQ(rows.size, std::min<std::size_t>(
                                 777, s.points.size() - expected_begin));
        expected_begin += rows.size;
        ++index;
        pipeline.Release(*view.value());
      }
      EXPECT_EQ(expected_begin, s.points.size()) << "pass " << pass;
    }
    EXPECT_TRUE(pipeline.Drain(nullptr).ok());
    EXPECT_EQ(device.counters().bytes_transferred(),
              kPasses * s.points.size() * 3 * sizeof(float));
    EXPECT_LE(device.peak_bytes_allocated(),
              (overlap ? 2u : 1u) * 777 * 3 * sizeof(float));
    EXPECT_EQ(device.bytes_allocated(), 0u);
  }
}

// --- Determinism: overlap on vs off. --------------------------------------

TEST(BatchPipelineTest, BoundedJoinOverlapBitwiseIdentical) {
  JoinSetup s = MakeSetup(8, 12000, 93);
  BoundedRasterJoinOptions options;
  options.epsilon = 12.0;
  options.weight_column = 0;
  options.batch_size = 999;  // 13 batches
  options.compute_result_ranges = true;

  // Serialized reference.
  options.overlap_transfers = false;
  gpu::Device ref_device = MakeDevice();
  ResultRanges ref_ranges;
  auto ref = BoundedRasterJoin(&ref_device, s.points, s.polys, s.soup,
                               s.world, options, nullptr, &ref_ranges);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  for (const bool overlap : {false, true}) {
    options.overlap_transfers = overlap;
    gpu::Device device = MakeDevice();
    ResultRanges ranges;
    auto result = BoundedRasterJoin(&device, s.points, s.polys, s.soup,
                                    s.world, options, nullptr, &ranges);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalArrays(ref.value().arrays, result.value().arrays);
    ASSERT_EQ(ref_ranges.loose.size(), ranges.loose.size());
    for (std::size_t i = 0; i < ranges.loose.size(); ++i) {
      EXPECT_EQ(ref_ranges.loose[i].lower, ranges.loose[i].lower);
      EXPECT_EQ(ref_ranges.loose[i].upper, ranges.loose[i].upper);
      EXPECT_EQ(ref_ranges.expected[i].lower, ranges.expected[i].lower);
      EXPECT_EQ(ref_ranges.expected[i].upper, ranges.expected[i].upper);
    }
    // Overlap must not change the metered work either.
    EXPECT_EQ(ref_device.counters().bytes_transferred(),
              device.counters().bytes_transferred());
    EXPECT_EQ(ref_device.counters().batches(),
              device.counters().batches());
  }
}

TEST(BatchPipelineTest, AccurateAndIndexJoinsOverlapBitwiseIdentical) {
  JoinSetup s = MakeSetup(6, 9000, 94);

  AccurateRasterJoinOptions acc;
  acc.weight_column = 0;
  acc.batch_size = 701;
  acc.canvas_dim = 256;
  acc.overlap_transfers = false;
  gpu::Device d1 = MakeDevice();
  auto acc_off = AccurateRasterJoin(&d1, s.points, s.polys, s.soup, s.world,
                                    acc);
  ASSERT_TRUE(acc_off.ok());
  acc.overlap_transfers = true;
  gpu::Device d2 = MakeDevice();
  auto acc_on = AccurateRasterJoin(&d2, s.points, s.polys, s.soup, s.world,
                                   acc);
  ASSERT_TRUE(acc_on.ok());
  ExpectIdenticalArrays(acc_off.value().arrays, acc_on.value().arrays);
  EXPECT_EQ(d1.counters().bytes_transferred(),
            d2.counters().bytes_transferred());
  EXPECT_EQ(d1.counters().pip_tests(), d2.counters().pip_tests());

  IndexJoinOptions idx;
  idx.weight_column = 0;
  idx.batch_size = 701;
  idx.overlap_transfers = false;
  gpu::Device d3 = MakeDevice();
  auto idx_off = IndexJoinDevice(&d3, s.points, s.polys, s.world, idx);
  ASSERT_TRUE(idx_off.ok());
  idx.overlap_transfers = true;
  gpu::Device d4 = MakeDevice();
  auto idx_on = IndexJoinDevice(&d4, s.points, s.polys, s.world, idx);
  ASSERT_TRUE(idx_on.ok());
  ExpectIdenticalArrays(idx_off.value().arrays, idx_on.value().arrays);
  EXPECT_EQ(d3.counters().bytes_transferred(),
            d4.counters().bytes_transferred());
  EXPECT_EQ(d3.counters().pip_tests(), d4.counters().pip_tests());
}

// --- Metering: the bytes a join ships. ----------------------------------

TEST(BatchPipelineTest, BoundedJoinShipsAFilteredWeightColumnOnce) {
  JoinSetup s = MakeSetup(8, 9000, 96);
  BoundedRasterJoinOptions options;
  options.epsilon = 12.0;  // single 118² tile: one pass over the batches
  options.weight_column = 0;
  // The weight column is also a filter column: the upload plan must ship
  // it once, not twice.
  ASSERT_TRUE(options.filters.Add({0, FilterOp::kLess, 80.0f}).ok());

  constexpr std::size_t kBatch = 1234;
  gpu::Device device = MakeDevice();
  options.batch_size = kBatch;
  auto whole = BoundedRasterJoin(&device, s.points, s.polys, s.soup, s.world,
                                 options);
  ASSERT_TRUE(whole.ok());

  // Points exactly once at the deduped stride, the triangle VBO exactly
  // once per query, one batch per kBatch-point slice.
  const std::size_t expected =
      s.points.size() * 3 * sizeof(float) + TriangleVboBytes(s.soup.size());
  EXPECT_EQ(device.counters().bytes_transferred(), expected);
  EXPECT_EQ(device.counters().batches(),
            (s.points.size() + kBatch - 1) / kBatch);
}

// --- Error propagation / drain-on-error. ---------------------------------

TEST(BatchPipelineTest, GenuineAllocationFailurePropagatesCleanly) {
  JoinSetup s = MakeSetup(4, 1000, 97);
  // COUNT stride (x, y): 8 bytes, so a 400-point batch is 3200 B — larger
  // than the whole 2000-byte budget. The very first upload must fail with
  // CapacityError, the error must surface from Acquire, and Drain must
  // return every device byte (no leaked thread, no leaked buffer).
  gpu::Device device = MakeDevice(/*budget=*/2000);
  {
    join::BatchPipeline pipeline(
        &device,
        PlanTableScan(device, s.points, /*bytes_per_point=*/0, 400,
                      /*overlap_transfers=*/true),
        {});
    auto first = pipeline.Acquire();
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kCapacityError);
    EXPECT_EQ(pipeline.Drain(nullptr).code(), StatusCode::kCapacityError);
  }
  EXPECT_EQ(device.bytes_allocated(), 0u);
}

TEST(BatchPipelineTest, PrefetchBacksOffToSerializedUnderMemoryPressure) {
  JoinSetup s = MakeSetup(4, 1000, 97);
  // One 400-point batch (3200 B) fits the 4000-byte budget; two in flight
  // cannot. The prefetcher must wait for the drawn batch's buffer instead
  // of failing (AllocateWithBackoff) — the query succeeds with serialized
  // throughput and identical results, never exceeding the budget.
  IndexJoinOptions options;
  options.batch_size = 400;
  gpu::Device overlap_device = MakeDevice(/*budget=*/4000);
  auto overlapped = IndexJoinDevice(&overlap_device, s.points, s.polys,
                                    s.world, options);
  ASSERT_TRUE(overlapped.ok()) << overlapped.status().ToString();
  EXPECT_LE(overlap_device.peak_bytes_allocated(), 4000u);
  EXPECT_EQ(overlap_device.bytes_allocated(), 0u);

  options.overlap_transfers = false;
  gpu::Device serial_device = MakeDevice(/*budget=*/4000);
  auto serial = IndexJoinDevice(&serial_device, s.points, s.polys, s.world,
                                options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExpectIdenticalArrays(serial.value().arrays, overlapped.value().arrays);
  EXPECT_EQ(serial_device.counters().bytes_transferred(),
            overlap_device.counters().bytes_transferred());
}

TEST(BatchPipelineTest, DerivedBatchSizeCoversDoubleBufferWithinBudget) {
  JoinSetup s = MakeSetup(4, 5000, 98);
  // batch_size = 0: the join derives the batch from the free budget. With
  // overlap the derived size must leave room for both in-flight buffers.
  IndexJoinOptions options;
  gpu::Device device = MakeDevice(/*budget=*/4096);
  auto result = IndexJoinDevice(&device, s.points, s.polys, s.world, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(device.peak_bytes_allocated(), 4096u);
  EXPECT_EQ(device.bytes_allocated(), 0u);
}

}  // namespace
}  // namespace rj
