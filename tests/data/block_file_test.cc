/// \file block_file_test.cc
/// \brief v2 block-file format tests: the deterministic Hilbert write
/// order (replicated in-test against the public HilbertIndex), zone-map
/// metadata vs the brute-force oracle, v1 interop through
/// OpenPointBlockSource, byte metering, and corrupt-file rejection.
#include "data/block_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/column_store.h"
#include "data/sharded_table.h"

namespace rj::data {
namespace {

class BlockFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/block_file_test.rjb";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  PointTable MakeTable(std::size_t n, std::uint64_t seed = 808) {
    Rng rng(seed);
    PointTable t;
    t.AddAttribute("fare");
    t.AddAttribute("hour");
    for (std::size_t i = 0; i < n; ++i) {
      t.Append(rng.Uniform(0, 100), rng.Uniform(0, 100),
               {static_cast<float>(rng.Uniform(0, 50)),
                static_cast<float>(rng.UniformInt(24))});
    }
    return t;
  }

  std::string path_;
};

/// The writer's quantization rule, replicated from the documented layout
/// contract so the test pins the on-disk permutation independently of the
/// implementation.
std::uint32_t Quantize(double v, double lo, double hi, std::uint64_t cells) {
  if (!(hi > lo)) return 0;
  const double t = (v - lo) / (hi - lo);
  if (!std::isfinite(t)) return 0;
  auto cell = static_cast<std::int64_t>(t * static_cast<double>(cells));
  cell =
      std::clamp<std::int64_t>(cell, 0, static_cast<std::int64_t>(cells) - 1);
  return static_cast<std::uint32_t>(cell);
}

/// Expected on-disk row order: stable sort by Hilbert cell over the
/// table's extent (equal cells keep input order).
std::vector<std::size_t> ExpectedHilbertOrder(const PointTable& t,
                                              std::uint32_t order) {
  const BBox extent = t.Extent();
  const std::uint64_t cells = 1ull << order;
  std::vector<std::uint64_t> keys(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    keys[i] = HilbertIndex(order, Quantize(t.xs()[i], extent.min_x,
                                           extent.max_x, cells),
                           Quantize(t.ys()[i], extent.min_y, extent.max_y,
                                    cells));
  }
  std::vector<std::size_t> perm(t.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&keys](std::size_t a, std::size_t b) {
                     return keys[a] < keys[b];
                   });
  return perm;
}

void ExpectRowsBitwiseEqual(const PointTable& got, const PointTable& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.num_attributes(), want.num_attributes());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.xs()[i], want.xs()[i]) << "row " << i;
    EXPECT_EQ(got.ys()[i], want.ys()[i]) << "row " << i;
    for (std::size_t c = 0; c < got.num_attributes(); ++c) {
      EXPECT_EQ(got.attribute(c)[i], want.attribute(c)[i])
          << "row " << i << " col " << c;
    }
  }
}

TEST_F(BlockFileTest, HilbertWriteMatchesReplicatedPermutation) {
  const PointTable original = MakeTable(1500);
  BlockFileOptions options;
  options.block_capacity = 256;
  options.hilbert_order = 8;
  ASSERT_TRUE(BlockFileWriter(options).Write(path_, original).ok());

  auto reader = BlockFileReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto materialized = MaterializeBlocks(*reader.value());
  ASSERT_TRUE(materialized.ok());

  const std::vector<std::size_t> perm = ExpectedHilbertOrder(original, 8);
  PointTable expected;
  expected.AddAttribute("fare");
  expected.AddAttribute("hour");
  for (const std::size_t r : perm) {
    expected.Append(original.xs()[r], original.ys()[r],
                    {original.attribute(0)[r], original.attribute(1)[r]});
  }
  ExpectRowsBitwiseEqual(materialized.value(), expected);
}

TEST_F(BlockFileTest, UnclusteredWritePreservesRowOrder) {
  const PointTable original = MakeTable(777);
  BlockFileOptions options;
  options.block_capacity = 100;
  options.hilbert_cluster = false;
  ASSERT_TRUE(BlockFileWriter(options).Write(path_, original).ok());

  auto reader = BlockFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->num_blocks(), (777u + 99) / 100);
  auto materialized = MaterializeBlocks(*reader.value());
  ASSERT_TRUE(materialized.ok());
  ExpectRowsBitwiseEqual(materialized.value(), original);
}

TEST_F(BlockFileTest, ZoneMapsMatchBruteForceOracle) {
  BlockFileOptions options;
  options.block_capacity = 128;
  ASSERT_TRUE(BlockFileWriter(options).Write(path_, MakeTable(1000)).ok());

  auto reader = BlockFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  // The oracle recomputes each zone map from the materialized (on-disk
  // order) rows; the header metadata must match it exactly.
  auto rows = MaterializeBlocks(*reader.value());
  ASSERT_TRUE(rows.ok());
  std::size_t begin = 0;
  for (std::size_t b = 0; b < reader.value()->num_blocks(); ++b) {
    const std::size_t end = begin + reader.value()->block_rows(b);
    const BlockZoneMap want = ComputeZoneMap(rows.value(), begin, end);
    const BlockZoneMap* got = reader.value()->zone_map(b);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->bbox, want.bbox) << "block " << b;
    ASSERT_EQ(got->col_min.size(), want.col_min.size());
    for (std::size_t c = 0; c < want.col_min.size(); ++c) {
      EXPECT_EQ(got->col_min[c], want.col_min[c]) << "block " << b;
      EXPECT_EQ(got->col_max[c], want.col_max[c]) << "block " << b;
    }
    begin = end;
  }
  EXPECT_EQ(begin, reader.value()->num_rows());
}

TEST_F(BlockFileTest, SchemaExtentAndBlockShapeRoundTrip) {
  const PointTable original = MakeTable(1000);
  BlockFileOptions options;
  options.block_capacity = 300;
  ASSERT_TRUE(BlockFileWriter(options).Write(path_, original).ok());

  auto reader = BlockFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  const PointBlockSource& src = *reader.value();
  EXPECT_EQ(src.num_rows(), 1000u);
  EXPECT_EQ(src.block_capacity(), 300u);
  EXPECT_EQ(src.num_blocks(), 4u);  // 300+300+300+100
  EXPECT_EQ(src.block_rows(3), 100u);
  EXPECT_EQ(src.extent(), original.Extent());
  ASSERT_EQ(src.num_attributes(), 2u);
  EXPECT_EQ(src.attribute_names()[0], "fare");
  EXPECT_EQ(src.attribute_names()[1], "hour");
  EXPECT_EQ(src.FindAttribute("hour"), 1u);
  EXPECT_EQ(src.FindAttribute("nope"), PointTable::npos);
  EXPECT_TRUE(src.disk_resident());
}

/// Expects `view` to hold exactly rows [begin, begin + view.size) of
/// `table`, bit for bit.
void ExpectViewHoldsRows(const BlockView& view, const PointTable& table,
                         std::size_t begin) {
  ASSERT_EQ(view.attrs.size(), table.num_attributes());
  for (std::size_t i = 0; i < view.size; ++i) {
    EXPECT_EQ(view.xs[i], table.xs()[begin + i]) << "row " << i;
    EXPECT_EQ(view.ys[i], table.ys()[begin + i]) << "row " << i;
    for (std::size_t c = 0; c < table.num_attributes(); ++c) {
      EXPECT_EQ(view.attribute(c)[i], table.attribute(c)[begin + i])
          << "row " << i << " col " << c;
    }
  }
}

TEST_F(BlockFileTest, BytesReadMetered) {
  BlockFileOptions options;
  options.block_capacity = 100;
  options.hilbert_cluster = false;  // on-disk order is the written order
  const PointTable table = MakeTable(250);
  ASSERT_TRUE(BlockFileWriter(options).Write(path_, table).ok());
  auto reader = BlockFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->bytes_read(), 0u);
  ASSERT_TRUE(reader.value()->ViewBlock(0).ok());
  // 100 rows × (2 × 8 B locations + 2 × 4 B attrs) = 2400 B.
  EXPECT_EQ(reader.value()->bytes_read(), 100u * (16 + 8));
  auto tail = reader.value()->ViewBlock(2);  // 50-row tail
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(reader.value()->bytes_read(), 150u * (16 + 8));
  ASSERT_EQ(tail.value().size, 50u);
  ExpectViewHoldsRows(tail.value(), table, 200);
}

/// The read path: ViewBlock's columns must be bitwise the written rows,
/// the pointers must stay put across repeated views (they alias the file
/// mapping, not a per-call buffer), and every view meters the block's
/// bytes — Fig. 13 counts block bytes accessed, not bytes memcpy'd.
TEST_F(BlockFileTest, ViewBlockIsZeroCopyAndMetersLikeReadBlock) {
  BlockFileOptions options;
  options.block_capacity = 100;
  options.hilbert_cluster = false;  // on-disk order is the written order
  const PointTable table = MakeTable(250);
  ASSERT_TRUE(BlockFileWriter(options).Write(path_, table).ok());
  auto reader = BlockFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());

  auto view = reader.value()->ViewBlock(0);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  // 100 rows × (16 + 8) B.
  EXPECT_EQ(reader.value()->bytes_read(), 100u * (16 + 8));
  ASSERT_EQ(view.value().size, 100u);
  ExpectViewHoldsRows(view.value(), table, 0);

  // Repeated views of the same block return the same mapped addresses —
  // the view aliases the file mapping rather than any per-call buffer.
  auto again = reader.value()->ViewBlock(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().xs, view.value().xs);
  EXPECT_EQ(again.value().ys, view.value().ys);
  EXPECT_EQ(again.value().attrs, view.value().attrs);
  EXPECT_EQ(reader.value()->bytes_read(), 2u * 100u * (16 + 8));

  EXPECT_FALSE(reader.value()->ViewBlock(99).ok());
}

/// ViewBlock over an in-memory adapter: block-local column pointers
/// straight into the parent table (ViewRows).
TEST_F(BlockFileTest, TableSourceViewBlockAliasesParentTable) {
  const PointTable table = MakeTable(250);
  TableBlockSource source(&table, 100);
  auto view = source.ViewBlock(2);  // 50-row tail block
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().size, 50u);
  EXPECT_EQ(view.value().xs, table.xs().data() + 200);
  EXPECT_EQ(view.value().ys, table.ys().data() + 200);
  ASSERT_EQ(view.value().attrs.size(), 2u);
  EXPECT_EQ(view.value().attribute(1), table.attribute(1).data() + 200);
  EXPECT_EQ(source.bytes_read(), 0u);
  EXPECT_FALSE(source.ViewBlock(3).ok());
}

TEST_F(BlockFileTest, OpenRejectsTruncatedAndCorruptFiles) {
  BlockFileOptions options;
  options.block_capacity = 64;
  ASSERT_TRUE(BlockFileWriter(options).Write(path_, MakeTable(500)).ok());
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);

  // Every truncation point must fail cleanly — header-only, mid-metadata,
  // and mid-data prefixes alike (block offsets are validated against the
  // actual file size before any read).
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{16}, std::size_t{60}, bytes.size() / 2,
        bytes.size() - 1}) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    auto r = BlockFileReader::Open(path_);
    EXPECT_FALSE(r.ok()) << "prefix of " << keep << " bytes accepted";
  }

  // Garbage that is not even a column-store header.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << "this is not a block file, not even close, but it is long";
  }
  EXPECT_FALSE(BlockFileReader::Open(path_).ok());
  EXPECT_FALSE(BlockFileReader::Open("/nonexistent/nope.rjb").ok());
}

TEST_F(BlockFileTest, OpenPointBlockSourceSniffsV1) {
  const PointTable original = MakeTable(640);
  ASSERT_TRUE(WriteColumnStore(path_, original).ok());  // v1 flat file

  auto source = OpenPointBlockSource(path_, /*v1_block_capacity=*/100);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_FALSE(source.value()->disk_resident());
  EXPECT_EQ(source.value()->block_capacity(), 100u);
  EXPECT_EQ(source.value()->num_blocks(), 7u);
  // v1 loads preserve the input row order and still get zone maps, so the
  // block scan stack can prune them too.
  ASSERT_NE(source.value()->zone_map(0), nullptr);
  auto rows = MaterializeBlocks(*source.value());
  ASSERT_TRUE(rows.ok());
  ExpectRowsBitwiseEqual(rows.value(), original);
}

TEST_F(BlockFileTest, OpenPointBlockSourceSniffsV2) {
  const PointTable original = MakeTable(640);
  BlockFileOptions options;
  options.block_capacity = 128;
  ASSERT_TRUE(BlockFileWriter(options).Write(path_, original).ok());

  auto source = OpenPointBlockSource(path_);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_TRUE(source.value()->disk_resident());
  EXPECT_EQ(source.value()->block_capacity(), 128u);
  EXPECT_EQ(source.value()->num_rows(), 640u);
}

/// The interop guarantee both directions: the same rows written v1 and v2
/// (unclustered, same capacity) materialize to bitwise-identical tables
/// through the one OpenPointBlockSource entry point.
TEST_F(BlockFileTest, V1AndV2MaterializeIdentically) {
  const PointTable original = MakeTable(512, 909);
  const std::string v1_path = ::testing::TempDir() + "/interop_v1.rjc";
  ASSERT_TRUE(WriteColumnStore(v1_path, original).ok());
  BlockFileOptions options;
  options.block_capacity = 96;
  options.hilbert_cluster = false;
  ASSERT_TRUE(BlockFileWriter(options).Write(path_, original).ok());

  auto v1 = OpenPointBlockSource(v1_path, 96);
  auto v2 = OpenPointBlockSource(path_);
  std::remove(v1_path.c_str());
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v1.value()->num_blocks(), v2.value()->num_blocks());
  auto rows1 = MaterializeBlocks(*v1.value());
  auto rows2 = MaterializeBlocks(*v2.value());
  ASSERT_TRUE(rows1.ok());
  ASSERT_TRUE(rows2.ok());
  ExpectRowsBitwiseEqual(rows2.value(), rows1.value());
}

TEST_F(BlockFileTest, EmptyTableRoundTrips) {
  PointTable empty;
  empty.AddAttribute("w");
  ASSERT_TRUE(BlockFileWriter().Write(path_, empty).ok());
  auto reader = BlockFileReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->num_rows(), 0u);
  EXPECT_EQ(reader.value()->num_blocks(), 0u);
  ASSERT_EQ(reader.value()->num_attributes(), 1u);
  EXPECT_EQ(reader.value()->attribute_names()[0], "w");
  auto rows = MaterializeBlocks(*reader.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 0u);
  EXPECT_EQ(rows.value().num_attributes(), 1u);
}

}  // namespace
}  // namespace rj::data
