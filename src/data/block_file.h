/// \file block_file.h
/// \brief v2 chunked column-store format ("block file"): Hilbert-clustered
/// fixed-capacity blocks with header zone maps, read through mmap.
///
/// The v1 format (column_store.h) is one flat column region — fine for
/// sequential streaming, useless for skipping. v2 chunks the rows into
/// fixed-capacity blocks, reorders them along a Hilbert curve at write
/// time so block bboxes are tight, and stores per-block zone maps (bbox +
/// per-column min/max) in the header, so a reader can prune blocks a
/// query's canvas or filters can never touch without reading their data.
/// Layout (all integers little-endian-native, as v1):
///
///   ColumnStoreHeader      magic, num_rows, num_attributes, version=2
///   u64 block_capacity     rows per block (last block may be short)
///   u64 num_blocks
///   f64 ×4                 global extent: min_x, min_y, max_x, max_y
///   names                  per attribute: u32 len, bytes
///   block metadata ×num_blocks:
///     u64 num_rows
///     u64 data_offset      absolute file offset of the block's data
///     f64 ×4               block bbox
///     f32 ×num_attributes  per-column min
///     f32 ×num_attributes  per-column max
///   (pad to 8)
///   block data ×num_blocks, each padded to 8 bytes:
///     f64 x[n], f64 y[n], f32 attr0[n], …, f32 attrK[n]
///
/// Blocks are 8-byte aligned so a zero-copy reader may reinterpret the
/// mapped doubles in place — ViewBlock does exactly that, returning
/// column pointers into the RAM-cached mapping; ReadBlock remains the
/// copying path, memcpy'ing each block's columns into a caller scratch
/// table (see mmap lifetime rules in docs/STORAGE.md — both a BlockRef
/// into scratch and a BlockView into the mapping obey the same lifetime
/// bound: invalidated by the next read into the same scratch or by the
/// reader's death).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/point_block_source.h"

namespace rj::data {

struct BlockFileOptions {
  /// Rows per block. Smaller blocks prune at finer grain but cost more
  /// header metadata and more per-block pipeline overhead.
  std::size_t block_capacity = 1u << 16;

  /// Reorder rows along the Hilbert curve before chunking, so spatially
  /// adjacent rows land in the same block and bboxes are tight. Off keeps
  /// the input row order (blocks still carry exact zone maps, they are
  /// just unlikely to be prunable on scrambled data).
  bool hilbert_cluster = true;

  /// Hilbert curve order (grid is 2^order × 2^order); [1, 31].
  std::uint32_t hilbert_order = 16;
};

/// Writes v2 block files. Stateless apart from options; one writer may
/// serve many Write calls.
class BlockFileWriter {
 public:
  explicit BlockFileWriter(BlockFileOptions options = {});

  /// Writes `table` to `path`, (optionally) Hilbert-reordering the rows.
  /// The on-disk row order is deterministic: rows sort stably by Hilbert
  /// cell, equal cells keeping input order.
  Status Write(const std::string& path, const PointTable& table) const;

 private:
  BlockFileOptions options_;
};

/// mmap-backed reader over a v2 block file. Open validates every header
/// field and block offset against the actual file size before trusting it
/// (corrupt or hostile files fail with IOError, they cannot drive
/// allocations or out-of-bounds reads). The mapping lives for the reader's
/// lifetime; ReadBlock copies one block's columns out of it into the
/// caller's scratch, so concurrent readers only share read-only pages.
class BlockFileReader final : public PointBlockSource {
 public:
  static Result<std::unique_ptr<BlockFileReader>> Open(
      const std::string& path);

  ~BlockFileReader() override;

  BlockFileReader(const BlockFileReader&) = delete;
  BlockFileReader& operator=(const BlockFileReader&) = delete;

  const std::vector<std::string>& attribute_names() const override {
    return names_;
  }
  std::uint64_t num_rows() const override { return num_rows_; }
  std::size_t num_blocks() const override { return blocks_.size(); }
  std::size_t block_capacity() const override { return capacity_; }
  std::size_t block_rows(std::size_t block) const override {
    return static_cast<std::size_t>(blocks_[block].num_rows);
  }
  const BlockZoneMap* zone_map(std::size_t block) const override {
    return &blocks_[block].zone;
  }
  BBox extent() const override { return extent_; }
  Result<BlockRef> ReadBlock(std::size_t block,
                             PointTable* scratch) const override;

  /// Zero-copy read: returns column pointers directly into the mapping
  /// (every block is 8-byte aligned by the format, so the f64/f32 runs
  /// reinterpret in place; `scratch` is ignored). Meters bytes_read
  /// exactly as ReadBlock does — the Fig. 13 metric counts block bytes
  /// accessed, and a zero-copy scan accesses the same pages a copying
  /// scan would.
  Result<BlockView> ViewBlock(std::size_t block,
                              PointTable* scratch) const override;

  std::uint64_t bytes_read() const override {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  bool disk_resident() const override { return true; }

 private:
  struct BlockMeta {
    std::uint64_t num_rows = 0;
    std::uint64_t data_offset = 0;  ///< absolute, 8-byte aligned
    BlockZoneMap zone;
  };

  BlockFileReader() = default;

  std::string path_;
  const unsigned char* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::vector<std::string> names_;
  std::vector<BlockMeta> blocks_;
  std::uint64_t num_rows_ = 0;
  std::size_t capacity_ = 0;
  BBox extent_;
  /// Atomic: the pipeline's reader thread and the query thread both pass
  /// through here under concurrent queries.
  mutable std::atomic<std::uint64_t> bytes_read_{0};
};

/// Opens `path` as a block source, sniffing the format version: v2 files
/// map through BlockFileReader; v1 flat files load fully into memory and
/// are served through an owning TableBlockSource with zone maps built at
/// capacity `v1_block_capacity` — the interop path that keeps every
/// existing .rjc file readable by the block-based scan stack.
Result<std::unique_ptr<PointBlockSource>> OpenPointBlockSource(
    const std::string& path, std::size_t v1_block_capacity = 1u << 16);

}  // namespace rj::data
