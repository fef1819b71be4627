/// \file point_block_source.h
/// \brief Block-based scan abstraction over point data (the P relation).
///
/// Every layer above data/ historically hard-coded a fully-materialized
/// in-RAM PointTable. PointBlockSource replaces that contract with an
/// ordered stream of fixed-capacity column *blocks*, each carrying a zone
/// map (bbox + per-column min/max), so the same join pipeline can scan an
/// in-memory table or an mmap-backed disk file (block_file.h) — and skip
/// blocks a query's canvas or filters can never touch.
///
/// Thread-safety contract: a source is immutable once built. ReadBlock is
/// const and safe to call from multiple threads concurrently **as long as
/// each caller supplies its own scratch table** (the upload pipeline's
/// reader thread and a concurrent query each bring their own).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/point_table.h"
#include "geometry/bbox.h"

namespace rj::data {

/// Per-block statistics for scan pruning (the "zone map" of classic column
/// stores). The bbox is the MBR of the block's finite locations — rows
/// with NaN coordinates are excluded (they can never join: every variant
/// clips or misses them), and ±inf coordinates extend the box to infinity
/// so such a block is never pruned. Column ranges ignore NaN attribute
/// values (NaN fails every filter operator, so a pruned range stays safe);
/// an all-NaN column yields the empty range min=+inf > max=-inf, which
/// every range test rejects — correctly prunable.
struct BlockZoneMap {
  BBox bbox;
  std::vector<float> col_min;  ///< one entry per schema attribute column
  std::vector<float> col_max;
};

/// One readable block: `rows` [begin, end) of `*table`. For in-memory
/// adapters `table` is the parent table and [begin, end) a row window; for
/// disk readers `table` is the caller's scratch holding exactly the block.
/// The reference stays valid until the next ReadBlock into the same
/// scratch (or until the source dies, whichever is first).
struct BlockRef {
  const PointTable* table = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
};

/// Zero-copy view of one block's columns, indexed block-locally: row i of
/// the view is row i of the block, i in [0, size). Mirrors the PointTable
/// read surface (At / attribute) so row-loop templates accept either.
///
/// Lifetime: the pointers belong to the source (mmap pages, a parent
/// table) or to the caller's scratch, depending on which ViewBlock
/// produced them — so a view is valid until the next ViewBlock/ReadBlock
/// into the same scratch or until the source dies, whichever is first.
/// Exactly the BlockRef contract; no caller may hold a view across either
/// event.
struct BlockView {
  const double* xs = nullptr;
  const double* ys = nullptr;
  std::vector<const float*> attrs;  ///< one entry per schema column
  std::size_t size = 0;

  Point At(std::size_t i) const { return {xs[i], ys[i]}; }
  const float* attribute(std::size_t c) const { return attrs[c]; }
};

/// Schema + extent + an ordered stream of fixed-capacity column blocks.
class PointBlockSource {
 public:
  virtual ~PointBlockSource() = default;

  virtual const std::vector<std::string>& attribute_names() const = 0;
  virtual std::uint64_t num_rows() const = 0;

  /// Blocks are numbered 0..num_blocks-1 in row order: block b holds rows
  /// [b * block_capacity, ...) of the source's row order. Every block is
  /// full except possibly the last.
  virtual std::size_t num_blocks() const = 0;
  virtual std::size_t block_capacity() const = 0;
  virtual std::size_t block_rows(std::size_t block) const = 0;

  /// Zone map of block `block`, or nullptr when the source does not
  /// maintain one (such a block is never pruned).
  virtual const BlockZoneMap* zone_map(std::size_t block) const = 0;

  /// Bounding box of all locations: O(1) for a file (its header) and for a
  /// table whose extent is cached, otherwise one pass over the table. No
  /// scan reads it.
  virtual BBox extent() const = 0;

  /// Materializes block `block`. Disk sources fill `*scratch` and return a
  /// reference into it; in-memory adapters return a window of the parent
  /// table without touching `scratch`. See the class comment for the
  /// concurrency contract.
  virtual Result<BlockRef> ReadBlock(std::size_t block,
                                     PointTable* scratch) const = 0;

  /// Column-pointer view of block `block`. The base implementation calls
  /// ReadBlock and wraps the resulting window, so it is a copy for disk
  /// sources but already zero-copy for in-memory adapters (whose ReadBlock
  /// is a pointer adjustment). Sources whose storage is directly
  /// addressable override it to skip the scratch copy entirely —
  /// BlockFileReader returns pointers into its RAM-cached mapping
  /// (the format 8-byte aligns every block for exactly this). Overrides
  /// must meter bytes_read identically to ReadBlock: the Fig. 13 metric
  /// counts block bytes *accessed*, not bytes memcpy'd.
  virtual Result<BlockView> ViewBlock(std::size_t block,
                                      PointTable* scratch) const;

  /// Total bytes read from disk so far (0 for in-memory sources) — the
  /// Fig. 13 disk-access metric.
  virtual std::uint64_t bytes_read() const = 0;

  /// True when blocks live on disk (reads cost I/O); false when the data
  /// is RAM-resident and ReadBlock is a pointer adjustment.
  virtual bool disk_resident() const = 0;

  std::size_t num_attributes() const { return attribute_names().size(); }

  /// Index of the named column, or PointTable::npos.
  std::size_t FindAttribute(const std::string& name) const {
    const std::vector<std::string>& names = attribute_names();
    for (std::size_t c = 0; c < names.size(); ++c) {
      if (names[c] == name) return c;
    }
    return PointTable::npos;
  }
};

/// Adapter presenting an in-memory PointTable as a block source: block b
/// is the row window [b*capacity, min(n, (b+1)*capacity)) of the parent —
/// ReadBlock is a pointer adjustment, no copy. Zone maps are off by
/// default (computing them is an O(n) scan a one-shot query would never
/// amortize); call BuildZoneMaps() to enable pruning for a long-lived
/// registration.
class TableBlockSource final : public PointBlockSource {
 public:
  /// Non-owning: `table` must outlive this source.
  TableBlockSource(const PointTable* table, std::size_t block_capacity);

  /// Owning: adopts `table` (the v1-file loading path, which has no parent
  /// table to point into).
  TableBlockSource(PointTable table, std::size_t block_capacity);

  /// Scans the table once to compute per-block zone maps (enables
  /// pruning). Call before sharing the source across threads.
  void BuildZoneMaps();

  const PointTable& table() const { return *table_; }

  const std::vector<std::string>& attribute_names() const override {
    return table_->attribute_names();
  }
  std::uint64_t num_rows() const override { return table_->size(); }
  std::size_t num_blocks() const override { return num_blocks_; }
  std::size_t block_capacity() const override { return capacity_; }
  std::size_t block_rows(std::size_t block) const override {
    return BlockEnd(block) - BlockBegin(block);
  }
  const BlockZoneMap* zone_map(std::size_t block) const override {
    return zone_maps_.empty() ? nullptr : &zone_maps_[block];
  }
  BBox extent() const override { return table_->Extent(); }
  Result<BlockRef> ReadBlock(std::size_t block,
                             PointTable* scratch) const override;
  std::uint64_t bytes_read() const override { return 0; }
  bool disk_resident() const override { return false; }

 private:
  std::size_t BlockBegin(std::size_t block) const {
    return block * capacity_;
  }
  std::size_t BlockEnd(std::size_t block) const {
    return std::min(table_->size(), (block + 1) * capacity_);
  }

  std::unique_ptr<PointTable> owned_;  ///< set only by the owning ctor
  const PointTable* table_;
  std::size_t capacity_;
  std::size_t num_blocks_;
  std::vector<BlockZoneMap> zone_maps_;  ///< empty until BuildZoneMaps()
};

/// Computes the zone map of rows [begin, end) of `table` by brute-force
/// scan — the single definition shared by TableBlockSource::BuildZoneMaps
/// and BlockFileWriter, and the oracle the zone-map metadata tests compare
/// file headers against.
BlockZoneMap ComputeZoneMap(const PointTable& table, std::size_t begin,
                            std::size_t end);

/// Reads every block of `source` in order into one in-memory table — the
/// determinism baseline (the same logical row order as the disk scan) and
/// the v1 loading path's materializer.
Result<PointTable> MaterializeBlocks(const PointBlockSource& source);

}  // namespace rj::data
