#include "data/block_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>

#include "data/column_store.h"
#include "data/sharded_table.h"

namespace rj::data {

namespace {

constexpr std::uint64_t kAlign = 8;

/// Format bound on schema width — far above any real dataset, low enough
/// that per-row byte math cannot overflow on hostile headers.
constexpr std::uint64_t kMaxAttributes = 4096;

std::uint64_t AlignUp(std::uint64_t v) { return (v + kAlign - 1) & ~(kAlign - 1); }

Status WriteBytes(std::ofstream& out, const void* data, std::size_t bytes) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out.good()) return Status::IOError("write failed");
  return Status::OK();
}

/// Quantizes a coordinate into [0, cells-1] over [lo, hi] (the
/// sharded_table placement rule). Non-finite coordinates and degenerate
/// extents collapse to cell 0 — such rows sort to the front, they are
/// merely unclustered.
std::uint32_t QuantizeCoord(double v, double lo, double hi,
                            std::uint64_t cells) {
  if (!(hi > lo)) return 0;
  const double t = (v - lo) / (hi - lo);
  if (!std::isfinite(t)) return 0;
  auto cell = static_cast<std::int64_t>(t * static_cast<double>(cells));
  cell =
      std::clamp<std::int64_t>(cell, 0, static_cast<std::int64_t>(cells) - 1);
  return static_cast<std::uint32_t>(cell);
}

/// Bytes of one block's column data (pre-padding): x/y doubles plus one
/// float column per attribute.
std::uint64_t BlockDataBytes(std::uint64_t rows, std::uint64_t num_attrs) {
  return rows * (2 * sizeof(double) + num_attrs * sizeof(float));
}

/// Bounds-checked little parser over the mapped header region.
class Cursor {
 public:
  Cursor(const unsigned char* base, std::uint64_t size)
      : base_(base), size_(size) {}

  std::uint64_t offset() const { return off_; }

  template <typename T>
  bool Read(T* out) {
    if (off_ + sizeof(T) > size_) return false;
    std::memcpy(out, base_ + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }

  bool ReadString(std::uint32_t len, std::string* out) {
    if (off_ + len > size_) return false;
    out->assign(reinterpret_cast<const char*>(base_ + off_), len);
    off_ += len;
    return true;
  }

  bool Skip(std::uint64_t bytes) {
    if (off_ + bytes > size_) return false;
    off_ += bytes;
    return true;
  }

 private:
  const unsigned char* base_;
  std::uint64_t size_;
  std::uint64_t off_ = 0;
};

}  // namespace

BlockFileWriter::BlockFileWriter(BlockFileOptions options)
    : options_(options) {}

Status BlockFileWriter::Write(const std::string& path,
                              const PointTable& table) const {
  if (options_.block_capacity == 0) {
    return Status::InvalidArgument("block_capacity must be at least 1");
  }
  if (options_.hilbert_order == 0 || options_.hilbert_order > 31) {
    return Status::InvalidArgument("hilbert_order must be in [1, 31]");
  }
  if (table.num_attributes() > kMaxAttributes) {
    return Status::InvalidArgument("too many attribute columns for the "
                                   "block-file format");
  }

  const std::size_t n = table.size();
  const std::size_t num_attrs = table.num_attributes();
  const BBox extent = table.Extent();

  // The on-disk row order: Hilbert-sorted (stable, so equal cells keep
  // input order and the permutation is fully deterministic) or the input
  // order verbatim.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (options_.hilbert_cluster && n > 0) {
    const std::uint64_t cells = 1ull << options_.hilbert_order;
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t cx =
          QuantizeCoord(table.xs()[i], extent.min_x, extent.max_x, cells);
      const std::uint32_t cy =
          QuantizeCoord(table.ys()[i], extent.min_y, extent.max_y, cells);
      keys[i] = HilbertIndex(options_.hilbert_order, cx, cy);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&keys](std::size_t a, std::size_t b) {
                       return keys[a] < keys[b];
                     });
  }

  // Materialize the permuted table once (bulk column gather) so zone maps
  // and the data region both read contiguous columns.
  PointTable ordered;
  {
    std::vector<double> xs(n), ys(n);
    std::vector<std::vector<float>> cols(num_attrs);
    std::vector<std::string> names;
    names.reserve(num_attrs);
    for (std::size_t c = 0; c < num_attrs; ++c) {
      cols[c].resize(n);
      names.push_back(table.attribute_name(c));
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = order[k];
      xs[k] = table.xs()[i];
      ys[k] = table.ys()[i];
      for (std::size_t c = 0; c < num_attrs; ++c) {
        cols[c][k] = table.attribute(c)[i];
      }
    }
    ordered.AdoptColumns(std::move(xs), std::move(ys), std::move(names),
                         std::move(cols));
  }

  const std::uint64_t cap = options_.block_capacity;
  const std::uint64_t num_blocks = n == 0 ? 0 : (n + cap - 1) / cap;

  // Offsets: header, fixed fields, names, block metadata, then the 8-byte
  // aligned data region.
  std::uint64_t names_bytes = 0;
  for (std::size_t c = 0; c < num_attrs; ++c) {
    names_bytes += sizeof(std::uint32_t) + table.attribute_name(c).size();
  }
  const std::uint64_t meta_entry_bytes =
      2 * sizeof(std::uint64_t) + 4 * sizeof(double) +
      2 * num_attrs * sizeof(float);
  const std::uint64_t meta_begin = sizeof(ColumnStoreHeader) +
                                   2 * sizeof(std::uint64_t) +
                                   4 * sizeof(double) + names_bytes;
  std::uint64_t offset = AlignUp(meta_begin + num_blocks * meta_entry_bytes);
  std::vector<std::uint64_t> block_offsets(num_blocks);
  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    block_offsets[b] = offset;
    const std::uint64_t rows =
        std::min<std::uint64_t>(cap, n - b * cap);
    offset = AlignUp(offset + BlockDataBytes(rows, num_attrs));
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }

  ColumnStoreHeader header;
  header.num_rows = n;
  header.num_attributes = static_cast<std::uint32_t>(num_attrs);
  header.version = 2;
  RJ_RETURN_NOT_OK(WriteBytes(out, &header, sizeof(header)));
  RJ_RETURN_NOT_OK(WriteBytes(out, &cap, sizeof(cap)));
  RJ_RETURN_NOT_OK(WriteBytes(out, &num_blocks, sizeof(num_blocks)));
  const double ext[4] = {extent.min_x, extent.min_y, extent.max_x,
                         extent.max_y};
  RJ_RETURN_NOT_OK(WriteBytes(out, ext, sizeof(ext)));
  for (std::size_t c = 0; c < num_attrs; ++c) {
    const std::string& name = table.attribute_name(c);
    const std::uint32_t len = static_cast<std::uint32_t>(name.size());
    RJ_RETURN_NOT_OK(WriteBytes(out, &len, sizeof(len)));
    RJ_RETURN_NOT_OK(WriteBytes(out, name.data(), len));
  }

  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    const std::uint64_t begin = b * cap;
    const std::uint64_t end = std::min<std::uint64_t>(n, begin + cap);
    const std::uint64_t rows = end - begin;
    const BlockZoneMap zone = ComputeZoneMap(ordered, begin, end);
    RJ_RETURN_NOT_OK(WriteBytes(out, &rows, sizeof(rows)));
    RJ_RETURN_NOT_OK(
        WriteBytes(out, &block_offsets[b], sizeof(block_offsets[b])));
    const double bbox[4] = {zone.bbox.min_x, zone.bbox.min_y, zone.bbox.max_x,
                            zone.bbox.max_y};
    RJ_RETURN_NOT_OK(WriteBytes(out, bbox, sizeof(bbox)));
    if (num_attrs > 0) {
      RJ_RETURN_NOT_OK(WriteBytes(out, zone.col_min.data(),
                                  num_attrs * sizeof(float)));
      RJ_RETURN_NOT_OK(WriteBytes(out, zone.col_max.data(),
                                  num_attrs * sizeof(float)));
    }
  }

  // Pad to the aligned data region, then emit each block's columns.
  const char zeros[kAlign] = {};
  std::uint64_t written = meta_begin + num_blocks * meta_entry_bytes;
  RJ_RETURN_NOT_OK(WriteBytes(out, zeros, AlignUp(written) - written));
  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    const std::uint64_t begin = b * cap;
    const std::uint64_t end = std::min<std::uint64_t>(n, begin + cap);
    const std::uint64_t rows = end - begin;
    RJ_RETURN_NOT_OK(
        WriteBytes(out, ordered.xs().data() + begin, rows * sizeof(double)));
    RJ_RETURN_NOT_OK(
        WriteBytes(out, ordered.ys().data() + begin, rows * sizeof(double)));
    for (std::size_t c = 0; c < num_attrs; ++c) {
      RJ_RETURN_NOT_OK(WriteBytes(out, ordered.attribute(c).data() + begin,
                                  rows * sizeof(float)));
    }
    const std::uint64_t bytes = BlockDataBytes(rows, num_attrs);
    RJ_RETURN_NOT_OK(WriteBytes(out, zeros, AlignUp(bytes) - bytes));
  }
  out.flush();
  if (!out.good()) return Status::IOError("flush failed: " + path);
  return Status::OK();
}

BlockFileReader::~BlockFileReader() {
  if (map_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_), map_bytes_);
  }
}

Result<std::unique_ptr<BlockFileReader>> BlockFileReader::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open: " + path);
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size < sizeof(ColumnStoreHeader)) {
    ::close(fd);
    return Status::IOError("not a block file (truncated header): " + path);
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path);
  }

  auto reader = std::unique_ptr<BlockFileReader>(new BlockFileReader());
  reader->path_ = path;
  reader->map_ = static_cast<const unsigned char*>(map);
  reader->map_bytes_ = file_size;

  // Everything below is untrusted: validate each field against the actual
  // file size before allocating or dereferencing through it.
  Cursor cur(reader->map_, file_size);
  ColumnStoreHeader header;
  cur.Read(&header);  // size checked above
  if (header.magic != ColumnStoreHeader::kMagic) {
    return Status::IOError("not a column-store file: " + path);
  }
  if (header.version != 2) {
    return Status::IOError("not a v2 block file (version " +
                           std::to_string(header.version) +
                           "): " + path);
  }
  std::uint64_t cap = 0;
  std::uint64_t num_blocks = 0;
  double ext[4] = {};
  if (!cur.Read(&cap) || !cur.Read(&num_blocks) || !cur.Read(&ext)) {
    return Status::IOError("truncated block-file header: " + path);
  }
  if (cap == 0) {
    return Status::IOError("corrupt block file (zero block capacity): " +
                           path);
  }
  // Row data costs at least 2 doubles per row; a count the file cannot
  // possibly hold is corrupt. Bounding it here also keeps every byte-size
  // product below (rows × small factor) safely inside 64 bits.
  if (header.num_rows > file_size / (2 * sizeof(double))) {
    return Status::IOError("corrupt block file (row count): " + path);
  }
  const std::uint64_t num_attrs = header.num_attributes;
  // A name costs at least its 4-byte length prefix; a header claiming more
  // attributes than the file could possibly hold is corrupt — reject
  // before the loop, so a hostile count cannot drive allocations.
  // kMaxAttributes is the format's schema bound (the writer enforces it
  // too); it keeps per-row byte math far from overflow.
  if (num_attrs > kMaxAttributes ||
      num_attrs > file_size / sizeof(std::uint32_t)) {
    return Status::IOError("corrupt block file (attribute count): " + path);
  }
  reader->names_.reserve(num_attrs);
  for (std::uint64_t c = 0; c < num_attrs; ++c) {
    std::uint32_t len = 0;
    std::string name;
    if (!cur.Read(&len) || !cur.ReadString(len, &name)) {
      return Status::IOError("truncated attribute names: " + path);
    }
    reader->names_.push_back(std::move(name));
  }

  // Overflow-safe ceil(num_rows / cap): cap may be anything a hostile
  // header claims.
  const std::uint64_t expected_blocks =
      header.num_rows / cap + (header.num_rows % cap != 0 ? 1 : 0);
  if (num_blocks != expected_blocks) {
    return Status::IOError("corrupt block file (block count): " + path);
  }
  const std::uint64_t meta_entry_bytes =
      2 * sizeof(std::uint64_t) + 4 * sizeof(double) +
      2 * num_attrs * sizeof(float);
  if (num_blocks > (file_size - cur.offset()) / meta_entry_bytes) {
    return Status::IOError("truncated block metadata: " + path);
  }
  reader->blocks_.resize(num_blocks);
  std::uint64_t rows_total = 0;
  for (std::uint64_t b = 0; b < num_blocks; ++b) {
    BlockMeta& meta = reader->blocks_[b];
    double bbox[4] = {};
    if (!cur.Read(&meta.num_rows) || !cur.Read(&meta.data_offset) ||
        !cur.Read(&bbox)) {
      return Status::IOError("truncated block metadata: " + path);
    }
    meta.zone.bbox = BBox(bbox[0], bbox[1], bbox[2], bbox[3]);
    meta.zone.col_min.resize(num_attrs);
    meta.zone.col_max.resize(num_attrs);
    for (std::uint64_t c = 0; c < num_attrs; ++c) {
      if (!cur.Read(&meta.zone.col_min[c])) {
        return Status::IOError("truncated block metadata: " + path);
      }
    }
    for (std::uint64_t c = 0; c < num_attrs; ++c) {
      if (!cur.Read(&meta.zone.col_max[c])) {
        return Status::IOError("truncated block metadata: " + path);
      }
    }
    if (meta.num_rows == 0 || meta.num_rows > cap ||
        meta.num_rows > header.num_rows) {
      return Status::IOError("corrupt block file (block rows): " + path);
    }
    const std::uint64_t data_bytes = BlockDataBytes(meta.num_rows, num_attrs);
    if (meta.data_offset % kAlign != 0 || meta.data_offset > file_size ||
        data_bytes > file_size - meta.data_offset) {
      return Status::IOError("corrupt block file (block offset): " + path);
    }
    rows_total += meta.num_rows;
  }
  if (rows_total != header.num_rows) {
    return Status::IOError("corrupt block file (row count): " + path);
  }

  reader->num_rows_ = header.num_rows;
  reader->capacity_ = static_cast<std::size_t>(cap);
  reader->extent_ = BBox(ext[0], ext[1], ext[2], ext[3]);
  return reader;
}

Result<BlockView> BlockFileReader::ViewBlock(std::size_t block) const {
  if (block >= blocks_.size()) {
    return Status::OutOfRange("block index out of range");
  }
  const BlockMeta& meta = blocks_[block];
  const auto n = static_cast<std::size_t>(meta.num_rows);
  const std::size_t num_attrs = names_.size();
  // data_offset is validated 8-byte aligned by Open, and each column run
  // starts at an offset that is a multiple of its element size (x at 0,
  // y at 8n, attr c at 16n + 4cn), so the reinterpret casts below are
  // aligned accesses.
  const unsigned char* p = map_ + meta.data_offset;
  BlockView view;
  view.xs = reinterpret_cast<const double*>(p);
  view.ys = reinterpret_cast<const double*>(p + n * sizeof(double));
  const unsigned char* a = p + 2 * n * sizeof(double);
  view.attrs.resize(num_attrs);
  for (std::size_t c = 0; c < num_attrs; ++c) {
    view.attrs[c] = reinterpret_cast<const float*>(a + c * n * sizeof(float));
  }
  view.size = n;
  bytes_read_.fetch_add(BlockDataBytes(meta.num_rows, num_attrs),
                        std::memory_order_relaxed);
  return view;
}

Result<std::unique_ptr<PointBlockSource>> OpenPointBlockSource(
    const std::string& path, std::size_t v1_block_capacity) {
  ColumnStoreHeader header;
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe.is_open()) return Status::IOError("cannot open: " + path);
    probe.read(reinterpret_cast<char*>(&header), sizeof(header));
    if (!probe.good() || header.magic != ColumnStoreHeader::kMagic) {
      return Status::IOError("not a column-store file: " + path);
    }
  }
  if (header.version == 2) {
    RJ_ASSIGN_OR_RETURN(std::unique_ptr<BlockFileReader> reader,
                        BlockFileReader::Open(path));
    return std::unique_ptr<PointBlockSource>(std::move(reader));
  }
  // v1 flat file: no block structure on disk — load it fully (the
  // pre-block behavior) and serve it through the in-memory adapter, with
  // zone maps so even v1 data prunes when its row order happens to
  // cluster.
  RJ_ASSIGN_OR_RETURN(PointTable table, ReadColumnStore(path));
  table.CacheExtent();
  auto source = std::make_unique<TableBlockSource>(
      std::move(table), std::max<std::size_t>(v1_block_capacity, 1));
  source->BuildZoneMaps();
  return std::unique_ptr<PointBlockSource>(std::move(source));
}

}  // namespace rj::data
