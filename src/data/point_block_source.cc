#include "data/point_block_source.h"

#include <algorithm>
#include <limits>

namespace rj::data {

BlockZoneMap ComputeZoneMap(const PointTable& table, std::size_t begin,
                            std::size_t end) {
  BlockZoneMap zone;
  const std::size_t num_attrs = table.num_attributes();
  // Empty ranges: BBox default (min=+inf > max=-inf) — NaN comparisons are
  // false, so NaN coordinates/values fall through without widening.
  zone.col_min.assign(num_attrs, std::numeric_limits<float>::infinity());
  zone.col_max.assign(num_attrs, -std::numeric_limits<float>::infinity());
  for (std::size_t i = begin; i < end; ++i) {
    zone.bbox.Expand(table.At(i));
    for (std::size_t c = 0; c < num_attrs; ++c) {
      const float v = table.attribute(c)[i];
      if (v < zone.col_min[c]) zone.col_min[c] = v;
      if (v > zone.col_max[c]) zone.col_max[c] = v;
    }
  }
  return zone;
}

Result<BlockView> PointBlockSource::ViewBlock(std::size_t block,
                                              PointTable* scratch) const {
  RJ_ASSIGN_OR_RETURN(BlockRef ref, ReadBlock(block, scratch));
  // Re-base the window to block-local indices by offsetting each column
  // pointer — zero-copy over whatever storage ReadBlock returned (the
  // parent table for in-memory adapters, `scratch` for disk readers).
  BlockView view;
  view.xs = ref.table->xs().data() + ref.begin;
  view.ys = ref.table->ys().data() + ref.begin;
  view.attrs.resize(ref.table->num_attributes());
  for (std::size_t c = 0; c < view.attrs.size(); ++c) {
    view.attrs[c] = ref.table->attribute(c).data() + ref.begin;
  }
  view.size = ref.size();
  return view;
}

Result<PointTable> MaterializeBlocks(const PointBlockSource& source) {
  PointTable out;
  for (const std::string& name : source.attribute_names()) {
    out.AddAttribute(name);
  }
  out.Reserve(source.num_rows());
  PointTable scratch;
  std::vector<float> vals(source.num_attributes());
  for (std::size_t b = 0; b < source.num_blocks(); ++b) {
    RJ_ASSIGN_OR_RETURN(BlockView view, source.ViewBlock(b, &scratch));
    for (std::size_t i = 0; i < view.size; ++i) {
      for (std::size_t c = 0; c < vals.size(); ++c) {
        vals[c] = view.attrs[c][i];
      }
      out.Append(view.xs[i], view.ys[i], vals);
    }
  }
  out.CacheExtent();
  return out;
}

TableBlockSource::TableBlockSource(const PointTable* table,
                                   std::size_t block_capacity)
    : table_(table), capacity_(std::max<std::size_t>(block_capacity, 1)) {
  num_blocks_ =
      table_->empty() ? 0 : (table_->size() + capacity_ - 1) / capacity_;
}

TableBlockSource::TableBlockSource(PointTable table,
                                   std::size_t block_capacity)
    : owned_(std::make_unique<PointTable>(std::move(table))),
      table_(owned_.get()),
      capacity_(std::max<std::size_t>(block_capacity, 1)) {
  num_blocks_ =
      table_->empty() ? 0 : (table_->size() + capacity_ - 1) / capacity_;
}

void TableBlockSource::BuildZoneMaps() {
  zone_maps_.clear();
  zone_maps_.reserve(num_blocks_);
  for (std::size_t b = 0; b < num_blocks_; ++b) {
    zone_maps_.push_back(ComputeZoneMap(*table_, BlockBegin(b), BlockEnd(b)));
  }
}

Result<BlockRef> TableBlockSource::ReadBlock(std::size_t block,
                                             PointTable* scratch) const {
  (void)scratch;  // the parent table *is* the block storage
  if (block >= num_blocks_) {
    return Status::OutOfRange("block index out of range");
  }
  return BlockRef{table_, BlockBegin(block), BlockEnd(block)};
}

}  // namespace rj::data
