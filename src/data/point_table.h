/// \file point_table.h
/// \brief Columnar in-memory point data set (the P relation).
///
/// Struct-of-arrays layout mirrors the paper's setup: "the data is stored
/// as columns on disk and the required columns are loaded into main memory"
/// (§7.1). Locations are doubles; attribute columns are float32, matching
/// what the paper ships to the GPU in the VBO.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geometry/bbox.h"
#include "geometry/point.h"

namespace rj {

class PointTable {
 public:
  PointTable() = default;

  std::size_t size() const { return x_.size(); }
  bool empty() const { return x_.empty(); }

  void Reserve(std::size_t n) {
    x_.reserve(n);
    y_.reserve(n);
    for (auto& col : attrs_) col.reserve(n);
  }

  /// Declares an attribute column; must be called before adding points.
  /// Returns the column index.
  std::size_t AddAttribute(std::string name) {
    attr_names_.push_back(std::move(name));
    attrs_.emplace_back(x_.size(), 0.0f);
    return attrs_.size() - 1;
  }

  /// Appends a point; `attr_values` must have one entry per declared column.
  void Append(double px, double py, const std::vector<float>& attr_values) {
    extent_valid_ = false;
    x_.push_back(px);
    y_.push_back(py);
    for (std::size_t c = 0; c < attrs_.size(); ++c) {
      attrs_[c].push_back(c < attr_values.size() ? attr_values[c] : 0.0f);
    }
  }
  void Append(double px, double py) { Append(px, py, {}); }

  /// Replaces the table's contents with fully-built columns, moved in
  /// wholesale — the bulk-materialization path for code that already
  /// holds column vectors (ColumnStoreReader, BlockFileWriter's Hilbert
  /// reorder), which would otherwise re-copy every row through Append.
  /// All column vectors must share one length and `attrs` must match
  /// `names` in count.
  void AdoptColumns(std::vector<double> xs, std::vector<double> ys,
                    std::vector<std::string> names,
                    std::vector<std::vector<float>> attrs) {
    assert(xs.size() == ys.size());
    assert(names.size() == attrs.size());
    x_ = std::move(xs);
    y_ = std::move(ys);
    attr_names_ = std::move(names);
    attrs_ = std::move(attrs);
    extent_valid_ = false;
  }

  Point At(std::size_t i) const { return {x_[i], y_[i]}; }

  const std::vector<double>& xs() const { return x_; }
  const std::vector<double>& ys() const { return y_; }

  std::size_t num_attributes() const { return attrs_.size(); }
  const std::vector<std::string>& attribute_names() const {
    return attr_names_;
  }
  const std::vector<float>& attribute(std::size_t col) const {
    return attrs_[col];
  }
  std::vector<float>& mutable_attribute(std::size_t col) {
    return attrs_[col];
  }
  const std::string& attribute_name(std::size_t col) const {
    return attr_names_[col];
  }

  /// Index of the named column, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t FindAttribute(const std::string& name) const {
    for (std::size_t c = 0; c < attr_names_.size(); ++c) {
      if (attr_names_[c] == name) return c;
    }
    return npos;
  }

  /// Bounding box of all locations. O(n) unless CacheExtent() ran after
  /// the last mutation, in which case the cached box is returned.
  BBox Extent() const {
    if (extent_valid_) return cached_extent_;
    BBox box;
    for (std::size_t i = 0; i < size(); ++i) box.Expand(At(i));
    return box;
  }

  /// Computes and caches the extent so subsequent Extent() calls are O(1).
  /// Call once after the table is fully built and *before* sharing it
  /// across threads — the cache write is unsynchronized (single-writer-
  /// before-sharing, like the rest of the table). Appending invalidates.
  const BBox& CacheExtent() {
    extent_valid_ = false;
    cached_extent_ = Extent();
    extent_valid_ = true;
    return cached_extent_;
  }

  /// Bytes per point shipped to the device: x, y as float32 plus each
  /// referenced attribute as float32 (the paper packs the VBO this way).
  static std::size_t DeviceBytesPerPoint(std::size_t num_referenced_attrs) {
    return 2 * sizeof(float) + num_referenced_attrs * sizeof(float);
  }

  /// Copies rows [begin, end) into a new table with the same schema.
  PointTable Slice(std::size_t begin, std::size_t end) const;

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<std::vector<float>> attrs_;
  std::vector<std::string> attr_names_;
  BBox cached_extent_;
  bool extent_valid_ = false;
};

inline PointTable PointTable::Slice(std::size_t begin, std::size_t end) const {
  PointTable out;
  for (const auto& name : attr_names_) out.AddAttribute(name);
  out.Reserve(end - begin);
  std::vector<float> vals(attrs_.size());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t c = 0; c < attrs_.size(); ++c) vals[c] = attrs_[c][i];
    out.Append(x_[i], y_[i], vals);
  }
  return out;
}

}  // namespace rj
