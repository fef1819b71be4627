/// \file filter.h
/// \brief Attribute filter constraints evaluated in the vertex stage.
///
/// §5 "Query Parameters": constraints are tested on the device for each
/// point before it is transformed to screen space; failing points are
/// discarded (clipped) and never reach the fragment stage. The paper's
/// implementation supports conjunctions of up to 5 constraints with
/// operators >, >=, <, <=, = — mirrored exactly here.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "common/status.h"
#include "data/point_block_source.h"
#include "data/point_table.h"

namespace rj {

namespace detail {
/// boost::hash_combine's mixing step — the one hash-merge used by every
/// semantic hash in query/ (FilterSet, QuerySpec, cache keys).
inline std::size_t HashCombine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

/// Canonical bit pattern of a float for hashing and ordering: -0.0f
/// collapses to +0.0f so numerically-equal values (operator== is numeric)
/// always canonicalize identically — the unordered_map requirement that
/// equal keys hash equally. NaNs keep their payload bits: they are never
/// numerically equal to anything (so no equal-hash obligation), and
/// comparing their bits keeps the canonical sort a strict total order
/// where a numeric `<` would break strict-weak-ordering.
inline std::uint32_t CanonicalFloatBits(float v) {
  if (v == 0.0f) v = 0.0f;  // -0.0f → +0.0f
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline std::uint64_t CanonicalDoubleBits(double v) {
  if (v == 0.0) v = 0.0;  // -0.0 → +0.0
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline std::size_t HashFloatBits(float v) {
  return std::hash<std::uint32_t>{}(CanonicalFloatBits(v));
}

inline std::size_t HashDoubleBits(double v) {
  return std::hash<std::uint64_t>{}(CanonicalDoubleBits(v));
}
}  // namespace detail

enum class FilterOp { kGreater, kGreaterEqual, kLess, kLessEqual, kEqual };

/// One conjunct: `attribute[column] op value`.
struct AttributeFilter {
  std::size_t column = 0;
  FilterOp op = FilterOp::kGreater;
  float value = 0.0f;

  bool Evaluate(float attr) const {
    switch (op) {
      case FilterOp::kGreater: return attr > value;
      case FilterOp::kGreaterEqual: return attr >= value;
      case FilterOp::kLess: return attr < value;
      case FilterOp::kLessEqual: return attr <= value;
      case FilterOp::kEqual: return attr == value;
    }
    return false;
  }
};

inline bool operator==(const AttributeFilter& a, const AttributeFilter& b) {
  return a.column == b.column && a.op == b.op && a.value == b.value;
}
inline bool operator!=(const AttributeFilter& a, const AttributeFilter& b) {
  return !(a == b);
}

/// Canonical ordering by (column, op, value). A FilterSet is a conjunction,
/// so insertion order carries no semantics — everything keyed on filter
/// semantics (FilterSet::operator==, Hash, query::CacheKey) sorts conjuncts
/// into this order first so `{x>3, y<5}` and `{y<5, x>3}` key identically.
/// Values order by canonical bits, a strict total order even for NaN
/// (where numeric `<` would hand std::sort a broken weak ordering) that
/// agrees with numeric equality on everything else (±0.0 collapse).
inline bool CanonicalFilterLess(const AttributeFilter& a,
                                const AttributeFilter& b) {
  if (a.column != b.column) return a.column < b.column;
  if (a.op != b.op) return static_cast<int>(a.op) < static_cast<int>(b.op);
  return detail::CanonicalFloatBits(a.value) <
         detail::CanonicalFloatBits(b.value);
}

/// Maximum number of conjuncts, fixed at (shader) compile time in the
/// paper's implementation (§6.1, "Query Options").
inline constexpr std::size_t kMaxFilterConstraints = 5;

/// A conjunction of attribute filters.
class FilterSet {
 public:
  FilterSet() = default;

  Status Add(AttributeFilter filter) {
    if (filters_.size() >= kMaxFilterConstraints) {
      return Status::InvalidArgument(
          "filter set supports at most 5 conjunctive constraints");
    }
    filters_.push_back(filter);
    return Status::OK();
  }

  bool empty() const { return filters_.empty(); }
  std::size_t size() const { return filters_.size(); }
  const std::vector<AttributeFilter>& filters() const { return filters_; }

  /// True when point `i` of `points` satisfies every conjunct. The single
  /// definition of filter semantics shared by all join variants — they must
  /// agree exactly or their results diverge on filtered queries. Templated
  /// over the row accessor so a PointTable and a zero-copy data::BlockView
  /// evaluate through the same code (both expose attribute(c)[i]).
  template <typename Rows>
  bool Matches(const Rows& points, std::size_t i) const {
    for (const AttributeFilter& f : filters_) {
      if (!f.Evaluate(points.attribute(f.column)[i])) return false;
    }
    return true;
  }

  /// Batch form of Matches over rows [begin, end): match[r] = Matches(
  /// points, begin + r). The same comparisons, applied one conjunct at a
  /// time down a contiguous column — branch-free, so the loop vectorizes.
  void MatchRows(const data::BlockView& points, std::size_t begin,
                 std::size_t end, unsigned char* match) const {
    const std::size_t n = end - begin;
    std::fill(match, match + n, static_cast<unsigned char>(1));
    for (const AttributeFilter& f : filters_) {
      const float* column = points.attribute(f.column) + begin;
      for (std::size_t r = 0; r < n; ++r) match[r] &= f.Evaluate(column[r]);
    }
  }

  /// Columns referenced by any conjunct (these are the extra columns that
  /// must be transferred to the device).
  std::vector<std::size_t> ReferencedColumns() const {
    std::vector<std::size_t> cols;
    for (const auto& f : filters_) {
      bool seen = false;
      for (std::size_t c : cols) seen = seen || (c == f.column);
      if (!seen) cols.push_back(f.column);
    }
    return cols;
  }

  /// The conjuncts in canonical (column, op, value) order. Evaluation is
  /// order-independent (a conjunction), so this is the semantic identity of
  /// the set — the form cache keys and equality compare.
  std::vector<AttributeFilter> Canonical() const {
    std::vector<AttributeFilter> sorted = filters_;
    std::sort(sorted.begin(), sorted.end(), CanonicalFilterLess);
    return sorted;
  }

  /// Order-insensitive equality: two sets are equal when they impose the
  /// same conjunction, regardless of Add() order. Exact duplicates are
  /// significant only for multiplicity (a degenerate case with identical
  /// semantics either way; keeping multiset equality keeps == transitive).
  bool operator==(const FilterSet& other) const {
    return Canonical() == other.Canonical();
  }
  bool operator!=(const FilterSet& other) const { return !(*this == other); }

  /// Hash over the canonical order, so permuted-but-equivalent sets collide
  /// (the property the result cache's key depends on).
  std::size_t Hash() const {
    std::size_t seed = std::hash<std::size_t>{}(filters_.size());
    for (const AttributeFilter& f : Canonical()) {
      seed = detail::HashCombine(seed, std::hash<std::size_t>{}(f.column));
      seed = detail::HashCombine(
          seed, std::hash<int>{}(static_cast<int>(f.op)));
      seed = detail::HashCombine(seed, detail::HashFloatBits(f.value));
    }
    return seed;
  }

 private:
  std::vector<AttributeFilter> filters_;
};

}  // namespace rj
