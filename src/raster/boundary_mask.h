/// \file boundary_mask.h
/// \brief The accurate variant's boundary canvas (§4.3 Step 1): one bit
/// per pixel.
///
/// The paper draws polygon outlines into an FBO and only ever asks one
/// question of it — is this pixel on a boundary? A bit answers it: the mask
/// is 1/128 of an RGBA-float FBO (128 KB at 1024², 8 MB at 8192²), small
/// enough to keep one per canvas size for the executor's lifetime. Each row
/// is padded to whole 64-bit words, so writers that own disjoint row
/// ranges (DrawBoundaries' band owners) never write the same word.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rj::raster {

class BoundaryMask {
 public:
  BoundaryMask() = default;

  /// An all-clear width × height mask.
  BoundaryMask(std::int32_t width, std::int32_t height)
      : width_(width),
        height_(height),
        words_per_row_((static_cast<std::size_t>(width) + 63) / 64),
        words_(words_per_row_ * static_cast<std::size_t>(height), 0) {}

  std::int32_t width() const { return width_; }
  std::int32_t height() const { return height_; }

  /// Marks pixel (x, y) as a boundary pixel (idempotent).
  void Mark(std::int32_t x, std::int32_t y) {
    words_[WordOf(x, y)] |= BitOf(x);
  }

  /// True if pixel (x, y) lies on a polygon boundary.
  bool IsMarked(std::int32_t x, std::int32_t y) const {
    return (words_[WordOf(x, y)] & BitOf(x)) != 0;
  }

  /// The packed rows, ⌈width / 64⌉ words each, row 0 first.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::size_t WordOf(std::int32_t x, std::int32_t y) const {
    return static_cast<std::size_t>(y) * words_per_row_ +
           static_cast<std::size_t>(x) / 64;
  }
  static std::uint64_t BitOf(std::int32_t x) {
    return std::uint64_t{1} << (static_cast<std::uint32_t>(x) % 64);
  }

  std::int32_t width_ = 0;
  std::int32_t height_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rj::raster
