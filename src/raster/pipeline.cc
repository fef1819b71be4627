#include "raster/pipeline.h"

#include <algorithm>
#include <limits>

#include "raster/conservative.h"
#include "raster/rasterizer.h"

namespace rj::raster {

namespace {

/// Row bands per canvas: enough to keep every worker busy in the fragment
/// stage without shattering the buckets. Clamped to the canvas height so a
/// band always owns at least one full row (exclusive writes).
std::size_t PlanBands(std::int32_t height, std::size_t workers) {
  return std::min<std::size_t>(static_cast<std::size_t>(height),
                               std::max<std::size_t>(workers, 1));
}

}  // namespace

BandBinner::BandBinner(std::size_t num_chunks, std::int32_t height,
                       std::size_t expected_frags)
    : num_chunks_(num_chunks),
      num_bands_(PlanBands(height, num_chunks)),
      height_(height),
      buckets_(num_chunks * num_bands_) {
  if (expected_frags > 0) {
    // Pre-size for a uniform spread; skewed inputs still grow as needed.
    const std::size_t per_bucket = expected_frags / buckets_.size() + 1;
    for (auto& bucket : buckets_) bucket.reserve(per_bucket);
  }
}

void ResultArrays::Resize(std::size_t num_polygons) {
  count.assign(num_polygons, 0.0);
  sum.assign(num_polygons, 0.0);
  min.assign(num_polygons, std::numeric_limits<double>::infinity());
  max.assign(num_polygons, -std::numeric_limits<double>::infinity());
}

void ResultArrays::AddFrom(const ResultArrays& other) {
  for (std::size_t i = 0; i < count.size(); ++i) {
    count[i] += other.count[i];
    sum[i] += other.sum[i];
    min[i] = std::min(min[i], other.min[i]);
    max[i] = std::max(max[i], other.max[i]);
  }
}

void TransformTile(const Viewport& vp, const PointTable& rows,
                   std::size_t first, std::size_t n, std::int32_t width,
                   std::int32_t height, std::int32_t* px, std::int32_t* py) {
  const auto w = static_cast<double>(width);
  const auto h = static_cast<double>(height);
  for (std::size_t r = 0; r < n; ++r) {
    const Point s = vp.ToScreen(rows.At(first + r));
    // Inside the canvas truncation is the floor, so the clip runs on the
    // continuous position and no floor is computed.
    const bool inside = s.x >= 0.0 && s.x < w && s.y >= 0.0 && s.y < h;
    px[r] = inside ? static_cast<std::int32_t>(s.x) : -1;
    py[r] = inside ? static_cast<std::int32_t>(s.y) : -1;
  }
}

namespace {

/// The point pass over rows [begin, end) of `rows`, one tile at a time:
/// the shared vertex stage (TransformTile), then, per target, the rows
/// that pass the target's filters and were not clipped are selected
/// branch-free, and `emit(t, frag)` runs for each of them in row order;
/// drawn[t] counts them.
template <typename Emit>
void ShadeRows(const Viewport& vp, const PointTable& rows, std::size_t begin,
               std::size_t end, const std::vector<MultiTarget>& targets,
               const std::vector<const float*>& weights, std::uint64_t* drawn,
               const Emit& emit) {
  std::int32_t px[kPointTile] = {};
  std::int32_t py[kPointTile] = {};
  unsigned char match[kPointTile] = {};
  std::uint32_t selected[kPointTile] = {};
  for (std::size_t tile = begin; tile < end; tile += kPointTile) {
    const std::size_t n = std::min(end - tile, kPointTile);
    TransformTile(vp, rows, tile, n, targets[0].fbo->width(),
                  targets[0].fbo->height(), px, py);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      targets[t].filters->MatchRows(rows, tile, tile + n, match);
      std::size_t k = 0;
      for (std::size_t r = 0; r < n; ++r) {
        selected[k] = static_cast<std::uint32_t>(r);
        k += match[r] & static_cast<unsigned char>(px[r] >= 0);
      }
      const float* w = weights[t];
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t r = selected[j];
        emit(t, PointFrag{px[r], py[r], w != nullptr ? w[tile + r] : 0.0f});
      }
      drawn[t] += k;
    }
  }
}

}  // namespace

std::vector<std::uint64_t> DrawPointsMulti(
    const Viewport& vp, const PointTable& rows, std::size_t begin,
    std::size_t end, const std::vector<MultiTarget>& targets,
    gpu::Counters* counters, ThreadPool* pool) {
  const std::size_t n = end - begin;
  const std::size_t m = targets.size();
  std::vector<std::uint64_t> drawn(m, 0);
  if (m == 0) return drawn;

  // Per-target weight column (null: COUNT-only target).
  std::vector<const float*> weights(m, nullptr);
  for (std::size_t t = 0; t < m; ++t) {
    if (targets[t].weight_column != PointTable::npos) {
      weights[t] = rows.attribute(targets[t].weight_column).data();
    }
  }

  const std::size_t num_chunks = pool != nullptr ? pool->NumChunks(n) : 1;
  if (num_chunks <= 1) {
    // Sequential path: each selected fragment blends straight into its
    // target's FBO.
    ShadeRows(vp, rows, begin, end, targets, weights, drawn.data(),
              [&](std::size_t t, const PointFrag& f) {
                BlendPointFrag(targets[t].fbo, f, weights[t] != nullptr);
              });
  } else {
    // Tiled-parallel path. Vertex stage: each chunk shades its contiguous
    // slice of the rows, staging fragments per target and row band. All
    // binners share one band layout, so one fragment-stage ParallelFor
    // replays every target's run of bands.
    std::vector<BandBinner> binners;
    binners.reserve(m);
    for (std::size_t t = 0; t < m; ++t) {
      binners.emplace_back(num_chunks, targets[0].fbo->height(),
                           /*expected_frags=*/n);
    }
    std::vector<std::uint64_t> drawn_per_chunk(num_chunks * m, 0);
    pool->ParallelFor(n, [&](std::size_t chunk_begin, std::size_t chunk_end,
                             std::size_t chunk) {
      ShadeRows(vp, rows, begin + chunk_begin, begin + chunk_end, targets,
                weights, &drawn_per_chunk[chunk * m],
                [&](std::size_t t, const PointFrag& f) {
                  binners[t].Push(chunk, f);
                });
    });

    // Fragment stage: each worker owns a contiguous run of row bands and
    // blends its fragments in sequential row order (see BandBinner).
    pool->ParallelFor(
        binners[0].num_bands(),
        [&](std::size_t band_begin, std::size_t band_end, std::size_t) {
          for (std::size_t t = 0; t < m; ++t) {
            binners[t].ReplayBands(
                band_begin, band_end, [&](const PointFrag& f) {
                  BlendPointFrag(targets[t].fbo, f, weights[t] != nullptr);
                });
          }
        });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      for (std::size_t t = 0; t < m; ++t) drawn[t] += drawn_per_chunk[c * m + t];
    }
  }

  if (counters != nullptr) {
    // The scan is shared: meter the vertex stage once for the whole group,
    // and the fragment stage as the sum of what every target blended.
    counters->AddVerticesProcessed(n);
    std::uint64_t total = 0;
    for (const std::uint64_t d : drawn) total += d;
    counters->AddFragments(total);
  }
  return drawn;
}

std::uint64_t DrawPoints(const Viewport& vp, const PointTable& points,
                         const FilterSet& filters, std::size_t weight_column,
                         Fbo* fbo, gpu::Counters* counters, ThreadPool* pool) {
  return DrawPointsMulti(vp, points, 0, points.size(),
                         {MultiTarget{&filters, weight_column, fbo}}, counters,
                         pool)[0];
}

void DrawPolygons(const Viewport& vp, const TriangleSoup& soup,
                  const Fbo& point_fbo, const BoundaryMask* boundary,
                  ResultArrays* result, gpu::Counters* counters,
                  ThreadPool* pool) {
  const bool min_max_tracked = !result->min.empty();
  const std::size_t num_polygons = result->count.size();

  // Per-worker meter kept in plain integers so the fragment loop never
  // touches the shared atomics; merged into `counters` once at the end.
  struct Meter {
    std::uint64_t fragments = 0;
    std::uint64_t atomics = 0;
  };

  // Shades one triangle into `acc`, metering into `meter`.
  const auto shade = [&](const Triangle& tri, ResultArrays* acc,
                         Meter* meter) {
    const std::size_t id = static_cast<std::size_t>(tri.polygon_id);
    const Point a = vp.ToScreen(tri.a);
    const Point b = vp.ToScreen(tri.b);
    const Point c = vp.ToScreen(tri.c);
    RasterizeTriangle(
        a, b, c, point_fbo.width(), point_fbo.height(),
        [&](std::int32_t x, std::int32_t y) {
          ++meter->fragments;
          if (boundary != nullptr && boundary->IsMarked(x, y)) {
            // Accurate variant: boundary pixels were handled point-by-point.
            return;
          }
          const float cnt = point_fbo.At(x, y, kChannelCount);
          if (cnt == 0.0f) return;  // empty pixel, nothing to accumulate
          acc->count[id] += cnt;
          acc->sum[id] += point_fbo.At(x, y, kChannelSum);
          if (min_max_tracked) {
            acc->min[id] = std::min(
                acc->min[id], static_cast<double>(point_fbo.At(x, y,
                                                               kChannelMin)));
            acc->max[id] = std::max(
                acc->max[id], static_cast<double>(point_fbo.At(x, y,
                                                               kChannelMax)));
          }
          ++meter->atomics;
        });
  };

  Meter totals;
  const std::size_t num_chunks =
      pool != nullptr ? pool->NumChunks(soup.size()) : 1;
  if (num_chunks <= 1) {
    for (const Triangle& tri : soup) shade(tri, result, &totals);
  } else {
    // Triangles split across workers; each accumulates into a private
    // ResultArrays (the per-worker SSBO analogue) merged in chunk order.
    std::vector<ResultArrays> partials(num_chunks, ResultArrays(num_polygons));
    std::vector<Meter> meters(num_chunks);
    pool->ParallelFor(soup.size(), [&](std::size_t begin, std::size_t end,
                                       std::size_t chunk) {
      for (std::size_t t = begin; t < end; ++t) {
        shade(soup[t], &partials[chunk], &meters[chunk]);
      }
    });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      result->AddFrom(partials[c]);
      totals.fragments += meters[c].fragments;
      totals.atomics += meters[c].atomics;
    }
  }

  if (counters != nullptr) {
    counters->AddVerticesProcessed(soup.size() * 3);
    counters->AddFragments(totals.fragments);
    counters->AddAtomicAdds(totals.atomics);
  }
}

void DrawBoundaries(const Viewport& vp, const PolygonSet& polys,
                    bool conservative, BoundaryMask* boundary,
                    gpu::Counters* counters, ThreadPool* pool) {
  const std::int32_t width = boundary->width();
  const std::int32_t height = boundary->height();

  // Rasterizes one polygon's rings, invoking `mark(x, y)` per fragment.
  const auto draw_polygon = [&](const Polygon& poly, const auto& mark) {
    const auto draw_ring = [&](const Ring& ring) {
      const std::size_t n = ring.size();
      for (std::size_t i = 0; i < n; ++i) {
        const Point a = vp.ToScreen(ring[i]);
        const Point b = vp.ToScreen(ring[(i + 1) % n]);
        if (conservative) {
          RasterizeSegmentConservative(a, b, width, height, mark);
        } else {
          RasterizeSegment(a, b, width, height, mark);
        }
      }
    };
    draw_ring(poly.outer());
    for (const Ring& hole : poly.holes()) draw_ring(hole);
  };

  std::uint64_t fragments = 0;
  const std::size_t num_chunks =
      pool != nullptr ? pool->NumChunks(polys.size()) : 1;
  if (num_chunks <= 1) {
    for (const Polygon& poly : polys) {
      draw_polygon(poly, [&](std::int32_t x, std::int32_t y) {
        boundary->Mark(x, y);
        ++fragments;
      });
    }
  } else {
    // Parallel path: each chunk rasterizes its polygons into per-band
    // fragment buckets; each band's owner then marks the pixels. A band
    // owns whole rows, and the mask pads rows to whole words, so owners
    // never write one word; the mark is idempotent, so replay order within
    // a band cannot matter — bitwise identity with the sequential pass is
    // free. The fragment meter is counted at staging time so duplicates
    // are counted exactly as the sequential loop counts them.
    BandBinner binner(num_chunks, height);
    std::vector<std::uint64_t> frags_per_chunk(num_chunks, 0);
    pool->ParallelFor(polys.size(), [&](std::size_t begin, std::size_t end,
                                        std::size_t chunk) {
      std::uint64_t local = 0;
      for (std::size_t i = begin; i < end; ++i) {
        draw_polygon(polys[i], [&](std::int32_t x, std::int32_t y) {
          binner.Push(chunk, {x, y, 0.0f});
          ++local;
        });
      }
      frags_per_chunk[chunk] = local;
    });
    pool->ParallelFor(
        binner.num_bands(),
        [&](std::size_t band_begin, std::size_t band_end, std::size_t) {
          binner.ReplayBands(band_begin, band_end, [&](const PointFrag& f) {
            boundary->Mark(f.x, f.y);
          });
        });
    for (const std::uint64_t f : frags_per_chunk) fragments += f;
  }
  if (counters != nullptr) counters->AddFragments(fragments);
}

}  // namespace rj::raster
