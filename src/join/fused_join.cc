#include "join/fused_join.h"

#include <algorithm>
#include <utility>

#include "geometry/pip.h"
#include "join/batch_pipeline.h"
#include "raster/fbo_pool.h"
#include "raster/pipeline.h"

namespace rj {

namespace {

Status ValidateMembers(std::size_t num_attributes, const PolygonSet& polys,
                       const std::vector<FusedMemberSpec>& members) {
  if (members.empty()) {
    return Status::InvalidArgument("fusion group is empty");
  }
  RJ_RETURN_NOT_OK(ValidatePolygonIds(polys));
  for (const FusedMemberSpec& member : members) {
    RJ_RETURN_NOT_OK(
        ValidateWeightColumnCount(num_attributes, member.weight_column));
    RJ_RETURN_NOT_OK(ValidateFiltersCount(num_attributes, member.filters));
  }
  return Status::OK();
}

FusedJoinOutput MakeOutput(std::size_t num_members, std::size_t num_polygons) {
  FusedJoinOutput out;
  out.arrays.assign(num_members, raster::ResultArrays(num_polygons));
  out.ranges.resize(num_members);
  out.point_fbos.resize(num_members);
  return out;
}

}  // namespace

std::vector<std::size_t> FusedUploadColumns(
    const std::vector<FusedMemberSpec>& members) {
  std::vector<std::size_t> columns;
  for (const FusedMemberSpec& member : members) {
    const std::vector<std::size_t> own =
        UploadColumns(member.filters, member.weight_column);
    columns.insert(columns.end(), own.begin(), own.end());
  }
  // Canonical ascending order: the union is a set, and a deterministic
  // column order keeps the upload stride (and thus batch planning and the
  // transfer meter) independent of member order within the group.
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  return columns;
}

Result<FusedJoinOutput> FusedBoundedRasterJoin(
    gpu::Device* device, ScanPlan scan, const PolygonSet& polys,
    const TriangleSoup& soup, const BBox& world, double epsilon,
    const std::vector<FusedMemberSpec>& members,
    BoundedRasterJoinStats* stats) {
  RJ_RETURN_NOT_OK(
      ValidateMembers(scan.source->num_attributes(), polys, members));
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  const std::size_t m = members.size();
  FusedJoinOutput out = MakeOutput(m, polys.size());

  // Plan the canvas tiling for the requested ε (Fig. 5).
  RJ_ASSIGN_OR_RETURN(
      std::vector<raster::CanvasTile> tiles,
      raster::PlanCanvas(world, epsilon, device->options().max_fbo_dim));
  for (const FusedMemberSpec& member : members) {
    if ((member.compute_result_ranges || member.export_point_fbo) &&
        tiles.size() != 1) {
      return Status::NotImplemented(
          "result ranges / point-FBO export require a single-tile canvas "
          "(reduce epsilon resolution or raise max_fbo_dim)");
    }
  }

  // Ship and meter the triangle VBO exactly once per execution: Step II
  // reads the same triangulation for every tile pass and every member, so
  // re-uploading it per tile both distorts the transfer breakdown and
  // breaks PlanAdmission's fixed_bytes assumption (the grant covers one
  // triangle upload). Freed before the point pipeline starts, so the
  // device peak stays max(fixed_bytes, in-flight point VBOs), never the
  // sum.
  RJ_RETURN_NOT_OK(UploadTriangleVbo(device, soup.size(), &out.timing));

  // One pipeline for every tile pass: the transfer (and, for disk
  // sources, reader) thread and the slots' staging buffers stay warm
  // across tiles (Rewind re-streams the blocks per pass), instead of
  // paying a thread spawn and two batch-sized staging allocations per
  // tile. The columns shipped are every member's filter and aggregated
  // columns (the draw reads the host rows directly; the upload is there so
  // the simulated device meters the transfer the paper's cost model
  // charges).
  const std::size_t blocks_pruned = scan.blocks_pruned;
  join::BatchPipeline pipeline(device, std::move(scan),
                               FusedUploadColumns(members));
  std::uint64_t drawn_total = 0;

  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const raster::CanvasTile& tile = tiles[t];
    raster::Viewport vp(tile.world, tile.width, tile.height);

    // One pooled canvas per member (per-query FBO allocation is the
    // dominant transient under concurrent traffic — see fbo_pool.h);
    // targets alias them for the point pass.
    std::vector<raster::FboLease> leases;
    leases.reserve(m);
    std::vector<raster::MultiTarget> targets(m);
    for (std::size_t i = 0; i < m; ++i) {
      leases.push_back(
          raster::FboPool::Shared().Acquire(tile.width, tile.height));
      targets[i].filters = &members[i].filters;
      targets[i].weight_column = members[i].weight_column;
      targets[i].fbo = leases.back().get();
    }

    // --- Step I: one shared point scan feeding every member (batched when
    // out-of-core). The pipeline prefetches batch b+1 (pack + CopyToDevice
    // on its transfer thread, metered under phase::kTransfer) while the
    // calling thread draws batch b in place.
    if (t > 0) RJ_RETURN_NOT_OK(pipeline.Rewind());
    for (;;) {
      RJ_ASSIGN_OR_RETURN(std::optional<join::BatchPipeline::BatchView> view,
                          pipeline.Acquire());
      if (!view.has_value()) break;
      {
        ScopedPhase sp(&out.timing, phase::kProcessing);
        for (const std::uint64_t drawn : raster::DrawPointsMulti(
                 vp, *view->rows, view->begin, view->end, targets,
                 &device->counters())) {
          drawn_total += drawn;
        }
      }
      pipeline.Release(*view);
      device->counters().AddBatches(1);
    }

    // --- Step II per member: polygons over the member's own canvas. ------
    for (std::size_t i = 0; i < m; ++i) {
      const raster::Fbo& point_fbo = *targets[i].fbo;
      {
        ScopedPhase sp(&out.timing, phase::kProcessing);
        raster::ResultArrays tile_result(polys.size());
        raster::DrawPolygons(vp, soup, point_fbo, /*boundary=*/nullptr,
                             &tile_result, &device->counters());
        out.arrays[i].AddFrom(tile_result);
      }
      device->counters().AddRenderPasses(1);

      if (members[i].compute_result_ranges) {
        ScopedPhase sp(&out.timing, phase::kProcessing);
        RJ_ASSIGN_OR_RETURN(
            out.ranges[i],
            ComputeResultRanges(vp, polys, soup, point_fbo,
                                FinalizeAggregate(AggregateKind::kCount,
                                                  out.arrays[i]),
                                &device->counters()));
      }
      if (members[i].export_point_fbo) {
        // Single tile (validated above): hand the pooled canvas itself to
        // the caller's gather.
        out.point_fbos[i] = std::move(leases[i]);
      }
    }
  }
  RJ_RETURN_NOT_OK(pipeline.Drain(&out.timing));

  if (stats != nullptr) {
    stats->num_tiles = tiles.size();
    stats->num_batches = pipeline.num_batches() * tiles.size();
    stats->points_drawn = drawn_total;
    stats->blocks_pruned = blocks_pruned;
  }
  return out;
}

Result<FusedJoinOutput> FusedAccurateRasterJoin(
    gpu::Device* device, ScanPlan scan, const PolygonSet& polys,
    const TriangleSoup& soup, const AccurateCanvas& canvas,
    const std::vector<FusedMemberSpec>& members,
    AccurateRasterJoinStats* stats) {
  RJ_RETURN_NOT_OK(
      ValidateMembers(scan.source->num_attributes(), polys, members));
  for (const FusedMemberSpec& member : members) {
    if (member.compute_result_ranges || member.export_point_fbo) {
      return Status::NotImplemented(
          "result ranges / point-FBO export are bounded-variant features");
    }
  }
  // The per-member point canvases are device FBOs at the canvas size.
  RJ_ASSIGN_OR_RETURN(const std::int32_t dim,
                      ResolveAccurateCanvasDim(canvas.dim, *device));
  const std::size_t m = members.size();

  FusedJoinOutput out = MakeOutput(m, polys.size());
  raster::Viewport vp(canvas.world, dim, dim);
  // Step 1's products, shared read-only (see AccurateCanvas).
  const raster::BoundaryMask& boundary_mask = canvas.boundary;
  const GridIndex& index = *canvas.index;

  // Pooled per-member point canvases (see fbo_pool.h).
  std::vector<raster::FboLease> point_leases;
  point_leases.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    point_leases.push_back(raster::FboPool::Shared().Acquire(dim, dim));
  }

  std::uint64_t boundary_points = 0;
  std::uint64_t interior_points = 0;
  // Per-thread metering window so concurrent queries on a shared device
  // don't absorb each other's PIP tests.
  const std::size_t pip_before = GetThreadPipTestCount();

  // --- Step 2: one shared scan (Procedure AccuratePoints). Batch b+1's
  // host→device transfer runs on the pipeline's prefetch thread while this
  // loop processes batch b (plus, for disk sources, the reader thread
  // materializing batch b+2).
  const std::size_t blocks_pruned = scan.blocks_pruned;
  join::BatchPipeline upload_pipeline(device, std::move(scan),
                                      FusedUploadColumns(members));
  std::vector<const float*> weights(m, nullptr);
  std::int32_t px[raster::kPointTile] = {};
  std::int32_t py[raster::kPointTile] = {};
  bool on_boundary[raster::kPointTile] = {};
  unsigned char accepted[raster::kPointTile] = {};
  std::uint32_t selected[raster::kPointTile] = {};
  // contained[ids_begin[r] .. ids_begin[r + 1]): row r's polygons.
  std::uint32_t ids_begin[raster::kPointTile + 1] = {};
  std::vector<unsigned char> match(m * raster::kPointTile);
  std::vector<std::size_t> contained;
  for (;;) {
    RJ_ASSIGN_OR_RETURN(std::optional<join::BatchPipeline::BatchView> view,
                        upload_pipeline.Acquire());
    if (!view.has_value()) break;
    const PointTable& rows = *view->rows;
    for (std::size_t t = 0; t < m; ++t) {
      weights[t] = members[t].weight_column != PointTable::npos
                       ? rows.attribute(members[t].weight_column).data()
                       : nullptr;
    }

    ScopedPhase sp(&out.timing, phase::kProcessing);

    // Procedure AccuratePoints over the batch, one tile at a time. The
    // member-independent work runs once per row: the vertex stage
    // (raster::TransformTile), the boundary classification, and — for a
    // boundary row some member accepts — Procedure JoinPoint's candidate
    // PIP tests, whose containing polygon ids are kept in candidate order.
    // Then each member walks the rows its filters accept in row order:
    // boundary rows accumulate exactly into the member's result arrays,
    // interior rows blend into its point canvas — exactly what the
    // member's solo run does, in the same order.
    for (std::size_t tile = view->begin; tile < view->end;
         tile += raster::kPointTile) {
      const std::size_t n = std::min(view->end - tile, raster::kPointTile);
      raster::TransformTile(vp, rows, tile, n, dim, dim, px, py);
      std::fill(accepted, accepted + n, static_cast<unsigned char>(0));
      for (std::size_t t = 0; t < m; ++t) {
        unsigned char* mt = &match[t * raster::kPointTile];
        members[t].filters.MatchRows(rows, tile, tile + n, mt);
        for (std::size_t r = 0; r < n; ++r) {
          mt[r] &= static_cast<unsigned char>(px[r] >= 0);
          accepted[r] |= mt[r];
        }
      }
      contained.clear();
      for (std::size_t r = 0; r < n; ++r) {
        ids_begin[r] = static_cast<std::uint32_t>(contained.size());
        on_boundary[r] =
            accepted[r] != 0 && boundary_mask.IsMarked(px[r], py[r]);
        if (accepted[r] == 0) continue;
        if (!on_boundary[r]) {
          ++interior_points;
          continue;
        }
        ++boundary_points;
        const Point p = rows.At(tile + r);
        auto [cand_begin, cand_end] = index.Candidates(p);
        for (const std::int32_t* c = cand_begin; c != cand_end; ++c) {
          const Polygon& poly = polys[static_cast<std::size_t>(*c)];
          if (poly.Contains(p)) {
            contained.push_back(static_cast<std::size_t>(poly.id()));
          }
        }
      }
      ids_begin[n] = static_cast<std::uint32_t>(contained.size());

      for (std::size_t t = 0; t < m; ++t) {
        const unsigned char* mt = &match[t * raster::kPointTile];
        std::size_t k = 0;
        for (std::size_t r = 0; r < n; ++r) {
          selected[k] = static_cast<std::uint32_t>(r);
          k += mt[r];
        }
        const float* w = weights[t];
        raster::ResultArrays& acc = out.arrays[t];
        raster::Fbo* point_fbo = point_leases[t].get();
        for (std::size_t j = 0; j < k; ++j) {
          const std::uint32_t r = selected[j];
          const float wr = w != nullptr ? w[tile + r] : 0.0f;
          if (!on_boundary[r]) {
            raster::BlendPointFrag(point_fbo,
                                   raster::PointFrag{px[r], py[r], wr},
                                   w != nullptr);
            continue;
          }
          for (std::uint32_t c = ids_begin[r]; c < ids_begin[r + 1]; ++c) {
            const std::size_t id = contained[c];
            acc.count[id] += 1.0;
            if (w != nullptr) {
              acc.sum[id] += wr;
              acc.min[id] = std::min(acc.min[id], static_cast<double>(wr));
              acc.max[id] = std::max(acc.max[id], static_cast<double>(wr));
            }
          }
        }
      }
    }
    upload_pipeline.Release(*view);
    device->counters().AddBatches(1);
  }
  RJ_RETURN_NOT_OK(upload_pipeline.Drain(&out.timing));

  // --- Step 3 per member: polygons over the member's canvas, skipping
  // boundary fragments (those points were resolved exactly above). --------
  for (std::size_t t = 0; t < m; ++t) {
    ScopedPhase sp(&out.timing, phase::kProcessing);
    raster::ResultArrays poly_pass(polys.size());
    raster::DrawPolygons(vp, soup, *point_leases[t], &boundary_mask,
                         &poly_pass, &device->counters());
    out.arrays[t].AddFrom(poly_pass);
    device->counters().AddRenderPasses(1);
  }

  const std::uint64_t pips = GetThreadPipTestCount() - pip_before;
  device->counters().AddPipTests(pips);
  if (stats != nullptr) {
    stats->boundary_points = boundary_points;
    stats->interior_points = interior_points;
    stats->pip_tests = pips;
    stats->num_batches = upload_pipeline.num_batches();
    stats->blocks_pruned = blocks_pruned;
  }
  return out;
}

}  // namespace rj
