#include "query/calibration.h"

#include <cmath>

#include "common/rng.h"
#include "common/timer.h"
#include "data/point_table.h"
#include "geometry/pip.h"
#include "raster/pipeline.h"

namespace rj {

Result<CostModelParams> CalibrateCostModel(gpu::Device* device) {
  if (device == nullptr) {
    return Status::InvalidArgument("device must not be null");
  }
  CostModelParams params;
  Rng rng(0xCA11B);

  // --- per-point draw cost: render N points through the pipeline. -------
  const raster::Viewport vp(BBox(0, 0, 1000, 1000), 512, 512);
  raster::Fbo fbo(512, 512);
  {
    constexpr std::size_t kPoints = 200'000;
    PointTable points;
    points.Reserve(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i) {
      points.Append(rng.Uniform(0, 1000), rng.Uniform(0, 1000));
    }
    Timer t;
    raster::DrawPoints(vp, points, FilterSet(), PointTable::npos, &fbo,
                       nullptr);
    params.per_point_draw = t.ElapsedSeconds() / kPoints;
  }

  // --- per-fragment cost: the polygon pass of a large triangle over the
  // point FBO, divided by the fragments it meters. ------------------------
  {
    const TriangleSoup soup = {
        Triangle{{1.0, 1.0}, {999.0, 2.0}, {500.0, 999.0}, 0}};
    raster::ResultArrays result(soup.size());
    gpu::Counters counters;
    Timer t;
    for (int rep = 0; rep < 4; ++rep) {
      raster::DrawPolygons(vp, soup, fbo, nullptr, &result, &counters);
    }
    const double seconds = t.ElapsedSeconds();
    if (counters.fragments() == 0) {
      return Status::Internal("calibration shaded nothing");
    }
    params.per_fragment =
        seconds / static_cast<double>(counters.fragments());
  }

  // --- per-PIP-vertex cost: crossing tests on a synthetic ring. ----------
  {
    constexpr int kVertices = 128;
    constexpr int kTests = 20'000;
    Ring ring;
    for (int i = 0; i < kVertices; ++i) {
      const double a = 2.0 * 3.141592653589793 * i / kVertices;
      ring.push_back({std::cos(a) * 400.0 + 500.0,
                      std::sin(a) * 400.0 + 500.0});
    }
    Timer t;
    volatile int sink = 0;
    for (int i = 0; i < kTests; ++i) {
      const Point p{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
      sink = sink + static_cast<int>(TestPointInRing(ring, p));
    }
    params.per_pip_vertex =
        t.ElapsedSeconds() / (static_cast<double>(kTests) * kVertices);
  }

  // --- transfer cost from the device's configured bandwidth. -------------
  const double bw = device->options().transfer_bandwidth_bytes_per_sec;
  params.per_byte_transfer = bw > 0.0 ? 1.0 / bw : 0.0;

  return params;
}

}  // namespace rj
