#include "geometry/clip.h"

#include <cmath>

#include "common/math_utils.h"

namespace rj {

namespace {

enum class Edge { kLeftE, kRightE, kBottomE, kTopE };

bool InsideEdge(const Point& p, Edge e, const BBox& r) {
  switch (e) {
    case Edge::kLeftE: return p.x >= r.min_x;
    case Edge::kRightE: return p.x <= r.max_x;
    case Edge::kBottomE: return p.y >= r.min_y;
    case Edge::kTopE: return p.y <= r.max_y;
  }
  return false;
}

Point IntersectEdge(const Point& a, const Point& b, Edge e, const BBox& r) {
  double t;
  switch (e) {
    case Edge::kLeftE:
      t = (r.min_x - a.x) / (b.x - a.x);
      return {r.min_x, a.y + t * (b.y - a.y)};
    case Edge::kRightE:
      t = (r.max_x - a.x) / (b.x - a.x);
      return {r.max_x, a.y + t * (b.y - a.y)};
    case Edge::kBottomE:
      t = (r.min_y - a.y) / (b.y - a.y);
      return {a.x + t * (b.x - a.x), r.min_y};
    case Edge::kTopE:
      t = (r.max_y - a.y) / (b.y - a.y);
      return {a.x + t * (b.x - a.x), r.max_y};
  }
  return a;
}

}  // namespace

Ring ClipRingToRect(const Ring& subject, const BBox& rect) {
  Ring output = subject;
  for (Edge e : {Edge::kLeftE, Edge::kRightE, Edge::kBottomE, Edge::kTopE}) {
    Ring input = std::move(output);
    output.clear();
    const std::size_t n = input.size();
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      const Point& cur = input[i];
      const Point& prev = input[(i + n - 1) % n];
      const bool cur_in = InsideEdge(cur, e, rect);
      const bool prev_in = InsideEdge(prev, e, rect);
      if (cur_in) {
        if (!prev_in) output.push_back(IntersectEdge(prev, cur, e, rect));
        output.push_back(cur);
      } else if (prev_in) {
        output.push_back(IntersectEdge(prev, cur, e, rect));
      }
    }
  }
  return output;
}

double PolygonRectIntersectionArea(const Polygon& poly, const BBox& rect) {
  if (!poly.bbox().Intersects(rect)) return 0.0;
  double area = std::fabs(SignedArea(ClipRingToRect(poly.outer(), rect)));
  for (const Ring& hole : poly.holes()) {
    area -= std::fabs(SignedArea(ClipRingToRect(hole, rect)));
  }
  return std::max(0.0, area);
}

double PolygonRectCoverageFraction(const Polygon& poly, const BBox& rect) {
  const double rect_area = rect.Area();
  if (rect_area <= 0.0) return 0.0;
  return Clamp(PolygonRectIntersectionArea(poly, rect) / rect_area, 0.0, 1.0);
}

}  // namespace rj
