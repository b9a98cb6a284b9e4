#include "geom/obb.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace erpd::geom {

Obb::Obb(Vec2 center, double heading, double length, double width)
    : center_(center),
      heading_(heading),
      axis_(Vec2::from_heading(heading)),
      length_(length),
      width_(width) {}

std::array<Vec2, 4> Obb::corners() const {
  const Vec2 fwd = axis_ * (length_ * 0.5);
  const Vec2 left = axis_.perp() * (width_ * 0.5);
  return {center_ + fwd + left, center_ - fwd + left, center_ - fwd - left,
          center_ + fwd - left};
}

namespace {

std::array<Segment, 4> edges_of(const std::array<Vec2, 4>& c) {
  return {Segment{c[0], c[1]}, Segment{c[1], c[2]}, Segment{c[2], c[3]},
          Segment{c[3], c[0]}};
}

}  // namespace

std::array<Segment, 4> Obb::edges() const { return edges_of(corners()); }

bool Obb::contains(Vec2 p) const {
  constexpr double kEps = 1e-9;  // boundary points count as inside
  const Vec2 d = p - center_;
  const double lx = d.dot(axis_);
  const double ly = d.dot(axis_.perp());
  return std::abs(lx) <= length_ * 0.5 + kEps &&
         std::abs(ly) <= width_ * 0.5 + kEps;
}

namespace {

// Project corners onto an axis and return [min, max].
std::pair<double, double> project(const std::array<Vec2, 4>& pts, Vec2 axis) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const Vec2& p : pts) {
    const double v = p.dot(axis);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return {lo, hi};
}

}  // namespace

bool Obb::overlaps(const Obb& o) const {
  const auto ca = corners();
  const auto cb = o.corners();
  const Vec2 axes[4] = {axis_, axis_.perp(), o.axis_, o.axis_.perp()};
  for (const Vec2& axis : axes) {
    const auto [alo, ahi] = project(ca, axis);
    const auto [blo, bhi] = project(cb, axis);
    if (ahi < blo || bhi < alo) return false;
  }
  return true;
}

double Obb::distance_to(const Obb& o) const {
  if (overlaps(o)) return 0.0;
  // Segments of non-overlapping boxes cannot cross, so the minimum is
  // attained at a corner of one box against an edge of the other. Every
  // corner starts one edge and ends another, so the 32 (corner, edge) pairs
  // below are exactly the set an edge-by-edge endpoint walk visits twice;
  // std::min over the same values gives the same minimum. The walk runs on
  // squared distances: sqrt is correctly rounded, hence monotone, so the
  // sqrt of the smallest square is the smallest point_segment_distance.
  const auto ca = corners();
  const auto cb = o.corners();
  const auto ea = edges_of(ca);
  const auto eb = edges_of(cb);
  double best_sq = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 4; ++k) {
    for (int e = 0; e < 4; ++e) {
      best_sq = std::min(best_sq, point_segment_distance_sq(ca[k], eb[e]));
      best_sq = std::min(best_sq, point_segment_distance_sq(cb[k], ea[e]));
    }
  }
  return std::sqrt(best_sq);
}

double Obb::distance_to(Vec2 p) const {
  if (contains(p)) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const Segment& e : edges()) {
    best = std::min(best, point_segment_distance(p, e));
  }
  return best;
}

double Obb::ray_hit(const Segment& ray) const {
  if (contains(ray.a)) return 0.0;
  double best = -1.0;
  for (const Segment& e : edges()) {
    if (const auto hit = intersect(ray, e)) {
      if (best < 0.0 || hit->t_first < best) best = hit->t_first;
    }
  }
  return best;
}

Aabb Obb::aabb() const {
  Aabb box;
  for (const Vec2& c : corners()) box.expand(c);
  return box;
}

void ObbRaySoa::add(const Obb& box, Vec2 eye) {
  const auto e = box.edges();
  edges_.insert(edges_.end(), e.begin(), e.end());
  eye_inside_.push_back(box.contains(eye) ? 1 : 0);
}

double ObbRaySoa::ray_hit(std::size_t i, const Segment& ray) const {
  if (eye_inside_[i] != 0) return 0.0;
  const Segment* e = edges_.data() + 4 * i;
  // Same fold as Obb::ray_hit, over the precomputed edges.
  double best = -1.0;
  for (int k = 0; k < 4; ++k) {
    if (const auto hit = intersect(ray, e[k])) {
      if (best < 0.0 || hit->t_first < best) best = hit->t_first;
    }
  }
  return best;
}

}  // namespace erpd::geom
