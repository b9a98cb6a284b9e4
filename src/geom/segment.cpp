#include "geom/segment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace erpd::geom {

namespace {
constexpr double kEps = 1e-12;
}

double point_segment_distance_sq(Vec2 p, const Segment& s, double* t_out) {
  const Vec2 d = s.direction();
  const double dd = d.dot(d);
  double t = 0.0;
  if (dd > kEps) t = std::clamp((p - s.a).dot(d) / dd, 0.0, 1.0);
  if (t_out != nullptr) *t_out = t;
  return distance_sq(p, s.point_at(t));
}

double point_segment_distance(Vec2 p, const Segment& s, double* t_out) {
  return std::sqrt(point_segment_distance_sq(p, s, t_out));
}

double intersect_reach(double len_first, double len_second, double span,
                       double coord, double sin_lo) {
  // u is the unit roundoff. Write r, s, q for intersect()'s rounded vectors
  // first.b - first.a, second.b - second.a and second.a - first.a, and
  // S = |r| + |s| + |q|. A hit implies, per branch:
  //  - point branch (|r|^2 < 1e-12): first.a lies within 1e-9 of `second`,
  //    up to 8u(S + coord) of rounding in point_segment_distance;
  //  - parallel branch (|r x s| < 1e-12, |q x r| <= 1e-12, |r| >= 1e-6):
  //    both ends of `second` lie within 2e-6 + 2uS of first's line and their
  //    projections overlap [0, 1] up to 5uS, so the gap is < 2e-6 + 10uS;
  //  - crossing branch (|r x s| >= 1e-12): the computed t and u put a point
  //    of each (1e-12-extended) segment within 4.02uS of the other's line,
  //    so the two points are within 4.02uS / sin(angle) of each other. The
  //    branch threshold itself bounds the angle: |r x s| >= 1e-12 minus its
  //    rounding 2.0001u|r||s|.
  // The constants below round each term up by at least 20%, which also
  // absorbs the rounding of this function and of the caller's gap.
  constexpr double kU = 0x1p-53;
  const double sum = len_first + len_second + span;
  const double prod = len_first * len_second;
  // A zero-length segment makes r x s exactly 0: no crossing-branch hit.
  double sin_min = 1.0;
  if (prod > 0.0) {
    sin_min = std::max(sin_lo, (1e-12 - 2.5 * kU * prod) / prod);
  }
  if (!(sin_min > 0.0) || !std::isfinite(sum + coord)) {
    return std::numeric_limits<double>::infinity();
  }
  return 4e-6 + 1e-12 * (len_first + len_second) + 16.0 * kU * (sum + coord) +
         5.0 * kU * sum / sin_min;
}

CircleCrossings segment_circle_crossings(const Segment& s, Vec2 center,
                                         double radius) {
  CircleCrossings out;
  const Vec2 d = s.direction();
  const Vec2 f = s.a - center;
  const double a = d.dot(d);
  if (a < kEps) return out;  // degenerate segment
  const double b = 2.0 * f.dot(d);
  const double c = f.dot(f) - radius * radius;
  const double disc = b * b - 4.0 * a * c;
  if (disc < 0.0) return out;
  const double sq = std::sqrt(disc);
  const double t1 = (-b - sq) / (2.0 * a);
  const double t2 = (-b + sq) / (2.0 * a);
  for (double t : {t1, t2}) {
    if (t >= 0.0 && t <= 1.0) {
      out.t[out.count++] = t;
    }
  }
  return out;
}

std::optional<IntervalD> segment_in_circle_interval(const Segment& s,
                                                    Vec2 center,
                                                    double radius) {
  const bool a_in = distance_sq(s.a, center) <= radius * radius;
  const bool b_in = distance_sq(s.b, center) <= radius * radius;
  const CircleCrossings x = segment_circle_crossings(s, center, radius);

  if (a_in && b_in) return IntervalD{0.0, 1.0};
  if (a_in) {
    const double exit = x.count > 0 ? x.t[x.count - 1] : 1.0;
    return IntervalD{0.0, exit};
  }
  if (b_in) {
    const double enter = x.count > 0 ? x.t[0] : 0.0;
    return IntervalD{enter, 1.0};
  }
  if (x.count == 2) return IntervalD{x.t[0], x.t[1]};
  return std::nullopt;  // outside, at most tangent
}

std::optional<IntervalD> interval_overlap(IntervalD a, IntervalD b) {
  const double lo = std::max(a.lo, b.lo);
  const double hi = std::min(a.hi, b.hi);
  if (lo > hi) return std::nullopt;
  return IntervalD{lo, hi};
}

double interval_union_length(IntervalD a, IntervalD b) {
  const auto ov = interval_overlap(a, b);
  return a.length() + b.length() - (ov ? ov->length() : 0.0);
}

}  // namespace erpd::geom
