#pragma once
// Planar segment primitives: intersection tests and distances.
//
// Trajectory intersection (the seed of the paper's collision area) is
// computed by intersecting predicted path segments; the collision-area math
// needs segment/circle crossings to find passing intervals.

#include <algorithm>
#include <cmath>
#include <optional>

#include "geom/vec2.hpp"

namespace erpd::geom {

struct Segment {
  Vec2 a{};
  Vec2 b{};

  Vec2 direction() const { return b - a; }
  double length() const { return (b - a).norm(); }
  Vec2 point_at(double t) const { return lerp(a, b, t); }
};

/// Result of a segment-segment intersection: the point plus the normalized
/// parameters along each segment (both in [0, 1]).
struct SegmentIntersection {
  Vec2 point{};
  double t_first{0.0};
  double t_second{0.0};
};

/// Distance from point `p` to the segment, and the closest point parameter.
double point_segment_distance(Vec2 p, const Segment& s, double* t_out = nullptr);
/// Its square: point_segment_distance is exactly the sqrt of this value.
double point_segment_distance_sq(Vec2 p, const Segment& s,
                                 double* t_out = nullptr);

/// Proper/touching intersection of two segments. Collinear overlapping
/// segments report the first overlapping point of `first`.
///
/// Defined inline: the LiDAR ray caster folds this over box edges and only
/// consumes t_first, so inlining lets the compiler drop the intersection
/// point math entirely on that hot path (dead-code elimination never changes
/// the values that ARE used).
inline std::optional<SegmentIntersection> intersect(const Segment& first,
                                                    const Segment& second) {
  constexpr double kEps = 1e-12;
  const Vec2 r = first.direction();
  const Vec2 s = second.direction();
  const Vec2 qp = second.a - first.a;
  const double denom = r.cross(s);

  if (std::abs(denom) < kEps) {
    // Parallel. Check collinear overlap.
    if (std::abs(qp.cross(r)) > kEps) return std::nullopt;
    const double rr = r.dot(r);
    if (rr < kEps) {
      // `first` degenerates to a point; intersects if it lies on `second`.
      double t2 = 0.0;
      if (point_segment_distance(first.a, second, &t2) < 1e-9) {
        return SegmentIntersection{first.a, 0.0, t2};
      }
      return std::nullopt;
    }
    // Project second's endpoints onto first.
    double t0 = qp.dot(r) / rr;
    double t1 = (qp + s).dot(r) / rr;
    if (t0 > t1) std::swap(t0, t1);
    const double lo = std::max(0.0, t0);
    const double hi = std::min(1.0, t1);
    if (lo > hi) return std::nullopt;
    const Vec2 p = first.point_at(lo);
    double t2 = 0.0;
    point_segment_distance(p, second, &t2);
    return SegmentIntersection{p, lo, t2};
  }

  const double t = qp.cross(s) / denom;
  const double u = qp.cross(r) / denom;
  if (t < -kEps || t > 1.0 + kEps || u < -kEps || u > 1.0 + kEps) {
    return std::nullopt;
  }
  const double tc = std::clamp(t, 0.0, 1.0);
  const double uc = std::clamp(u, 0.0, 1.0);
  return SegmentIntersection{first.point_at(tc), tc, uc};
}

/// Conservative reach of intersect() (DESIGN.md §19): if intersect(first,
/// second) reports a hit, the two segments, taken as exact point sets, lie
/// closer than the returned distance. So a caller that finds the segments
/// farther apart than this may skip the call: it could not have been a hit.
///
/// Arguments are upper bounds on |first.b - first.a| (`len_first`),
/// |second.b - second.a| (`len_second`), |second.a - first.a| (`span`) and
/// every |coordinate| of the four endpoints (`coord`); `sin_lo` is a lower
/// bound on the sine of the angle between the two direction vectors as
/// intersect() computes them (0 when unknown). Returns +inf when no finite
/// bound holds (nearly parallel segments whose rounding can fake a crossing
/// at any distance, or non-finite input), so a "gap > reach" test is then
/// never taken.
double intersect_reach(double len_first, double len_second, double span,
                       double coord, double sin_lo = 0.0);

/// Parameters t (ascending, each in [0,1]) where the segment crosses the
/// circle boundary. 0, 1 or 2 entries.
struct CircleCrossings {
  int count{0};
  double t[2]{0.0, 0.0};
};
CircleCrossings segment_circle_crossings(const Segment& s, Vec2 center,
                                         double radius);

/// The sub-interval [t_enter, t_exit] of the segment (normalized parameters)
/// that lies inside the closed disk, or nullopt if the segment misses it.
struct IntervalD {
  double lo{0.0};
  double hi{0.0};
  double length() const { return hi - lo; }
};
std::optional<IntervalD> segment_in_circle_interval(const Segment& s,
                                                    Vec2 center, double radius);

/// Overlap of two closed intervals, or nullopt if disjoint.
std::optional<IntervalD> interval_overlap(IntervalD a, IntervalD b);

/// |a ∪ b| for closed intervals (sum of lengths minus overlap).
double interval_union_length(IntervalD a, IntervalD b);

}  // namespace erpd::geom
