#pragma once
// Arc-length parameterized polyline.
//
// Lanes, crosswalks and predicted trajectories are all polylines; the
// simulator advances vehicles by arc length along their lane, and the
// relevance estimator walks predicted paths by arc length to compute passing
// times through the collision area.

#include <optional>
#include <vector>

#include "geom/segment.hpp"
#include "geom/vec2.hpp"

namespace erpd::geom {

class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<Vec2> points);

  const std::vector<Vec2>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.size() < 2; }

  /// Total arc length.
  double length() const { return cum_.empty() ? 0.0 : cum_.back(); }

  /// Point at arc length s (clamped to [0, length]).
  Vec2 point_at(double s) const;

  /// Unit tangent at arc length s (heading of the containing segment).
  Vec2 tangent_at(double s) const;
  double heading_at(double s) const { return tangent_at(s).heading(); }

  /// Closest point projection: returns arc length of the closest point.
  /// `dist_out`, if given, receives the distance from p to that point.
  double project(Vec2 p, double* dist_out = nullptr) const;

  /// Sub-polyline covering arc lengths [s0, s1] (clamped, s0 <= s1).
  Polyline slice(double s0, double s1) const;

  /// Append a point, extending the arc-length table.
  void push_back(Vec2 p);

  /// Arc-length intervals where the polyline is inside the closed disk.
  /// Multiple disjoint intervals are possible for winding paths.
  std::vector<IntervalD> circle_intervals(Vec2 center, double radius) const;

  /// First crossing between two polylines, as (arc length on this, arc length
  /// on other, point).
  ///
  /// Exactness contract: the result is bit-identical to walking every
  /// (segment of this, segment of other) pair in order through intersect()
  /// and keeping, for the first segment of this with any hit, the hit with
  /// the smallest s_this. Padded-AABB rejects - on the whole polylines, per
  /// segment of this, then per pair - skip only pairs that
  /// geom::intersect_reach proves cannot hit (DESIGN.md §19).
  struct Crossing {
    double s_this{0.0};
    double s_other{0.0};
    Vec2 point{};
  };
  std::optional<Crossing> first_crossing(const Polyline& other) const;

  /// Resample at approximately uniform spacing `step` (keeps endpoints).
  Polyline resampled(double step) const;

 private:
  std::vector<Vec2> points_;
  std::vector<double> cum_;  // cum_[i] = arc length at points_[i]

  void rebuild_cum();
  /// Segment index containing arc length s and the local offset within it.
  std::pair<std::size_t, double> locate(double s) const;
};

}  // namespace erpd::geom
