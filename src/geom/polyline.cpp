#include "geom/polyline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.hpp"
#include "geom/aabb.hpp"

namespace erpd::geom {

Polyline::Polyline(std::vector<Vec2> points) : points_(std::move(points)) {
  rebuild_cum();
}

void Polyline::rebuild_cum() {
  cum_.resize(points_.size());
  if (points_.empty()) return;
  cum_[0] = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    cum_[i] = cum_[i - 1] + distance(points_[i - 1], points_[i]);
  }
}

void Polyline::push_back(Vec2 p) {
  points_.push_back(p);
  if (points_.size() == 1) {
    cum_.push_back(0.0);
  } else {
    cum_.push_back(cum_.back() + distance(points_[points_.size() - 2], p));
  }
}

std::pair<std::size_t, double> Polyline::locate(double s) const {
  ERPD_REQUIRE(!empty(), "Polyline::locate on degenerate polyline");
  // A single point has no segment; everything locates at its start.
  if (points_.size() == 1) return {0, 0.0};
  s = std::clamp(s, 0.0, length());
  // Upper bound over the cumulative table; segment i spans [cum_[i], cum_[i+1]].
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), s);
  std::size_t i = it == cum_.begin()
                      ? 0
                      : static_cast<std::size_t>(it - cum_.begin()) - 1;
  if (i >= points_.size() - 1) i = points_.size() - 2;
  ERPD_DCHECK(i + 1 < points_.size(),
              "Polyline::locate: segment index out of range: ", i);
  return {i, s - cum_[i]};
}

Vec2 Polyline::point_at(double s) const {
  const auto [i, off] = locate(s);
  if (i + 1 >= points_.size()) return points_[i];  // single-point polyline
  const double seg_len = cum_[i + 1] - cum_[i];
  if (seg_len <= 0.0) return points_[i];
  return lerp(points_[i], points_[i + 1], off / seg_len);
}

Vec2 Polyline::tangent_at(double s) const {
  auto [i, off] = locate(s);
  if (i + 1 >= points_.size()) return {};  // single-point polyline
  // Skip zero-length segments.
  while (i + 1 < points_.size() - 1 && cum_[i + 1] - cum_[i] <= 0.0) ++i;
  return (points_[i + 1] - points_[i]).normalized();
}

double Polyline::project(Vec2 p, double* dist_out) const {
  ERPD_REQUIRE(!points_.empty(), "Polyline::project on empty polyline");
  if (points_.size() == 1) {
    if (dist_out != nullptr) *dist_out = distance(p, points_[0]);
    return 0.0;
  }
  double best_d = std::numeric_limits<double>::infinity();
  double best_s = 0.0;
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    const Segment seg{points_[i], points_[i + 1]};
    double t = 0.0;
    const double d = point_segment_distance(p, seg, &t);
    if (d < best_d) {
      best_d = d;
      best_s = cum_[i] + t * (cum_[i + 1] - cum_[i]);
    }
  }
  if (dist_out != nullptr) *dist_out = best_d;
  return best_s;
}

Polyline Polyline::slice(double s0, double s1) const {
  if (empty()) return {};
  s0 = std::clamp(s0, 0.0, length());
  s1 = std::clamp(s1, s0, length());
  std::vector<Vec2> pts;
  pts.push_back(point_at(s0));
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (cum_[i] > s0 && cum_[i] < s1) pts.push_back(points_[i]);
  }
  pts.push_back(point_at(s1));
  return Polyline{std::move(pts)};
}

std::vector<IntervalD> Polyline::circle_intervals(Vec2 center,
                                                  double radius) const {
  std::vector<IntervalD> out;
  if (empty()) return out;
  bool open = false;
  double start = 0.0;
  double end = 0.0;
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    const Segment seg{points_[i], points_[i + 1]};
    const double seg_len = cum_[i + 1] - cum_[i];
    const auto iv = segment_in_circle_interval(seg, center, radius);
    if (!iv) {
      if (open) {
        out.push_back({start, end});
        open = false;
      }
      continue;
    }
    const double lo = cum_[i] + iv->lo * seg_len;
    const double hi = cum_[i] + iv->hi * seg_len;
    if (open && lo <= end + 1e-9) {
      end = hi;  // contiguous with the running interval
    } else {
      if (open) out.push_back({start, end});
      start = lo;
      end = hi;
      open = true;
    }
  }
  if (open) out.push_back({start, end});
  return out;
}

namespace {

/// What the first_crossing rejects need to know about a run of points.
struct Extent {
  Aabb box;
  /// Longest segment, as |dx| + |dy| (>= its Euclidean length).
  double max_segment{0.0};
  /// Largest |coordinate|.
  double coord{0.0};
  bool finite{true};
};

Extent extent_of(const std::vector<Vec2>& pts) {
  Extent e;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Vec2 p = pts[i];
    e.finite = e.finite && std::isfinite(p.x) && std::isfinite(p.y);
    e.box.expand(p);
    e.coord = std::max({e.coord, std::abs(p.x), std::abs(p.y)});
    if (i > 0) {
      const Vec2 d = p - pts[i - 1];
      e.max_segment = std::max(e.max_segment, std::abs(d.x) + std::abs(d.y));
    }
  }
  return e;
}

/// Lower bound on the distance between any point of `a` and any of `b`
/// (<= 0 when the boxes touch).
double box_gap(const Aabb& a, const Aabb& b) {
  return std::max({b.min.x - a.max.x, a.min.x - b.max.x, b.min.y - a.max.y,
                   a.min.y - b.max.y});
}

/// Upper bound on the distance between any point of `a` and any of `b`.
double box_span(const Aabb& a, const Aabb& b) {
  return (std::max(a.max.x, b.max.x) - std::min(a.min.x, b.min.x)) +
         (std::max(a.max.y, b.max.y) - std::min(a.min.y, b.min.y));
}

Aabb segment_box(Vec2 a, Vec2 b) {
  return {{std::min(a.x, b.x), std::min(a.y, b.y)},
          {std::max(a.x, b.x), std::max(a.y, b.y)}};
}

}  // namespace

std::optional<Polyline::Crossing> Polyline::first_crossing(
    const Polyline& other) const {
  if (empty() || other.empty()) return std::nullopt;
  // Rejects (DESIGN.md §19): a segment pair whose boxes are farther apart
  // than intersect_reach cannot report a hit, so skipping it leaves every
  // hit - and so the first one - unchanged. Non-finite input disables them.
  const Extent ea = extent_of(points_);
  const Extent eb = extent_of(other.points_);
  const bool rejects = ea.finite && eb.finite;
  const double coord = std::max(ea.coord, eb.coord);
  if (rejects &&
      box_gap(ea.box, eb.box) > intersect_reach(ea.max_segment, eb.max_segment,
                                                box_span(ea.box, eb.box),
                                                coord)) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i + 1 < points_.size(); ++i) {
    const Segment sa{points_[i], points_[i + 1]};
    // One reach serves the whole row: it bounds every segment of `other`.
    double reach = std::numeric_limits<double>::infinity();
    Aabb box_a;
    if (rejects) {
      box_a = segment_box(sa.a, sa.b);
      const Vec2 d = sa.b - sa.a;
      reach = intersect_reach(std::abs(d.x) + std::abs(d.y), eb.max_segment,
                              box_span(box_a, eb.box), coord);
      if (box_gap(box_a, eb.box) > reach) continue;
    }
    const double la = cum_[i + 1] - cum_[i];
    std::optional<Crossing> best;
    for (std::size_t j = 0; j + 1 < other.points_.size(); ++j) {
      const Segment sb{other.points_[j], other.points_[j + 1]};
      if (rejects && box_gap(box_a, segment_box(sb.a, sb.b)) > reach) continue;
      if (const auto hit = intersect(sa, sb)) {
        Crossing c;
        c.s_this = cum_[i] + hit->t_first * la;
        c.s_other = other.cum_[j] + hit->t_second * (other.cum_[j + 1] - other.cum_[j]);
        c.point = hit->point;
        if (!best || c.s_this < best->s_this) best = c;
      }
    }
    if (best) return best;  // earliest along this polyline
  }
  return std::nullopt;
}

Polyline Polyline::resampled(double step) const {
  if (empty() || step <= 0.0) return *this;
  std::vector<Vec2> pts;
  const double len = length();
  for (double s = 0.0; s < len; s += step) pts.push_back(point_at(s));
  pts.push_back(points_.back());
  return Polyline{std::move(pts)};
}

}  // namespace erpd::geom
