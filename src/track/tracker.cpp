#include "track/tracker.hpp"

#include <algorithm>
#include <limits>

#include "core/check.hpp"
#include "geom/angle.hpp"

namespace erpd::track {

namespace {

/// Kind is advisory (partial views of vehicles can look small), but a
/// confirmed pedestrian-sized track never merges with a car-sized detection
/// and vice versa when both are unambiguous.
bool kinds_compatible(const Track& tr, const Detection& de) {
  const bool ped_t = tr.kind == sim::AgentKind::kPedestrian;
  const bool ped_d = de.kind == sim::AgentKind::kPedestrian;
  return ped_t == ped_d || !(tr.max_extent > 1.6 && de.extent > 0.0);
}

}  // namespace

std::vector<Match> associate(const std::vector<Track>& tracks,
                             const std::vector<Detection>& detections,
                             double gate) {
  struct Pair {
    double d;
    std::size_t track;
    std::size_t detection;
  };
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const geom::Vec2 p = tracks[i].position();
    for (std::size_t j = 0; j < detections.size(); ++j) {
      if (!kinds_compatible(tracks[i], detections[j])) continue;
      const double d = distance(p, detections[j].position);
      if (d < gate) pairs.push_back({d, i, j});
    }
  }
  // The reference takes the smallest distance among free pairs, the lowest
  // (track, detection) on a tie. Pairs of free tracks never change, and a
  // taken endpoint never frees again, so the first free pair in this order
  // is always the one the reference takes next (DESIGN.md §20).
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.d != b.d) return a.d < b.d;
    if (a.track != b.track) return a.track < b.track;
    return a.detection < b.detection;
  });
  std::vector<bool> det_used(detections.size(), false);
  std::vector<bool> trk_used(tracks.size(), false);
  std::vector<Match> out;
  for (const Pair& pr : pairs) {
    if (trk_used[pr.track] || det_used[pr.detection]) continue;
    trk_used[pr.track] = true;
    det_used[pr.detection] = true;
    out.push_back({pr.track, pr.detection});
  }
  return out;
}

std::vector<Match> associate_reference(const std::vector<Track>& tracks,
                                       const std::vector<Detection>& detections,
                                       double gate) {
  std::vector<bool> det_used(detections.size(), false);
  std::vector<bool> trk_used(tracks.size(), false);
  std::vector<Match> out;
  while (true) {
    double best_d = gate;
    std::size_t best_tr = tracks.size();
    std::size_t best_de = detections.size();
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      if (trk_used[i]) continue;
      for (std::size_t j = 0; j < detections.size(); ++j) {
        if (det_used[j]) continue;
        if (!kinds_compatible(tracks[i], detections[j])) continue;
        const double d = distance(tracks[i].position(), detections[j].position);
        if (d < best_d) {
          best_d = d;
          best_tr = i;
          best_de = j;
        }
      }
    }
    if (best_tr == tracks.size()) break;
    ERPD_DCHECK(best_de < detections.size(),
                "tracker: association produced detection index ", best_de,
                " out of range ", detections.size());
    trk_used[best_tr] = true;
    det_used[best_de] = true;
    out.push_back({best_tr, best_de});
  }
  return out;
}

MultiObjectTracker::MultiObjectTracker(TrackerConfig cfg) : cfg_(cfg) {}

void MultiObjectTracker::step(const std::vector<Detection>& detections,
                              double t) {
  const double dt = last_t_ ? std::max(t - *last_t_, 1e-6) : 0.0;
  last_t_ = t;
  if (dt > 0.0) {
    for (Track& tr : tracks_) tr.filter.predict(dt);
  }

  // Greedy nearest-neighbour association within the gate. A match changes
  // only its own track, which is then taken, so matching in this order
  // equals fusing each pair as soon as it is chosen.
  const std::vector<Match> matches =
      reference_association_
          ? associate_reference(tracks_, detections, cfg_.gate)
          : associate(tracks_, detections, cfg_.gate);
  std::vector<bool> det_used(detections.size(), false);
  std::vector<bool> trk_used(tracks_.size(), false);
  for (const Match& m : matches) {
    trk_used[m.track] = true;
    det_used[m.detection] = true;

    Track& tr = tracks_[m.track];
    const Detection& de = detections[m.detection];
    if (de.velocity) {
      tr.filter.update(de.position, *de.velocity, cfg_.vel_meas_sigma);
    } else {
      tr.filter.update(de.position);
    }
    ++tr.hits;
    tr.misses = 0;
    tr.last_update = t;
    tr.payload_bytes = de.payload_bytes;
    tr.point_count = de.point_count;
    tr.max_extent = std::max(tr.max_extent, de.extent);
    // Yaw-rate estimation from the change of the velocity heading (EWMA).
    if (tr.filter.speed() > 1.0 && dt > 0.0) {
      const double h = tr.filter.velocity().heading();
      if (tr.has_prev_heading) {
        const double rate = geom::angle_diff(h, tr.prev_heading) / dt;
        tr.yaw_rate = 0.7 * tr.yaw_rate + 0.3 * rate;
      }
      tr.prev_heading = h;
      tr.has_prev_heading = true;
    }
    // A pedestrian-sized first view of a car corrects itself once any view
    // shows a car-sized footprint.
    if (tr.max_extent > 1.4) tr.kind = sim::AgentKind::kCar;
    if (de.truth_id != sim::kInvalidAgent) tr.truth_id = de.truth_id;
  }

  // Unmatched tracks age; stale ones die.
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (!trk_used[i]) ++tracks_[i].misses;
  }
  // Confirmed tracks may coast on prediction for max_coast_frames extra
  // frames before aging out (tentative tracks get no such grace).
  std::erase_if(tracks_, [this](const Track& tr) {
    const int limit =
        cfg_.max_misses + (tr.confirmed(cfg_) ? cfg_.max_coast_frames : 0);
    return tr.misses > limit;
  });

  // Unmatched detections start new tracks.
  for (std::size_t j = 0; j < detections.size(); ++j) {
    if (det_used[j]) continue;
    const Detection& de = detections[j];
    Track tr{next_id_++,
             de.kind,
             de.velocity ? KalmanCV(de.position, *de.velocity, cfg_.kalman)
                         : KalmanCV(de.position, cfg_.kalman),
             /*hits=*/1,
             /*misses=*/0,
             /*last_update=*/t,
             /*max_extent=*/de.extent,
             /*yaw_rate=*/0.0,
             /*prev_heading=*/0.0,
             /*has_prev_heading=*/false,
             de.payload_bytes,
             de.point_count,
             de.truth_id};
    tracks_.push_back(std::move(tr));
  }
}

std::vector<const Track*> MultiObjectTracker::confirmed() const {
  std::vector<const Track*> out;
  for (const Track& tr : tracks_) {
    if (tr.confirmed(cfg_)) out.push_back(&tr);
  }
  return out;
}

const Track* MultiObjectTracker::find(int track_id) const {
  for (const Track& tr : tracks_) {
    if (tr.id == track_id) return &tr;
  }
  return nullptr;
}

}  // namespace erpd::track
