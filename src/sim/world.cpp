#include "sim/world.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"

namespace erpd::sim {

using geom::Obb;
using geom::Vec2;

World::World(RoadNetwork network, WorldConfig cfg)
    : net_(std::move(network)),
      cfg_(cfg),
      signals_(cfg.signal),
      lidar_(cfg.lidar),
      rng_(core::seeded_rng(cfg.seed)),
      maneuver_planner_(cfg.maneuver) {}

AgentId World::add_vehicle(const VehicleParams& params, int route_id,
                           double start_s, double start_speed) {
  ERPD_REQUIRE(route_id >= 0 &&
                   static_cast<std::size_t>(route_id) < net_.routes().size(),
               "World::add_vehicle: route ", route_id, " out of range [0, ",
               net_.routes().size(), ")");
  ERPD_REQUIRE(start_speed >= 0.0,
               "World::add_vehicle: start_speed must be >= 0, got ",
               start_speed);
  const AgentId id = take_id();
  vehicles_.emplace_back(id, params, route_id, start_s, start_speed);
  return id;
}

AgentId World::schedule_vehicle(double spawn_time, const VehicleParams& params,
                                int route_id, double start_s,
                                double start_speed, int lane_change_direction,
                                double lane_change_trigger_s) {
  ERPD_REQUIRE(route_id >= 0 &&
                   static_cast<std::size_t>(route_id) < net_.routes().size(),
               "World::schedule_vehicle: route ", route_id,
               " out of range [0, ", net_.routes().size(), ")");
  ERPD_REQUIRE(spawn_time >= 0.0 && std::isfinite(spawn_time),
               "World::schedule_vehicle: spawn_time must be finite and >= 0, "
               "got ", spawn_time);
  ERPD_REQUIRE(start_speed >= 0.0,
               "World::schedule_vehicle: start_speed must be >= 0, got ",
               start_speed);
  ERPD_REQUIRE(lane_change_direction >= -1 && lane_change_direction <= 1,
               "World::schedule_vehicle: lane_change_direction must be in "
               "{-1, 0, 1}, got ", lane_change_direction);
  const AgentId id = take_id();
  pending_.push_back({spawn_time, params, route_id, start_s, start_speed, id,
                      lane_change_direction, lane_change_trigger_s});
  return id;
}

void World::materialize_pending_spawns() {
  if (pending_.empty()) return;
  std::vector<PendingVehicle> still_pending;
  still_pending.reserve(pending_.size());
  for (PendingVehicle& p : pending_) {
    bool spawn = p.spawn_time <= time_;
    if (spawn) {
      // Hold the spawn while the spot is blocked so a late spawn can never
      // materialize inside another vehicle (instant phantom collision).
      const geom::Vec2 pos = net_.route(p.route_id).path.point_at(p.start_s);
      for (const Vehicle& v : vehicles_) {
        if (v.finished(net_)) continue;
        if (distance(v.position(net_), pos) <
            p.params.dims.length + v.params().dims.length) {
          spawn = false;
          break;
        }
      }
    }
    if (!spawn) {
      still_pending.push_back(std::move(p));
      continue;
    }
    vehicles_.emplace_back(p.id, p.params, p.route_id, p.start_s,
                           p.start_speed);
    if (p.lane_change_direction != 0) {
      vehicles_.back().set_lane_change_directive(p.lane_change_direction,
                                                 p.lane_change_trigger_s);
    }
  }
  pending_ = std::move(still_pending);
}

AgentId World::add_pedestrian(const PedestrianParams& params,
                              geom::Polyline path, double start_s) {
  const AgentId id = take_id();
  pedestrians_.emplace_back(id, params, std::move(path), start_s);
  return id;
}

void World::add_static_obstacle(const geom::Obb& footprint, double height) {
  statics_.push_back({footprint, height});
}

Vehicle* World::find_vehicle(AgentId id) {
  for (Vehicle& v : vehicles_) {
    if (v.id() == id) return &v;
  }
  return nullptr;
}

const Vehicle* World::find_vehicle(AgentId id) const {
  for (const Vehicle& v : vehicles_) {
    if (v.id() == id) return &v;
  }
  return nullptr;
}

const Pedestrian* World::find_pedestrian(AgentId id) const {
  for (const Pedestrian& p : pedestrians_) {
    if (p.id() == id) return &p;
  }
  return nullptr;
}

std::size_t World::pair_slot(AgentId lo, AgentId hi) {
  const auto h = static_cast<std::size_t>(hi);
  return h * (h - 1) / 2 + static_cast<std::size_t>(lo);
}

AgentId World::take_id() {
  const AgentId id = next_id_++;
  // The table's rows are ids, each holding the pairs with every lower id,
  // so a new id appends its row and no existing slot moves.
  pair_min_dist_.resize(pair_slot(0, next_id_),
                        std::numeric_limits<double>::infinity());
  return id;
}

double World::delayed_speed(AgentId id, double delay) const {
  const auto it = speed_hist_.find(id);
  if (it == speed_hist_.end() || it->second.empty()) {
    const Vehicle* v = find_vehicle(id);
    return v != nullptr ? v->speed() : 0.0;
  }
  const double want = time_ - delay;
  // History is ordered by time; return the newest sample not after `want`.
  double best = it->second.front().second;
  for (const auto& [t, v] : it->second) {
    if (t <= want) {
      best = v;
    } else {
      break;
    }
  }
  return best;
}

std::optional<std::size_t> World::find_leader(std::size_t vi) const {
  const Vehicle& me = vehicles_[vi];
  const geom::Polyline& path = net_.route(me.route_id()).path;
  const double my_s = me.s();
  std::optional<std::size_t> best;
  double best_gap = cfg_.leader_lookahead;
  for (std::size_t j = 0; j < vehicles_.size(); ++j) {
    if (j == vi) continue;
    const Vehicle& other = vehicles_[j];
    if (vehicle_finished(j)) continue;
    double lateral = 0.0;
    const double s_other = path.project(vehicle_position(j), &lateral);
    if (lateral > net_.config().lane_width * 0.5) continue;
    const double center_gap = s_other - my_s;
    if (center_gap <= 0.0) continue;
    const double gap = center_gap - 0.5 * me.params().dims.length -
                       0.5 * other.params().dims.length;
    if (gap < best_gap) {
      best_gap = gap;
      best = j;
    }
  }
  return best;
}

std::optional<World::HazardState> World::hazard_state(
    AgentId hazard_id) const {
  // Current hazard kinematics (ground truth of the agent, as a driver who is
  // aware of it would estimate).
  if (reference_geometry_) {
    if (const Vehicle* hv = find_vehicle(hazard_id)) {
      if (hv->finished(net_) || hv->params().parked) return std::nullopt;
      return HazardState{hv->position(net_), hv->velocity(net_),
                         hv->params().dims.length};
    }
    if (const Pedestrian* hp = find_pedestrian(hazard_id)) {
      if (hp->finished()) return std::nullopt;
      return HazardState{hp->position(), hp->velocity(),
                         hp->params().dims.length};
    }
    return std::nullopt;
  }
  if (hazard_id < 0 || static_cast<std::size_t>(hazard_id) >= slot_of_.size()) {
    return std::nullopt;
  }
  const std::int32_t slot = slot_of_[static_cast<std::size_t>(hazard_id)];
  if (slot < 0) return std::nullopt;
  const AgentGeom& g = geom_[static_cast<std::size_t>(slot)];
  if (g.finished) return std::nullopt;
  // velocity() is from_heading(heading) * speed, and the box cached exactly
  // that unit vector as its axis.
  if (static_cast<std::size_t>(slot) < vehicles_.size()) {
    const Vehicle& hv = vehicles_[static_cast<std::size_t>(slot)];
    if (hv.params().parked) return std::nullopt;
    return HazardState{g.box.center(), g.box.axis() * hv.speed(),
                       hv.params().dims.length};
  }
  const Pedestrian& hp =
      pedestrians_[static_cast<std::size_t>(slot) - vehicles_.size()];
  return HazardState{g.box.center(), g.box.axis() * hp.speed(),
                     hp.params().dims.length};
}

std::optional<World::ConflictInfo> World::hazard_conflict(
    const Vehicle& me, AgentId hazard_id,
    std::optional<geom::Polyline>& ahead) const {
  const auto hazard = hazard_state(hazard_id);
  if (!hazard) return std::nullopt;
  const Vec2 hpos = hazard->position;
  const Vec2 hvel = hazard->velocity;
  const double hlen = hazard->length;

  if (!ahead || reference_geometry_) {
    const geom::Polyline& path = net_.route(me.route_id()).path;
    const double lookahead =
        std::max(25.0, me.speed() * cfg_.hazard_horizon + 15.0);
    ahead = path.slice(me.s(), me.s() + lookahead);
  }
  if (ahead->empty()) return std::nullopt;

  const double hspeed = hvel.norm();
  const double my_speed = std::max(me.speed(), 0.5);
  if (hspeed < 0.3) {
    // (Nearly) stationary hazard sitting on my path: conflict at its
    // location; it is "at" the conflict point now (t_hazard = 0).
    double lateral = 0.0;
    const double s_on = ahead->project(hpos, &lateral);
    if (lateral > 0.5 * (me.params().dims.width + hlen)) return std::nullopt;
    return ConflictInfo{me.s() + s_on, s_on / my_speed, 0.0};
  }

  // Moving hazard: straight-line projection. The projected path stops just
  // past the hazard's current reach so that a hazard that has already
  // passed the crossing no longer conflicts.
  const geom::Polyline hpath{
      {hpos,
       hpos + hvel.normalized() * (hspeed * (cfg_.hazard_horizon + 3.0) + hlen)}};
  const auto crossing = ahead->first_crossing(hpath);
  if (!crossing) return std::nullopt;
  return ConflictInfo{me.s() + crossing->s_this, crossing->s_this / my_speed,
                      crossing->s_other / hspeed};
}

double World::control_vehicle(std::size_t my_index) {
  Vehicle& me = vehicles_[my_index];
  const Route& route = net_.route(me.route_id());
  const IdmModel& idm = me.params().idm;

  // 1) Car following with reaction-delayed leader speed.
  double accel = idm.acceleration(me.speed(), 0.0, IdmModel::free_road());
  if (const auto leader = find_leader(my_index)) {
    const Vehicle& lead = vehicles_[*leader];
    const geom::Polyline& path = route.path;
    const double s_lead = path.project(vehicle_position(*leader));
    const double gap = s_lead - me.s() - 0.5 * me.params().dims.length -
                       0.5 * lead.params().dims.length;
    const double v_lead_seen =
        delayed_speed(lead.id(), me.params().reaction_time);
    accel = std::min(
        accel, idm.acceleration(me.speed(), v_lead_seen, std::max(gap, 0.05)));
  }

  // Inattentive drivers execute the car-following command they computed one
  // reaction time ago (human output delay). Attentive drivers (and the
  // automated controller baseline) react instantly.
  if (!me.params().attentive) {
    auto& hist = follow_accel_hist_[me.id()];
    hist.emplace_back(time_, accel);
    while (!hist.empty() && hist.front().first < time_ - 3.0) hist.pop_front();
    const double want = time_ - me.params().reaction_time;
    double delayed = hist.front().second;
    for (const auto& [ht, ha] : hist) {
      if (ht <= want) {
        delayed = ha;
      } else {
        break;
      }
    }
    accel = delayed;
  }

  // 2) Traffic signal at the stop line.
  if (!me.params().runs_red_light && me.s() < route.stop_line_s) {
    const auto light = signals_.state(route.entry_arm, time_);
    bool must_stop = light == SignalController::Light::kRed;
    if (light == SignalController::Light::kYellow) {
      const double dist = route.stop_line_s - me.s();
      const double comfort_stop =
          me.speed() * me.speed() / (2.0 * idm.comfort_decel);
      must_stop = dist > comfort_stop;  // stop if we comfortably can
    }
    if (must_stop) {
      const double gap =
          route.stop_line_s - me.s() - 0.5 * me.params().dims.length;
      accel = std::min(accel,
                       idm.acceleration(me.speed(), 0.0, std::max(gap, 0.05)));
    }
  }

  // 3) Hazard reaction: hard brake `reaction_time` after becoming aware of a
  //    conflicting object. Per the paper's evaluation setup, awareness comes
  //    from disseminated perception data; own-sensor sightings only count
  //    when react_to_visible_hazards is enabled.
  const bool reacts_to_visible =
      me.params().attentive || cfg_.react_to_visible_hazards;
  std::optional<geom::Polyline> ahead;  // sliced at the first hazard needing it
  for (const auto& [hazard_id, knowledge] : me.known_hazards()) {
    if (!knowledge.from_dissemination && !reacts_to_visible) continue;
    if (time_ - knowledge.aware_since < me.params().reaction_time) continue;

    const auto conflict = hazard_conflict(me, hazard_id, ahead);

    // Yield-latch policy: start yielding when the conflict is imminent;
    // hold a fixed stop target until the hazard clears the crossing (the
    // geometric conflict disappears); never creep forward on momentary TTC
    // fluctuation.
    if (me.yielding_to(hazard_id)) {
      if (!conflict) {
        me.end_yield(hazard_id);
        continue;
      }
    } else {
      if (!conflict) continue;
      const bool imminent = conflict->t_me < cfg_.hazard_horizon &&
                            conflict->t_hazard < cfg_.hazard_horizon &&
                            std::abs(conflict->t_me - conflict->t_hazard) <
                                cfg_.conflict_margin + 2.0;
      if (!imminent) continue;
      me.start_yield(hazard_id,
                     conflict->s_conflict - 6.0 - 0.5 * me.params().dims.length);
    }

    const double stop_gap = me.yield_stop_s(hazard_id) - me.s();
    if (stop_gap > 0.3) {
      accel = std::min(accel, idm.acceleration(me.speed(), 0.0, stop_gap));
    } else if (me.speed() > 0.5 &&
               conflict->s_conflict - me.s() > 0.5 * me.params().dims.length) {
      // Past the planned stop point but not yet in the conflict area:
      // emergency brake.
      accel = -me.params().max_brake;
    }
    // Else: inside/at the conflict area already - committed, keep moving.
  }
  return accel;
}

void World::build_geometry() {
  if (reference_geometry_) return;
  const std::size_t nv = vehicles_.size();
  geom_.resize(nv + pedestrians_.size());
  slot_of_.assign(static_cast<std::size_t>(next_id_), -1);
  for (std::size_t i = 0; i < nv; ++i) {
    const Vehicle& v = vehicles_[i];
    geom_[i] = {v.obb(net_), v.finished(net_)};
    slot_of_[static_cast<std::size_t>(v.id())] = static_cast<std::int32_t>(i);
  }
  for (std::size_t i = 0; i < pedestrians_.size(); ++i) {
    const Pedestrian& p = pedestrians_[i];
    geom_[nv + i] = {p.obb(), p.finished()};
    slot_of_[static_cast<std::size_t>(p.id())] =
        static_cast<std::int32_t>(nv + i);
  }
}

Vec2 World::vehicle_position(std::size_t i) const {
  return reference_geometry_ ? vehicles_[i].position(net_)
                             : geom_[i].box.center();
}

Obb World::vehicle_box(std::size_t i) const {
  return reference_geometry_ ? vehicles_[i].obb(net_) : geom_[i].box;
}

bool World::vehicle_finished(std::size_t i) const {
  return reference_geometry_ ? vehicles_[i].finished(net_) : geom_[i].finished;
}

Obb World::pedestrian_box(std::size_t i) const {
  return reference_geometry_ ? pedestrians_[i].obb()
                             : geom_[vehicles_.size() + i].box;
}

bool World::pedestrian_finished(std::size_t i) const {
  return reference_geometry_ ? pedestrians_[i].finished()
                             : geom_[vehicles_.size() + i].finished;
}

void World::sense_hazards_reference() {
  for (Vehicle& v : vehicles_) {
    if (v.params().parked || v.crashed() || v.finished(net_)) continue;
    for (const Vehicle& other : vehicles_) {
      if (other.id() == v.id() || other.params().parked) continue;
      if (other.finished(net_) || other.crashed()) continue;
      if (agent_visible_from(v.id(), other.id())) {
        v.learn_hazard(other.id(), time_, false);
      }
    }
    for (const Pedestrian& p : pedestrians_) {
      if (p.finished()) continue;
      if (agent_visible_from(v.id(), p.id())) {
        v.learn_hazard(p.id(), time_, false);
      }
    }
  }
}

namespace {

/// One occluder footprint prepared once per step for the sight-line tests.
struct Occluder {
  Obb box;
  /// Circumradius, 0.5 * sqrt(length^2 + width^2).
  double radius;
  /// Smallest sine between a sight line and the box axes at which the
  /// circumradius reject is taken (see sight_misses).
  double sin_guard;
  /// Vehicle slot of this occluder, or kStaticSlot for static scenery.
  std::size_t slot;
};

constexpr std::size_t kStaticSlot = std::numeric_limits<std::size_t>::max();

Occluder make_occluder(const Obb& box, std::size_t slot, double coord) {
  constexpr double kU = 0x1p-53;
  const double short_side = std::min(box.length(), box.width());
  // Allowance for the computed edges' direction against the exact axes:
  // each corner carries at most ~3u*coord of rounding.
  const double guard = short_side > 0.0
                           ? 1e-6 + 8.0 * kU * coord / short_side + 8.0 * kU
                           : std::numeric_limits<double>::infinity();
  return {box,
          0.5 * std::sqrt(box.length() * box.length() +
                          box.width() * box.width()),
          guard, slot};
}

/// True only if no edge of `o` can report an intersect() hit with `ray`, so
/// Obb::ray_hit would return a miss (the eye-inside case is tested by the
/// caller first). The box lies inside its circumcircle; if the ray passes farther
/// from the centre than radius + margin and its direction is at least
/// sin_guard away from both box axes, geom::intersect_reach bounds every
/// edge hit to within `margin` of the ray (DESIGN.md §19). `dir` is the
/// ray's direction vector and `len` its length.
bool sight_misses(const Occluder& o, const geom::Segment& ray, Vec2 dir,
                  double len, double margin) {
  // The gap between the ray's bounding box and the circle's is a lower
  // bound on their distance; the exact distance is taken only when it is
  // not enough.
  const Vec2 c = o.box.center();
  const double reach = o.radius + margin;
  const bool apart =
      std::max({c.x - reach - std::max(ray.a.x, ray.b.x),
                std::min(ray.a.x, ray.b.x) - (c.x + reach),
                c.y - reach - std::max(ray.a.y, ray.b.y),
                std::min(ray.a.y, ray.b.y) - (c.y + reach)}) > 0.0;
  if (!apart && !(geom::point_segment_distance(c, ray) > reach)) return false;
  // A zero-length ray passes this guard (0 >= 0): it takes intersect()'s
  // point branch, whose reach is 1e-9 whatever the angle.
  const Vec2 axis = o.box.axis();
  return std::min(std::abs(dir.cross(axis)), std::abs(dir.dot(axis))) >=
         o.sin_guard * len;
}

}  // namespace

void World::sense_hazards() {
  if (reference_geometry_) {
    sense_hazards_reference();
    return;
  }
  const std::size_t nv = vehicles_.size();

  // Bound every coordinate a sight test touches, for the reject margin.
  double coord = 0.0;
  bool finite = true;
  const auto bound = [&](double c) {
    finite = finite && std::isfinite(c);
    coord = std::max(coord, std::abs(c));
  };
  for (const AgentGeom& g : geom_) {
    bound(g.box.center().x);
    bound(g.box.center().y);
  }
  const auto bound_box = [&](const Obb& b) {
    bound(std::abs(b.center().x) + b.length() + b.width());
    bound(std::abs(b.center().y) + b.length() + b.width());
  };

  // The reference occluder list for a (viewer, target) pair is every
  // unfinished vehicle but those two, then the static scenery. Visibility is
  // an AND over that list, so one list per step with both skipped by slot
  // gives the same answer.
  std::vector<Occluder> occluders;
  occluders.reserve(nv + statics_.size());
  for (std::size_t i = 0; i < nv; ++i) {
    if (!geom_[i].finished) bound_box(geom_[i].box);
  }
  for (const StaticObstacle& st : statics_) bound_box(st.footprint);
  if (!finite) coord = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < nv; ++i) {
    if (geom_[i].finished) continue;
    occluders.push_back(make_occluder(geom_[i].box, i, coord));
  }
  for (const StaticObstacle& st : statics_) {
    occluders.push_back(make_occluder(st.footprint, kStaticSlot, coord));
  }
  // Every sight line is at most 3 * coord long, every edge at most coord,
  // and the guard in sight_misses keeps the sine to each edge >= 1e-6. The
  // factor 2 covers the rounding of the centre distance and of the corners
  // (a few u * coord, far below the reach's 4e-6 floor).
  const double margin =
      2.0 * geom::intersect_reach(3.0 * coord, coord, 3.0 * coord, coord, 1e-6);

  // Viewers run on the pool, a chunk of them at a time. A viewer writes only
  // its own known_hazards and reads the geometry fixed above, so the result
  // does not depend on the chunking or the schedule. Each chunk holds its
  // own per-viewer scratch: the occluders' edges and eye-inside flags, whose
  // ray_hit equals Obb::ray_hit for every ray from that eye.
  const std::size_t targets = nv + pedestrians_.size();
  // About kOccluderTestsPerChunk (target, occluder) tests per chunk; most
  // are circumradius rejects of a few ns.
  constexpr std::size_t kOccluderTestsPerChunk = 16384;
  const std::size_t grain = std::max<std::size_t>(
      1, kOccluderTestsPerChunk / (targets * occluders.size() + 1));
  core::parallel_chunks(nv, grain, [&](std::size_t begin, std::size_t end,
                                       std::size_t) {
    geom::ObbRaySoa from_eye;
    for (std::size_t vi = begin; vi < end; ++vi) {
      Vehicle& v = vehicles_[vi];
      if (v.params().parked || v.crashed() || geom_[vi].finished) continue;
      const Vec2 eye = geom_[vi].box.center();
      from_eye.clear();
      for (const Occluder& o : occluders) from_eye.add(o.box, eye);
      const auto visible = [&](std::size_t target_slot, Vec2 tpos) {
        if (distance(eye, tpos) > cfg_.sensor_range) return false;
        const geom::Segment ray{eye, tpos};
        const Vec2 dir = tpos - eye;
        const double len = dir.norm();
        for (std::size_t k = 0; k < occluders.size(); ++k) {
          const Occluder& o = occluders[k];
          if (o.slot == vi || o.slot == target_slot) continue;
          if (!from_eye.eye_inside(k) &&
              sight_misses(o, ray, dir, len, margin)) {
            continue;
          }
          const double t = from_eye.ray_hit(k, ray);
          if (t >= 0.0 && t < 1.0) return false;
        }
        return true;
      };
      for (std::size_t oi = 0; oi < nv; ++oi) {
        const Vehicle& other = vehicles_[oi];
        if (oi == vi || other.params().parked) continue;
        if (geom_[oi].finished || other.crashed()) continue;
        if (visible(oi, geom_[oi].box.center())) {
          v.learn_hazard(other.id(), time_, false);
        }
      }
      for (std::size_t pi = 0; pi < pedestrians_.size(); ++pi) {
        const AgentGeom& g = geom_[nv + pi];
        if (g.finished) continue;
        if (visible(nv + pi, g.box.center())) {
          v.learn_hazard(pedestrians_[pi].id(), time_, false);
        }
      }
    }
  });
}

void World::step() {
  materialize_pending_spawns();

  // Maneuver layer (off by default): advance each vehicle's lateral state
  // machine against the pre-step world, in storage order. A committed lane
  // change mutates that vehicle's route before later vehicles observe gaps —
  // sequential and deterministic, like the control loop below.
  if (cfg_.maneuver.enabled) {
    for (Vehicle& v : vehicles_) {
      if (v.params().parked || v.crashed() || v.finished(net_)) continue;
      maneuver_planner_.update(v, net_, vehicles_, signals_, time_);
    }
  }

  // Poses are fixed from here until integration.
  build_geometry();
  sense_hazards();

  // Compute controls against the pre-step state, then integrate.
  std::vector<double> accels(vehicles_.size(), 0.0);
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    const Vehicle& v = vehicles_[i];
    if (v.params().parked || v.crashed() || vehicle_finished(i)) continue;
    accels[i] = control_vehicle(i);
  }
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    if (vehicle_finished(i)) continue;
    vehicles_[i].advance(accels[i], cfg_.dt);
  }
  for (Pedestrian& p : pedestrians_) {
    if (!p.finished()) p.advance(cfg_.dt);
  }

  time_ += cfg_.dt;

  // Record speed history for delayed perception.
  for (const Vehicle& v : vehicles_) {
    auto& hist = speed_hist_[v.id()];
    hist.emplace_back(time_, v.speed());
    while (!hist.empty() && hist.front().first < time_ - 3.0) {
      hist.pop_front();
    }
  }

  build_geometry();
  detect_collisions();
  update_pair_distances();
}

void World::detect_collisions() {
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    Vehicle& a = vehicles_[i];
    if (vehicle_finished(i)) continue;
    const Obb box_a = vehicle_box(i);
    for (std::size_t j = i + 1; j < vehicles_.size(); ++j) {
      Vehicle& b = vehicles_[j];
      if (vehicle_finished(j)) continue;
      if (a.crashed() && b.crashed()) continue;
      if (box_a.overlaps(vehicle_box(j))) {
        collisions_.push_back(
            {a.id(), b.id(), time_,
             (vehicle_position(i) + vehicle_position(j)) * 0.5});
        a.mark_crashed();
        b.mark_crashed();
      }
    }
    for (std::size_t pi = 0; pi < pedestrians_.size(); ++pi) {
      if (pedestrian_finished(pi)) continue;
      if (a.crashed()) continue;
      const Obb box_p = pedestrian_box(pi);
      if (box_a.overlaps(box_p)) {
        collisions_.push_back({a.id(), pedestrians_[pi].id(), time_,
                               (vehicle_position(i) + box_p.center()) * 0.5});
        a.mark_crashed();
      }
    }
  }
}

void World::update_pair_distances() {
  const std::size_t nv = vehicles_.size();
  const std::size_t np = pedestrians_.size();
  // Row i measures vehicle i against every later vehicle, then every
  // pedestrian, so each unordered pair, and with it each table slot, is
  // written by exactly one row; the rows run on the pool. Each row keeps its
  // own two minima, folded below. min is exact and order-free, so the table
  // and both global minima equal those of the pair-by-pair walk.
  struct RowMin {
    double vehicle{std::numeric_limits<double>::infinity()};
    double pedestrian{std::numeric_limits<double>::infinity()};
  };
  std::vector<RowMin> row_min(nv);
  const auto row = [&](std::size_t i) {
    const Vehicle& a = vehicles_[i];
    if (vehicle_finished(i) || a.params().parked) return;
    const Obb box_a = vehicle_box(i);
    RowMin& m = row_min[i];
    const auto put = [&](AgentId other, double d) {
      double& slot =
          pair_min_dist_[pair_slot(std::min(a.id(), other),
                                   std::max(a.id(), other))];
      slot = std::min(slot, d);
    };
    for (std::size_t j = i + 1; j < nv; ++j) {
      const Vehicle& b = vehicles_[j];
      if (vehicle_finished(j) || b.params().parked) continue;
      const double d = box_a.distance_to(vehicle_box(j));
      put(b.id(), d);
      m.vehicle = std::min(m.vehicle, d);
    }
    for (std::size_t pi = 0; pi < np; ++pi) {
      if (pedestrian_finished(pi)) continue;
      const double d = box_a.distance_to(pedestrian_box(pi));
      put(pedestrians_[pi].id(), d);
      m.pedestrian = std::min(m.pedestrian, d);
    }
  };
  // About kPairsPerChunk distances (~90 ns each) per chunk.
  constexpr std::size_t kPairsPerChunk = 1024;
  core::parallel_for(
      nv, std::max<std::size_t>(1, kPairsPerChunk / (nv / 2 + np + 1)), row);
  for (const RowMin& m : row_min) {
    global_min_distance_ = std::min(global_min_distance_, m.vehicle);
    global_min_ped_distance_ = std::min(global_min_ped_distance_, m.pedestrian);
  }
}

std::vector<LidarTarget> World::lidar_targets(AgentId exclude) const {
  std::vector<LidarTarget> out;
  out.reserve(vehicles_.size() + pedestrians_.size() + statics_.size());
  for (const Vehicle& v : vehicles_) {
    if (v.id() == exclude || v.finished(net_)) continue;
    out.push_back({v.obb(net_), 0.0, v.params().dims.height, v.id()});
  }
  for (const Pedestrian& p : pedestrians_) {
    if (p.id() == exclude || p.finished()) continue;
    out.push_back({p.obb(), 0.0, p.params().dims.height, p.id()});
  }
  AgentId static_id = -2;
  for (const StaticObstacle& s : statics_) {
    out.push_back({s.footprint, 0.0, s.height, static_id--});
  }
  return out;
}

LidarScan World::scan_from(AgentId vehicle_id) const {
  const Vehicle* v = find_vehicle(vehicle_id);
  if (v == nullptr) return {};
  const auto targets = lidar_targets(vehicle_id);
  // Per-scan RNG seeded from (world seed, vehicle, tick): the noise stream
  // is a pure function of who scans when, never of which other vehicles
  // scanned first — scans can run concurrently and stay deterministic.
  const auto tick = static_cast<std::uint64_t>(std::llround(time_ / cfg_.dt));
  std::mt19937_64 scan_rng = core::seeded_rng(core::seed_mix(
      cfg_.seed, static_cast<std::uint64_t>(vehicle_id), tick));
  return lidar_.scan(v->sensor_pose(net_, cfg_.sensor_height), targets,
                     scan_rng);
}

bool World::agent_visible_from(AgentId viewer, AgentId target) const {
  const Vehicle* ve = find_vehicle(viewer);
  if (ve == nullptr) return false;
  const Vec2 eye = ve->position(net_);

  Vec2 tpos;
  if (const Vehicle* tv = find_vehicle(target)) {
    if (tv->finished(net_)) return false;
    tpos = tv->position(net_);
  } else if (const Pedestrian* tp = find_pedestrian(target)) {
    if (tp->finished()) return false;
    tpos = tp->position();
  } else {
    return false;
  }

  if (distance(eye, tpos) > cfg_.sensor_range) return false;

  std::vector<Obb> occluders;
  occluders.reserve(vehicles_.size() + statics_.size());
  for (const Vehicle& v : vehicles_) {
    if (v.id() == viewer || v.id() == target || v.finished(net_)) continue;
    occluders.push_back(v.obb(net_));
  }
  for (const StaticObstacle& s : statics_) occluders.push_back(s.footprint);
  // Pedestrians are too small to occlude vehicles meaningfully.
  return line_of_sight(eye, tpos, occluders);
}

void World::notify_vehicle(AgentId vehicle, AgentId hazard) {
  if (Vehicle* v = find_vehicle(vehicle)) {
    v->learn_hazard(hazard, time_, true);
  }
}

bool World::agent_crashed(AgentId id) const {
  for (const CollisionEvent& c : collisions_) {
    if (c.a == id || c.b == id) return true;
  }
  return false;
}

double World::min_pair_distance(AgentId a, AgentId b) const {
  if (a == b || a < 0 || b < 0 || a >= next_id_ || b >= next_id_) {
    return std::numeric_limits<double>::infinity();
  }
  return pair_min_dist_[pair_slot(std::min(a, b), std::max(a, b))];
}

std::vector<AgentSnapshot> World::snapshot() const {
  std::vector<AgentSnapshot> out;
  out.reserve(vehicles_.size() + pedestrians_.size());
  for (const Vehicle& v : vehicles_) {
    if (v.finished(net_)) continue;
    out.push_back({v.id(), v.params().kind, v.position(net_), v.heading(net_),
                   v.velocity(net_), v.params().dims, v.params().connected,
                   v.params().parked});
  }
  for (const Pedestrian& p : pedestrians_) {
    if (p.finished()) continue;
    out.push_back({p.id(), AgentKind::kPedestrian, p.position(), p.heading(),
                   p.velocity(), p.params().dims, false, false});
  }
  return out;
}

bool World::passed_intersection(AgentId vehicle_id) const {
  const Vehicle* v = find_vehicle(vehicle_id);
  if (v == nullptr) return false;
  return v->s() >= net_.route(v->route_id()).box_exit_s;
}

}  // namespace erpd::sim
