#include "sim/scenario_gen.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <random>
#include <type_traits>
#include <utility>

#include "core/check.hpp"
#include "core/rng.hpp"

namespace erpd::sim {

using geom::Polyline;
using geom::Vec2;

namespace {

// Domain-separation constant folded into the scenario seed so the generator
// stream never collides with the world's own per-seed streams.
constexpr std::uint64_t kGenStream = 0x5ce7a810c0ffee01ull;

// Generated specs are defined over the default road geometry; the builder
// and the validator both pin this so a committed anchor can never silently
// re-interpret its lane indices against a different map.
RoadConfig spec_road_config() { return RoadConfig{}; }

VehicleParams spawn_params(const SpawnSpec& sp) {
  VehicleParams p;
  p.kind = sp.kind;
  p.dims = default_dims(sp.kind);
  p.idm.desired_speed = sp.desired_speed;
  p.connected = sp.connected;
  return p;
}

VehicleParams occluder_params(const OccluderSpec& oc) {
  VehicleParams p;
  p.kind = AgentKind::kTruck;
  p.dims = default_dims(AgentKind::kTruck);
  p.dims.length = oc.length;
  p.parked = true;
  return p;
}

/// Crossing pedestrians walk the arm's crosswalk, optionally reversed, with
/// the start extended back onto the sidewalk by 4 m plus the spec's lead-in
/// offset — that is what staggers when each one steps into the roadway.
Polyline crossing_path(const RoadNetwork& net, const PedSpec& pd) {
  const Polyline& cw = net.crosswalk(pd.arm).path;
  std::vector<Vec2> pts;
  pts.reserve(cw.points().size() + 1);
  if (pd.reverse) {
    const Vec2 end = cw.points().back();
    const Vec2 dir = (cw.points().front() - end).normalized();
    pts.push_back(end - dir * (4.0 + pd.start_offset));
    for (auto it = cw.points().rbegin(); it != cw.points().rend(); ++it) {
      pts.push_back(*it);
    }
  } else {
    const Vec2 start = cw.points().front();
    const Vec2 dir = (cw.points().back() - start).normalized();
    pts.push_back(start - dir * (4.0 + pd.start_offset));
    for (const Vec2& p : cw.points()) pts.push_back(p);
  }
  return Polyline{std::move(pts)};
}

/// Sidewalk pedestrians walk parallel to the arm between curb and facades
/// (pipeline load only; they never enter the roadway).
Polyline sidewalk_path(const RoadNetwork& net, const PedSpec& pd) {
  const double road_half =
      net.config().lanes_per_direction * net.config().lane_width;
  const double sidewalk = road_half + 3.8;
  const Vec2 u = RoadNetwork::arm_direction(pd.arm);
  const Vec2 perp = u.perp() * (pd.east_side ? 1.0 : -1.0);
  Vec2 a = u * (12.0 + pd.start_offset) + perp * sidewalk;
  Vec2 b = u * 70.0 + perp * sidewalk;
  if (pd.reverse) std::swap(a, b);
  return Polyline{{a, b}};
}

}  // namespace

void GenConfig::validate() const {
  ERPD_REQUIRE(min_vehicles >= 0 && max_vehicles >= min_vehicles &&
                   max_vehicles <= 500,
               "GenConfig: vehicle range [", min_vehicles, ", ", max_vehicles,
               "] must satisfy 0 <= min <= max <= 500");
  ERPD_REQUIRE(std::isfinite(min_speed_kmh) && std::isfinite(max_speed_kmh) &&
                   min_speed_kmh > 0.0 && max_speed_kmh >= min_speed_kmh &&
                   max_speed_kmh <= 120.0,
               "GenConfig: speed range [", min_speed_kmh, ", ", max_speed_kmh,
               "] km/h must satisfy 0 < min <= max <= 120");
  ERPD_REQUIRE(std::isfinite(min_connected) && std::isfinite(max_connected) &&
                   min_connected >= 0.0 && max_connected >= min_connected &&
                   max_connected <= 1.0,
               "GenConfig: connected range [", min_connected, ", ",
               max_connected, "] must satisfy 0 <= min <= max <= 1");
  ERPD_REQUIRE(max_pedestrians >= 0 && max_pedestrians <= 200,
               "GenConfig: max_pedestrians must be in [0, 200], got ",
               max_pedestrians);
  ERPD_REQUIRE(max_occluders >= 0 && max_occluders <= 50,
               "GenConfig: max_occluders must be in [0, 50], got ",
               max_occluders);
  ERPD_REQUIRE(std::isfinite(max_spawn_time) && max_spawn_time > 0.0 &&
                   max_spawn_time <= 60.0,
               "GenConfig: max_spawn_time must be in (0, 60], got ",
               max_spawn_time);
  ERPD_REQUIRE(std::isfinite(lane_change_fraction) &&
                   lane_change_fraction >= 0.0 && lane_change_fraction <= 1.0,
               "GenConfig: lane_change_fraction must be in [0, 1], got ",
               lane_change_fraction);
  ERPD_REQUIRE(std::isfinite(duration) && duration > 0.0 && duration <= 600.0,
               "GenConfig: duration must be in (0, 600], got ", duration);
  ERPD_REQUIRE(std::isfinite(min_green) && std::isfinite(max_green) &&
                   min_green >= 4.0 && max_green >= min_green &&
                   max_green <= 120.0,
               "GenConfig: green range [", min_green, ", ", max_green,
               "] must satisfy 4 <= min <= max <= 120");
}

void ScenarioSpec::validate(const RoadNetwork& net) const {
  ERPD_REQUIRE(std::isfinite(duration) && duration > 0.0 && duration <= 600.0,
               "ScenarioSpec: duration must be in (0, 600], got ", duration);
  ERPD_REQUIRE(std::isfinite(signal.green) && signal.green >= 4.0 &&
                   std::isfinite(signal.yellow) && signal.yellow >= 0.0 &&
                   std::isfinite(signal.all_red) && signal.all_red >= 0.0,
               "ScenarioSpec: bad signal timing g=", signal.green,
               " y=", signal.yellow, " r=", signal.all_red);
  maneuver.validate();
  // The generator's caps. World keeps a pair table over every id it hands
  // out, O(ids^2) in memory, so a spec's agent count must stay bounded even
  // when few of its agents are present at once.
  ERPD_REQUIRE(spawns.size() <= 500, "ScenarioSpec: at most 500 spawns, got ",
               spawns.size());
  ERPD_REQUIRE(pedestrians.size() <= 200,
               "ScenarioSpec: at most 200 pedestrians, got ",
               pedestrians.size());
  ERPD_REQUIRE(occluders.size() <= 50,
               "ScenarioSpec: at most 50 occluders, got ", occluders.size());
  const int lanes = net.config().lanes_per_direction;
  for (const SpawnSpec& sp : spawns) {
    ERPD_REQUIRE(std::isfinite(sp.time) && sp.time >= 0.0 && sp.time <= 3600.0,
                 "ScenarioSpec: spawn time must be in [0, 3600], got ",
                 sp.time);
    ERPD_REQUIRE(sp.lane >= 0 && sp.lane < lanes,
                 "ScenarioSpec: spawn lane ", sp.lane, " out of [0, ", lanes,
                 ")");
    const std::optional<int> route = net.find_route(sp.arm, sp.lane,
                                                    sp.maneuver);
    ERPD_REQUIRE(route.has_value(), "ScenarioSpec: no route from arm ",
                 to_string(sp.arm), " lane ", sp.lane, " maneuver ",
                 to_string(sp.maneuver));
    const double len = net.route(*route).path.length();
    ERPD_REQUIRE(std::isfinite(sp.start_s) && sp.start_s >= 4.0 &&
                     sp.start_s <= len,
                 "ScenarioSpec: spawn s=", sp.start_s, " outside [4, ", len,
                 "] on route ", *route);
    ERPD_REQUIRE(std::isfinite(sp.desired_speed) && sp.desired_speed > 0.0 &&
                     sp.desired_speed <= 70.0,
                 "ScenarioSpec: desired_speed must be in (0, 70] m/s, got ",
                 sp.desired_speed);
    ERPD_REQUIRE(std::isfinite(sp.start_speed) && sp.start_speed >= 0.0 &&
                     sp.start_speed <= 70.0,
                 "ScenarioSpec: start_speed must be in [0, 70] m/s, got ",
                 sp.start_speed);
    ERPD_REQUIRE(sp.lane_change >= -1 && sp.lane_change <= 1,
                 "ScenarioSpec: lane_change must be -1/0/1, got ",
                 sp.lane_change);
    ERPD_REQUIRE(std::isfinite(sp.lane_change_trigger_s) &&
                     sp.lane_change_trigger_s >= 0.0,
                 "ScenarioSpec: lane_change_trigger_s must be >= 0, got ",
                 sp.lane_change_trigger_s);
  }
  for (const OccluderSpec& oc : occluders) {
    ERPD_REQUIRE(oc.lane >= 0 && oc.lane < lanes,
                 "ScenarioSpec: occluder lane ", oc.lane, " out of [0, ",
                 lanes, ")");
    const std::optional<int> route = net.find_route(oc.arm, oc.lane,
                                                    oc.maneuver);
    ERPD_REQUIRE(route.has_value(), "ScenarioSpec: no occluder route from arm ",
                 to_string(oc.arm), " lane ", oc.lane, " maneuver ",
                 to_string(oc.maneuver));
    const double len = net.route(*route).path.length();
    ERPD_REQUIRE(std::isfinite(oc.s) && oc.s >= 4.0 && oc.s <= len,
                 "ScenarioSpec: occluder s=", oc.s, " outside [4, ", len, "]");
    ERPD_REQUIRE(std::isfinite(oc.length) && oc.length > 0.0 &&
                     oc.length <= 20.0,
                 "ScenarioSpec: occluder length must be in (0, 20], got ",
                 oc.length);
  }
  for (const PedSpec& pd : pedestrians) {
    ERPD_REQUIRE(std::isfinite(pd.start_offset) && pd.start_offset >= 0.0 &&
                     pd.start_offset <= 50.0,
                 "ScenarioSpec: ped start_offset must be in [0, 50], got ",
                 pd.start_offset);
    ERPD_REQUIRE(std::isfinite(pd.walk_speed) && pd.walk_speed > 0.0 &&
                     pd.walk_speed <= 5.0,
                 "ScenarioSpec: ped walk_speed must be in (0, 5], got ",
                 pd.walk_speed);
  }
  if (expect.present) {
    ERPD_REQUIRE(expect.collisions >= 0,
                 "ScenarioSpec: expected collisions must be >= 0, got ",
                 expect.collisions);
    ERPD_REQUIRE(!std::isnan(expect.min_vehicle_gap) &&
                     !std::isnan(expect.min_ped_gap) &&
                     expect.min_vehicle_gap >= 0.0 && expect.min_ped_gap >= 0.0,
                 "ScenarioSpec: expected gaps must be >= 0 (inf allowed)");
  }
}

ScenarioSpec generate_scenario(const GenConfig& cfg, std::uint64_t seed) {
  cfg.validate();
  const RoadNetwork net{spec_road_config()};
  const int lanes = net.config().lanes_per_direction;

  std::mt19937_64 rng = core::seeded_rng(core::seed_mix(seed, kGenStream));

  ScenarioSpec spec;
  spec.seed = seed;
  spec.duration = cfg.duration;
  spec.maneuver.enabled = true;

  // Scenario-level scalars first, in a fixed draw order: the whole spec is a
  // pure function of (cfg, seed).
  spec.signal.green =
      std::uniform_real_distribution<double>(cfg.min_green, cfg.max_green)(rng);
  spec.signal.yellow = std::uniform_real_distribution<double>(2.5, 3.5)(rng);
  spec.signal.all_red = std::uniform_real_distribution<double>(1.0, 2.5)(rng);
  const double speed = kmh_to_ms(std::uniform_real_distribution<double>(
      cfg.min_speed_kmh, cfg.max_speed_kmh)(rng));
  const double connected_fraction = std::uniform_real_distribution<double>(
      cfg.min_connected, cfg.max_connected)(rng);
  const int n_vehicles = std::uniform_int_distribution<int>(
      cfg.min_vehicles, cfg.max_vehicles)(rng);
  const int n_peds =
      std::uniform_int_distribution<int>(0, cfg.max_pedestrians)(rng);
  const int n_occluders =
      std::uniform_int_distribution<int>(0, cfg.max_occluders)(rng);

  const SignalController signals{spec.signal};

  // Per-(arm, lane) queue front: rear-bumper arc of the last entity placed
  // in the lane, and whether that leader is moving. A vehicle spawned behind
  // a standing leader (red-light queue, parked occluder) starts standing;
  // only a clear or flowing lane spawns flowing traffic — so no initial
  // state ever bakes in an unavoidable rear-end. Ordered map (detlint D1).
  struct LaneFront {
    double rear_s;
    bool moving;
  };
  std::map<int, LaneFront> front;
  auto lane_key = [](Arm arm, int lane) {
    return static_cast<int>(arm) * 8 + lane;
  };

  // Occluders first: a parked truck near a stop line caps its lane's queue
  // front so t=0 traffic spawns behind it, not inside it.
  std::uniform_int_distribution<int> arm_pick(0, kArmCount - 1);
  std::uniform_real_distribution<double> occ_back(3.0, 15.0);
  for (int i = 0; i < n_occluders; ++i) {
    OccluderSpec oc;
    oc.arm = static_cast<Arm>(arm_pick(rng));
    oc.lane = lanes - 1;  // curbside lane, like the Fig. 9b queued trucks
    oc.maneuver = net.find_route(oc.arm, oc.lane, Maneuver::kRight).has_value()
                      ? Maneuver::kRight
                      : Maneuver::kStraight;
    const std::optional<int> route = net.find_route(oc.arm, oc.lane,
                                                    oc.maneuver);
    const double back = occ_back(rng);
    if (!route.has_value()) continue;
    oc.s = net.route(*route).stop_line_s - back;
    // A second truck in the same lane queues behind the first (the Fig. 9b
    // stack) instead of overlapping it.
    if (const auto it = front.find(lane_key(oc.arm, oc.lane));
        it != front.end()) {
      oc.s = std::min(oc.s, it->second.rear_s - 2.0 - oc.length * 0.5);
    }
    if (oc.s < 6.0) continue;
    // A parked truck is a standing leader for everything behind it.
    const double rear = oc.s - oc.length * 0.5;
    const int key = lane_key(oc.arm, oc.lane);
    const auto [it, inserted] = front.try_emplace(key, LaneFront{rear, false});
    if (!inserted && rear < it->second.rear_s) {
      it->second = LaneFront{rear, false};
    }
    spec.occluders.push_back(oc);
  }

  std::uniform_int_distribution<int> lane_pick(0, lanes - 1);
  std::uniform_int_distribution<int> maneuver_pick(0, 2);
  std::bernoulli_distribution deferred(0.4);
  std::bernoulli_distribution connected(connected_fraction);
  std::bernoulli_distribution truck(0.12);
  std::bernoulli_distribution wants_change(cfg.lane_change_fraction);
  std::bernoulli_distribution coin(0.5);
  std::uniform_real_distribution<double> spawn_jitter(0.0, 4.0);
  std::uniform_real_distribution<double> queue_gap(2.0, 5.0);
  std::uniform_real_distribution<double> speed_factor(0.85, 1.15);
  std::uniform_real_distribution<double> spawn_time(0.5, cfg.max_spawn_time);
  std::uniform_real_distribution<double> edge_s(4.0, 10.0);
  std::uniform_real_distribution<double> trigger_ahead(5.0, 25.0);

  for (int i = 0; i < n_vehicles; ++i) {
    SpawnSpec sp;
    sp.arm = static_cast<Arm>(arm_pick(rng));
    sp.lane = lane_pick(rng);
    sp.maneuver = static_cast<Maneuver>(maneuver_pick(rng));
    if (!net.find_route(sp.arm, sp.lane, sp.maneuver).has_value()) {
      sp.maneuver = Maneuver::kStraight;
    }
    const std::optional<int> route_id =
        net.find_route(sp.arm, sp.lane, sp.maneuver);
    if (!route_id.has_value()) continue;
    const Route& route = net.route(*route_id);

    sp.kind = truck(rng) ? AgentKind::kTruck : AgentKind::kCar;
    sp.connected = connected(rng);
    sp.desired_speed = speed * speed_factor(rng);

    const bool later = deferred(rng);
    const double jitter = spawn_jitter(rng);
    const double standing_gap = queue_gap(rng);
    const double t_deferred = spawn_time(rng);
    const double s_edge = edge_s(rng);
    if (later) {
      // Enters at the upstream map edge mid-run; the world holds the spawn
      // while the spot is blocked.
      sp.time = t_deferred;
      sp.start_s = s_edge;
      sp.start_speed = sp.desired_speed;
    } else {
      const double half_len = default_dims(sp.kind).length * 0.5;
      const bool green =
          signals.state(sp.arm, 0.0) == SignalController::Light::kGreen;
      const int key = lane_key(sp.arm, sp.lane);
      // First vehicle in a lane queues against the stop line itself — a
      // leader that "moves" exactly when the light is green.
      const auto [it, inserted] = front.try_emplace(
          key, LaneFront{route.stop_line_s - 1.0, green});
      // Flowing only behind a flowing (or absent) leader; behind a red-light
      // queue or a parked occluder the spawn stands. Moving spawns keep a
      // speed-proportional headway on top of the standstill gap.
      const bool moving = green && it->second.moving;
      sp.start_speed = moving ? sp.desired_speed : 0.0;
      const double clearance =
          standing_gap + (moving ? sp.start_speed * 1.1 : 0.0);
      const double s = it->second.rear_s - clearance - jitter - half_len;
      if (s < 6.0) continue;  // lane already full
      it->second = LaneFront{s - half_len, moving};
      sp.time = 0.0;
      sp.start_s = s;
    }

    // Lane-change directive (only meaningful with >1 lane per direction).
    const bool change = wants_change(rng);
    const bool to_right = coin(rng);
    const double ahead = trigger_ahead(rng);
    if (change && lanes > 1) {
      sp.lane_change = sp.lane == 0 ? 1 : (sp.lane == lanes - 1 ? -1
                                           : (to_right ? 1 : -1));
      sp.lane_change_trigger_s = sp.start_s + ahead;
    }
    spec.spawns.push_back(sp);
  }

  std::bernoulli_distribution crossing(0.5);
  std::uniform_real_distribution<double> ped_offset(0.0, 6.0);
  std::uniform_real_distribution<double> ped_speed(1.1, 1.7);
  for (int i = 0; i < n_peds; ++i) {
    PedSpec pd;
    pd.arm = static_cast<Arm>(arm_pick(rng));
    pd.east_side = coin(rng);
    pd.reverse = coin(rng);
    pd.start_offset = ped_offset(rng);
    pd.walk_speed = ped_speed(rng);
    pd.crossing = crossing(rng);
    spec.pedestrians.push_back(pd);
  }

  return spec;
}

Scenario build_scenario(const ScenarioSpec& spec,
                        const WorldConfig& base_world) {
  WorldConfig wc = base_world;
  wc.seed = spec.seed;
  wc.signal = spec.signal;
  wc.maneuver = spec.maneuver;

  Scenario sc{World{RoadNetwork{spec_road_config()}, wc}, kInvalidAgent,
              kInvalidAgent, {}, kInvalidAgent};
  World& world = sc.world;
  const RoadNetwork& net = world.network();
  spec.validate(net);

  add_intersection_scenery(world);

  for (const OccluderSpec& oc : spec.occluders) {
    const int route = *net.find_route(oc.arm, oc.lane, oc.maneuver);
    sc.occluders.push_back(
        world.add_vehicle(occluder_params(oc), route, oc.s, 0.0));
  }

  for (const SpawnSpec& sp : spec.spawns) {
    const int route = *net.find_route(sp.arm, sp.lane, sp.maneuver);
    if (sp.time == 0.0) {  // lint-ok: R6 spec distinguishes t=0 exactly
      const AgentId id =
          world.add_vehicle(spawn_params(sp), route, sp.start_s,
                            sp.start_speed);
      if (sp.lane_change != 0) {
        world.find_vehicle(id)->set_lane_change_directive(
            sp.lane_change, sp.lane_change_trigger_s);
      }
    } else {
      world.schedule_vehicle(sp.time, spawn_params(sp), route, sp.start_s,
                             sp.start_speed, sp.lane_change,
                             sp.lane_change_trigger_s);
    }
  }

  for (const PedSpec& pd : spec.pedestrians) {
    PedestrianParams pp;
    pp.walk_speed = pd.walk_speed;
    world.add_pedestrian(pp, pd.crossing ? crossing_path(net, pd)
                                         : sidewalk_path(net, pd));
  }

  return sc;
}

WorldConfig search_world_config() {
  WorldConfig wc;
  // Coarse sensor (matches the scenario harness's CI profile): geometry and
  // behavior are unchanged, only the point-cloud density drops.
  wc.lidar.channels = 16;
  wc.lidar.azimuth_step_deg = 1.0;
  return wc;
}

// --- Serialization ---------------------------------------------------------

namespace {

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  out += buf;
}

void append_fields(std::string& out) { out += '\n'; }

template <typename First, typename... Rest>
void append_fields(std::string& out, First&& first, Rest&&... rest) {
  out += ' ';
  using Decayed = std::decay_t<First>;
  if constexpr (std::is_same_v<Decayed, double>) {
    append_double(out, first);
  } else if constexpr (std::is_same_v<Decayed, bool>) {
    out += first ? '1' : '0';
  } else if constexpr (std::is_same_v<Decayed, const char*>) {
    out += first;
  } else {
    out += std::to_string(first);
  }
  append_fields(out, std::forward<Rest>(rest)...);
}

/// Consume exactly one token as a double; rejects trailing garbage and
/// (unless allow_inf) non-finite values. NaN is never accepted: a committed
/// anchor pinning NaN could not be compared exactly anyway.
bool parse_double_token(std::string_view tok, double& out,
                        bool allow_inf = false) {
  std::string buf(tok);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) return false;
  if (std::isnan(v)) return false;
  if (!allow_inf && !std::isfinite(v)) return false;
  out = v;
  return true;
}

bool parse_u64_token(std::string_view tok, std::uint64_t& out) {
  if (tok.empty()) return false;
  std::string buf(tok);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  if (buf[0] == '-') return false;
  out = v;
  return true;
}

bool parse_int_token(std::string_view tok, int& out, int lo, int hi) {
  if (tok.empty()) return false;
  std::string buf(tok);
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  if (v < lo || v > hi) return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_bool_token(std::string_view tok, bool& out) {
  if (tok == "0") {
    out = false;
    return true;
  }
  if (tok == "1") {
    out = true;
    return true;
  }
  return false;
}

bool parse_arm_token(std::string_view tok, Arm& out) {
  if (tok == "N") out = Arm::kNorth;
  else if (tok == "E") out = Arm::kEast;
  else if (tok == "S") out = Arm::kSouth;
  else if (tok == "W") out = Arm::kWest;
  else return false;
  return true;
}

bool parse_maneuver_token(std::string_view tok, Maneuver& out) {
  if (tok == "straight") out = Maneuver::kStraight;
  else if (tok == "left") out = Maneuver::kLeft;
  else if (tok == "right") out = Maneuver::kRight;
  else return false;
  return true;
}

bool parse_kind_token(std::string_view tok, AgentKind& out) {
  if (tok == "car") out = AgentKind::kCar;
  else if (tok == "truck") out = AgentKind::kTruck;
  else return false;
  return true;
}

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

}  // namespace

std::string emit_spec(const ScenarioSpec& spec) {
  std::string out;
  out.reserve(256 + 96 * spec.spawns.size());
  out += "erpd-scenario v1\n";
  out += "seed";
  append_fields(out, spec.seed);
  out += "duration";
  append_fields(out, spec.duration);
  out += "signal";
  append_fields(out, spec.signal.green, spec.signal.yellow,
                spec.signal.all_red);
  out += "maneuver";
  append_fields(out, spec.maneuver.enabled, spec.maneuver.lane_change_duration,
                spec.maneuver.min_lead_gap, spec.maneuver.min_lag_gap,
                spec.maneuver.gap_time_headway, spec.maneuver.abort_after,
                spec.maneuver.stop_line_clearance);
  for (const SpawnSpec& sp : spec.spawns) {
    out += "spawn";
    append_fields(out, sp.time, to_string(sp.arm), sp.lane,
                  to_string(sp.maneuver), sp.start_s, sp.desired_speed,
                  sp.start_speed, sp.connected, to_string(sp.kind),
                  sp.lane_change, sp.lane_change_trigger_s);
  }
  for (const OccluderSpec& oc : spec.occluders) {
    out += "occluder";
    append_fields(out, to_string(oc.arm), oc.lane, to_string(oc.maneuver),
                  oc.s, oc.length);
  }
  for (const PedSpec& pd : spec.pedestrians) {
    out += "ped";
    append_fields(out, to_string(pd.arm), pd.east_side, pd.reverse,
                  pd.start_offset, pd.walk_speed, pd.crossing);
  }
  if (spec.expect.present) {
    out += "expect";
    append_fields(out, spec.expect.collisions, spec.expect.min_vehicle_gap,
                  spec.expect.min_ped_gap);
  }
  return out;
}

const char* to_string(SpecParseStatus s) {
  switch (s) {
    case SpecParseStatus::kOk: return "ok";
    case SpecParseStatus::kBadHeader: return "bad-header";
    case SpecParseStatus::kBadSyntax: return "bad-syntax";
    case SpecParseStatus::kBadValue: return "bad-value";
    case SpecParseStatus::kUnknownKey: return "unknown-key";
  }
  return "?";
}

SpecParseResult try_parse_spec(std::string_view text) {
  SpecParseResult res;
  auto fail = [&res](SpecParseStatus st, std::size_t line, std::string msg) {
    res.status = st;
    res.line = line;
    res.message = std::move(msg);
    return res;
  };

  std::size_t line_no = 0;
  bool saw_header = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view raw = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    std::string_view line = raw;
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    const std::vector<std::string_view> toks = tokenize(line);
    if (toks.empty()) continue;

    if (!saw_header) {
      if (toks.size() != 2 || toks[0] != "erpd-scenario" || toks[1] != "v1") {
        return fail(SpecParseStatus::kBadHeader, line_no,
                    "expected 'erpd-scenario v1' header");
      }
      saw_header = true;
      continue;
    }

    const std::string_view key = toks[0];
    if (key == "seed") {
      if (toks.size() != 2) {
        return fail(SpecParseStatus::kBadSyntax, line_no, "seed <u64>");
      }
      if (!parse_u64_token(toks[1], res.spec.seed)) {
        return fail(SpecParseStatus::kBadValue, line_no, "bad seed");
      }
    } else if (key == "duration") {
      if (toks.size() != 2) {
        return fail(SpecParseStatus::kBadSyntax, line_no, "duration <sec>");
      }
      if (!parse_double_token(toks[1], res.spec.duration)) {
        return fail(SpecParseStatus::kBadValue, line_no, "bad duration");
      }
    } else if (key == "signal") {
      if (toks.size() != 4) {
        return fail(SpecParseStatus::kBadSyntax, line_no,
                    "signal <green> <yellow> <all_red>");
      }
      if (!parse_double_token(toks[1], res.spec.signal.green) ||
          !parse_double_token(toks[2], res.spec.signal.yellow) ||
          !parse_double_token(toks[3], res.spec.signal.all_red)) {
        return fail(SpecParseStatus::kBadValue, line_no, "bad signal timing");
      }
    } else if (key == "maneuver") {
      if (toks.size() != 8) {
        return fail(SpecParseStatus::kBadSyntax, line_no,
                    "maneuver <on> <dur> <lead> <lag> <headway> <abort> "
                    "<clearance>");
      }
      ManeuverConfig& m = res.spec.maneuver;
      if (!parse_bool_token(toks[1], m.enabled) ||
          !parse_double_token(toks[2], m.lane_change_duration) ||
          !parse_double_token(toks[3], m.min_lead_gap) ||
          !parse_double_token(toks[4], m.min_lag_gap) ||
          !parse_double_token(toks[5], m.gap_time_headway) ||
          !parse_double_token(toks[6], m.abort_after) ||
          !parse_double_token(toks[7], m.stop_line_clearance)) {
        return fail(SpecParseStatus::kBadValue, line_no, "bad maneuver config");
      }
    } else if (key == "spawn") {
      if (toks.size() != 12) {
        return fail(SpecParseStatus::kBadSyntax, line_no,
                    "spawn <t> <arm> <lane> <maneuver> <s> <desired> <v0> "
                    "<connected> <kind> <lc> <lc_s>");
      }
      SpawnSpec sp;
      if (!parse_double_token(toks[1], sp.time) ||
          !parse_arm_token(toks[2], sp.arm) ||
          !parse_int_token(toks[3], sp.lane, 0, 7) ||
          !parse_maneuver_token(toks[4], sp.maneuver) ||
          !parse_double_token(toks[5], sp.start_s) ||
          !parse_double_token(toks[6], sp.desired_speed) ||
          !parse_double_token(toks[7], sp.start_speed) ||
          !parse_bool_token(toks[8], sp.connected) ||
          !parse_kind_token(toks[9], sp.kind) ||
          !parse_int_token(toks[10], sp.lane_change, -1, 1) ||
          !parse_double_token(toks[11], sp.lane_change_trigger_s)) {
        return fail(SpecParseStatus::kBadValue, line_no, "bad spawn");
      }
      res.spec.spawns.push_back(sp);
    } else if (key == "occluder") {
      if (toks.size() != 6) {
        return fail(SpecParseStatus::kBadSyntax, line_no,
                    "occluder <arm> <lane> <maneuver> <s> <length>");
      }
      OccluderSpec oc;
      if (!parse_arm_token(toks[1], oc.arm) ||
          !parse_int_token(toks[2], oc.lane, 0, 7) ||
          !parse_maneuver_token(toks[3], oc.maneuver) ||
          !parse_double_token(toks[4], oc.s) ||
          !parse_double_token(toks[5], oc.length)) {
        return fail(SpecParseStatus::kBadValue, line_no, "bad occluder");
      }
      res.spec.occluders.push_back(oc);
    } else if (key == "ped") {
      if (toks.size() != 7) {
        return fail(SpecParseStatus::kBadSyntax, line_no,
                    "ped <arm> <east> <reverse> <offset> <speed> <crossing>");
      }
      PedSpec pd;
      if (!parse_arm_token(toks[1], pd.arm) ||
          !parse_bool_token(toks[2], pd.east_side) ||
          !parse_bool_token(toks[3], pd.reverse) ||
          !parse_double_token(toks[4], pd.start_offset) ||
          !parse_double_token(toks[5], pd.walk_speed) ||
          !parse_bool_token(toks[6], pd.crossing)) {
        return fail(SpecParseStatus::kBadValue, line_no, "bad pedestrian");
      }
      res.spec.pedestrians.push_back(pd);
    } else if (key == "expect") {
      if (toks.size() != 4) {
        return fail(SpecParseStatus::kBadSyntax, line_no,
                    "expect <collisions> <min_vehicle_gap> <min_ped_gap>");
      }
      SpecExpectations& e = res.spec.expect;
      if (!parse_int_token(toks[1], e.collisions, 0,
                           std::numeric_limits<int>::max()) ||
          !parse_double_token(toks[2], e.min_vehicle_gap,
                              /*allow_inf=*/true) ||
          !parse_double_token(toks[3], e.min_ped_gap, /*allow_inf=*/true)) {
        return fail(SpecParseStatus::kBadValue, line_no, "bad expectations");
      }
      e.present = true;
    } else {
      return fail(SpecParseStatus::kUnknownKey, line_no,
                  "unknown key '" + std::string(key) + "'");
    }
  }

  if (!saw_header) {
    return fail(SpecParseStatus::kBadHeader, line_no,
                "empty input: missing 'erpd-scenario v1' header");
  }
  return res;
}

}  // namespace erpd::sim
