// Equivalence suite for World::step's per-step geometry fast paths
// (DESIGN.md §19): the agent table built after the maneuver pass and after
// integration, the shared occluder list with circumradius rejects, the
// once-per-vehicle route slice, and the AABB rejects in
// Polyline::first_crossing. A fast world and a reference world
// (set_reference_geometry) are stepped side by side on identical inputs, and
// on every tick everything step() decides is compared bit for bit: vehicle
// state, driver memory, latched yields, collisions and every pair distance.
// The crowd scenes step fast worlds at 1, 2 and 8 pool workers, since the
// sight tests and pair distances run on the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_gen.hpp"

namespace erpd::sim {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

/// Restores the auto pool size when a test exits.
struct PoolGuard {
  ~PoolGuard() { core::set_thread_count(0); }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

#define ASSERT_SAME_BITS(a, b, what)                                   \
  ASSERT_TRUE(same_bits((a), (b)))                                     \
      << what << ": " << (a) << " vs " << (b) << " (tick " << tick << ")"

/// Highest id among the materialized agents.
AgentId max_agent_id(const World& w) {
  AgentId hi = -1;
  for (const Vehicle& v : w.vehicles()) hi = std::max(hi, v.id());
  for (const Pedestrian& p : w.pedestrians()) hi = std::max(hi, p.id());
  return hi;
}

void expect_same_world(const World& fast, const World& ref, int tick) {
  ASSERT_EQ(fast.vehicles().size(), ref.vehicles().size()) << "tick " << tick;
  ASSERT_EQ(fast.pedestrians().size(), ref.pedestrians().size())
      << "tick " << tick;
  for (std::size_t i = 0; i < ref.vehicles().size(); ++i) {
    const Vehicle& a = fast.vehicles()[i];
    const Vehicle& b = ref.vehicles()[i];
    ASSERT_EQ(a.id(), b.id()) << "tick " << tick;
    ASSERT_SAME_BITS(a.s(), b.s(), "vehicle " << b.id() << " s");
    ASSERT_SAME_BITS(a.speed(), b.speed(), "vehicle " << b.id() << " v");
    ASSERT_SAME_BITS(a.accel(), b.accel(), "vehicle " << b.id() << " a");
    ASSERT_SAME_BITS(a.lateral_offset(), b.lateral_offset(),
                     "vehicle " << b.id() << " lateral offset");
    ASSERT_EQ(a.route_id(), b.route_id()) << "tick " << tick;
    ASSERT_EQ(a.crashed(), b.crashed())
        << "vehicle " << b.id() << " tick " << tick;
    ASSERT_EQ(a.known_hazards().size(), b.known_hazards().size())
        << "vehicle " << b.id() << " tick " << tick;
    auto ka = a.known_hazards().begin();
    for (const auto& [id, kb] : b.known_hazards()) {
      ASSERT_EQ(ka->first, id) << "vehicle " << b.id() << " tick " << tick;
      ASSERT_SAME_BITS(ka->second.aware_since, kb.aware_since,
                       "vehicle " << b.id() << " hazard " << id);
      ASSERT_EQ(ka->second.from_dissemination, kb.from_dissemination)
          << "vehicle " << b.id() << " hazard " << id << " tick " << tick;
      ++ka;
    }
    ASSERT_EQ(a.yields().size(), b.yields().size())
        << "vehicle " << b.id() << " tick " << tick;
    auto ya = a.yields().begin();
    for (const auto& [id, stop_s] : b.yields()) {
      ASSERT_EQ(ya->first, id) << "vehicle " << b.id() << " tick " << tick;
      ASSERT_SAME_BITS(ya->second, stop_s,
                       "vehicle " << b.id() << " yield to " << id);
      ++ya;
    }
  }
  ASSERT_EQ(fast.collisions().size(), ref.collisions().size())
      << "tick " << tick;
  for (std::size_t i = 0; i < ref.collisions().size(); ++i) {
    const CollisionEvent& a = fast.collisions()[i];
    const CollisionEvent& b = ref.collisions()[i];
    ASSERT_EQ(a.a, b.a) << "tick " << tick;
    ASSERT_EQ(a.b, b.b) << "tick " << tick;
    ASSERT_SAME_BITS(a.time, b.time, "collision time");
    ASSERT_SAME_BITS(a.position.x, b.position.x, "collision x");
    ASSERT_SAME_BITS(a.position.y, b.position.y, "collision y");
  }
  ASSERT_SAME_BITS(fast.min_vehicle_distance(), ref.min_vehicle_distance(),
                   "min vehicle distance");
  ASSERT_SAME_BITS(fast.min_vehicle_pedestrian_distance(),
                   ref.min_vehicle_pedestrian_distance(),
                   "min vehicle-pedestrian distance");
  const AgentId hi = max_agent_id(ref);
  for (const Vehicle& v : ref.vehicles()) {
    for (AgentId other = 0; other <= hi; ++other) {
      if (other == v.id()) continue;
      ASSERT_SAME_BITS(fast.min_pair_distance(v.id(), other),
                       ref.min_pair_distance(v.id(), other),
                       "pair (" << v.id() << ", " << other << ")");
    }
  }
}

struct Totals {
  int ticks{0};
  std::size_t max_hazards{0};
  bool lane_offset_seen{false};
  std::size_t collisions{0};
  std::size_t yields_seen{0};
};

/// A fast-path world and the pool size it steps at (0: leave the pool as
/// it is).
struct FastWorld {
  World* world;
  std::size_t workers{0};
};

/// Step the fast worlds and the reference `ticks` times, comparing each
/// fast world with the reference after every step. Every few ticks all
/// receive the same edge notifications (some naming pedestrians,
/// unmaterialized or unknown ids), so dissemination-driven reactions of
/// inattentive drivers run too.
Totals step_side_by_side(const std::vector<FastWorld>& fast, World& ref,
                         int ticks) {
  for (const FastWorld& f : fast) f.world->set_reference_geometry(false);
  ref.set_reference_geometry(true);
  Totals t;
  {
    const int tick = -1;
    for (const FastWorld& f : fast) expect_same_world(*f.world, ref, tick);
  }
  for (int tick = 0; tick < ticks; ++tick) {
    if (tick % 5 == 0) {
      const AgentId hi = max_agent_id(ref) + 3;
      for (std::size_t i = 0; i < ref.vehicles().size(); i += 3) {
        const AgentId vid = ref.vehicles()[i].id();
        const AgentId hazard =
            static_cast<AgentId>((static_cast<std::int64_t>(i) * 37 + tick) %
                                 (hi + 1));
        for (const FastWorld& f : fast) f.world->notify_vehicle(vid, hazard);
        ref.notify_vehicle(vid, hazard);
      }
    }
    for (const FastWorld& f : fast) {
      if (f.workers != 0) core::set_thread_count(f.workers);
      f.world->step();
    }
    ref.step();
    for (const FastWorld& f : fast) {
      SCOPED_TRACE(f.workers);
      expect_same_world(*f.world, ref, tick);
      if (::testing::Test::HasFatalFailure()) return t;
    }
    for (const Vehicle& v : ref.vehicles()) {
      t.max_hazards = std::max(t.max_hazards, v.known_hazards().size());
      t.yields_seen += v.yields().size();
      if (v.lateral_offset() != 0.0) t.lane_offset_seen = true;  // lint-ok: R6 exact-inert gate
    }
    ++t.ticks;
  }
  t.collisions = ref.collisions().size();
  return t;
}

Totals step_side_by_side(World& fast, World& ref, int ticks) {
  return step_side_by_side({{&fast, 0}}, ref, ticks);
}

/// Step one fast world per pool size in kThreadCounts against one
/// reference built by `make`.
template <typename Make>
Totals step_at_worker_counts(const Make& make, int ticks) {
  const PoolGuard guard;
  std::vector<Scenario> fast;
  fast.reserve(std::size(kThreadCounts));  // keeps the world pointers valid
  std::vector<FastWorld> worlds;
  for (const std::size_t n : kThreadCounts) {
    fast.push_back(make());
    worlds.push_back({&fast.back().world, n});
  }
  Scenario ref = make();
  return step_side_by_side(worlds, ref.world, ticks);
}

ScenarioConfig crowd_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.total_vehicles = 80;
  cfg.pedestrians = 120;
  cfg.seed = seed;
  return cfg;
}

TEST(WorldEquivalence, OccludedPedestrianCrowds) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const auto make = [seed] {
      return make_occluded_pedestrian(crowd_config(seed));
    };
    ASSERT_GE(make().world.pedestrians().size(), 60u);
    const Totals t = step_at_worker_counts(make, 90);
    ASSERT_EQ(t.ticks, 90);
    EXPECT_GT(t.max_hazards, 10u) << "sight tests never fired";
  }
}

TEST(WorldEquivalence, DenseLeftTurns) {
  for (std::uint64_t seed : {4u, 5u}) {
    SCOPED_TRACE(seed);
    ScenarioConfig cfg = crowd_config(seed);
    cfg.pedestrians = 30;
    const Totals t = step_at_worker_counts(
        [&cfg] { return make_unprotected_left_turn(cfg); }, 120);
    ASSERT_EQ(t.ticks, 120);
    EXPECT_GT(t.yields_seen, 0u) << "no driver ever yielded";
  }
}

TEST(WorldEquivalence, RedLightViolation) {
  ScenarioConfig cfg = crowd_config(6);
  cfg.total_vehicles = 40;
  cfg.pedestrians = 20;
  Scenario fast = make_red_light_violation(cfg);
  Scenario ref = make_red_light_violation(cfg);
  EXPECT_EQ(step_side_by_side(fast.world, ref.world, 150).ticks, 150);
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(WorldEquivalence, CommittedAnchors) {
  // Same list as test_generated_scenarios: a missing file fails loudly.
  for (const char* name :
       {"seed2_near-miss.scn", "seed9_collision.scn", "seed11_near-miss.scn",
        "seed12_collision.scn", "seed19_collision.scn"}) {
    SCOPED_TRACE(name);
    const std::string text =
        read_file(std::string(ERPD_TESTS_DIR) + "/scenarios/" + name);
    ASSERT_FALSE(text.empty());
    const SpecParseResult parsed = try_parse_spec(text);
    ASSERT_TRUE(parsed.ok()) << parsed.message;
    Scenario fast = build_scenario(parsed.spec, search_world_config());
    Scenario ref = build_scenario(parsed.spec, search_world_config());
    const int ticks = static_cast<int>(parsed.spec.duration /
                                       ref.world.config().dt);
    EXPECT_EQ(step_side_by_side(fast.world, ref.world, ticks).ticks, ticks);
  }
}

TEST(WorldEquivalence, GeneratedScenesWithManeuvers) {
  GenConfig gen;
  gen.lane_change_fraction = 0.8;
  bool lane_offset_seen = false;
  std::size_t collisions = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    const ScenarioSpec spec = generate_scenario(gen, seed);
    ASSERT_TRUE(spec.maneuver.enabled);
    Scenario fast = build_scenario(spec, search_world_config());
    Scenario ref = build_scenario(spec, search_world_config());
    const int ticks = static_cast<int>(spec.duration / ref.world.config().dt);
    const Totals t = step_side_by_side(fast.world, ref.world, ticks);
    ASSERT_EQ(t.ticks, ticks);
    lane_offset_seen = lane_offset_seen || t.lane_offset_seen;
    collisions += t.collisions;
  }
  EXPECT_TRUE(lane_offset_seen) << "no lane change blended a lateral offset";
  EXPECT_GT(collisions, 0u) << "no generated scene reached a collision";
}

/// A sight line that clips an occluder's corner by 1e-6 m. The line passes
/// within the circumradius, so the circumradius reject must not skip the
/// box: the reference sees the corner block the pedestrian.
TEST(WorldEquivalence, SightLineClippingAnOccluderCorner) {
  for (double angle : {0.3, 1.1, 2.0, -0.7, 2.9}) {
   for (double overlap : {1e-6, -1e-6}) {
    SCOPED_TRACE(angle);
    SCOPED_TRACE(overlap);
    const auto make = [angle, overlap](bool reference) {
      World w{RoadNetwork{RoadConfig{}}, WorldConfig{}};
      w.set_reference_geometry(reference);
      const int route =
          *w.network().find_route(Arm::kSouth, 1, Maneuver::kStraight);
      VehicleParams params;
      params.idm.desired_speed = 0.0;
      const AgentId viewer = w.add_vehicle(params, route, 10.0, 0.0);
      const geom::Vec2 eye = w.find_vehicle(viewer)->position(w.network());
      const geom::Vec2 target = eye + geom::Vec2::from_heading(angle) * 20.0;
      w.add_pedestrian(PedestrianParams{},
                       geom::Polyline{{target, target + geom::Vec2{0.0, 0.5}}});
      // A 2 m square whose corner points back at the sight line: the corner
      // sits `overlap` m past the line (two edges cross it) or short of it.
      const geom::Vec2 u = (target - eye).normalized();
      const geom::Vec2 n = u.perp();
      const double half_diagonal = std::sqrt(2.0);
      const geom::Vec2 centre =
          (eye + target) * 0.5 + n * (half_diagonal - overlap);
      const double heading = (-n).heading() - 0.25 * std::acos(-1.0);
      w.add_static_obstacle(geom::Obb{centre, heading, 2.0, 2.0}, 3.0);
      return w;
    };
    World fast = make(false);
    World ref = make(true);
    const Totals t = step_side_by_side(fast, ref, 1);
    ASSERT_EQ(t.ticks, 1);
    const AgentId pedestrian = ref.pedestrians()[0].id();
    EXPECT_EQ(ref.vehicles()[0].known_hazards().contains(pedestrian),
              overlap < 0.0)
        << "only a corner crossing the sight line blocks it";
   }
  }
}

/// The id-indexed pair table: ids that schedule_vehicle hands out before
/// the vehicle exists stay +inf until it materializes, then fill like any
/// other; a == b, unknown and negative ids read +inf.
TEST(WorldEquivalence, PairTableCoversScheduledIds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto make = [] {
    World w{RoadNetwork{RoadConfig{}}, WorldConfig{}};
    const RoadNetwork& net = w.network();
    VehicleParams params;
    params.idm.desired_speed = 6.0;
    w.add_vehicle(params, *net.find_route(Arm::kSouth, 1, Maneuver::kStraight),
                  20.0, 5.0);
    w.schedule_vehicle(0.45, params,
                       *net.find_route(Arm::kWest, 1, Maneuver::kStraight),
                       15.0, 5.0);
    const geom::Vec2 kerb = net.route(0).path.point_at(30.0);
    w.add_pedestrian(PedestrianParams{},
                     geom::Polyline{{kerb, kerb + geom::Vec2{0.0, 8.0}}});
    w.add_vehicle(params, *net.find_route(Arm::kNorth, 1, Maneuver::kStraight),
                  25.0, 5.0);
    return w;
  };
  // Ids: 0 vehicle, 1 scheduled, 2 pedestrian, 3 vehicle.
  World fast = make();
  World ref = make();
  const World& w = fast;
  ASSERT_EQ(w.pending_vehicles(), 1u);
  for (AgentId a = -1; a <= 4; ++a) {
    for (AgentId b = -1; b <= 4; ++b) {
      EXPECT_EQ(w.min_pair_distance(a, b), kInf) << a << ", " << b;
    }
  }
  ASSERT_EQ(step_side_by_side(fast, ref, 1).ticks, 1);
  EXPECT_EQ(w.pending_vehicles(), 1u);
  EXPECT_LT(w.min_pair_distance(0, 3), kInf);
  EXPECT_LT(w.min_pair_distance(2, 0), kInf);
  EXPECT_LT(w.min_pair_distance(3, 2), kInf);
  EXPECT_EQ(w.min_pair_distance(0, 1), kInf) << "scheduled, not yet spawned";
  EXPECT_EQ(w.min_pair_distance(1, 2), kInf);

  ASSERT_EQ(step_side_by_side(fast, ref, 10).ticks, 10);
  ASSERT_EQ(w.pending_vehicles(), 0u);
  for (const AgentId other : {0, 2, 3}) {
    EXPECT_LT(w.min_pair_distance(1, other), kInf) << other;
    EXPECT_EQ(w.min_pair_distance(1, other), w.min_pair_distance(other, 1));
  }
  EXPECT_EQ(w.min_pair_distance(0, 0), kInf);
  EXPECT_EQ(w.min_pair_distance(1, 1), kInf);
  EXPECT_EQ(w.min_pair_distance(0, 999), kInf);
  EXPECT_EQ(w.min_pair_distance(999, 0), kInf);
  EXPECT_EQ(w.min_pair_distance(0, -1), kInf);
  EXPECT_EQ(w.min_pair_distance(-5, 3), kInf);
  EXPECT_EQ(w.min_vehicle_distance(),
            std::min({w.min_pair_distance(0, 1), w.min_pair_distance(0, 3),
                      w.min_pair_distance(1, 3)}));
  EXPECT_EQ(w.min_vehicle_pedestrian_distance(),
            std::min({w.min_pair_distance(0, 2), w.min_pair_distance(1, 2),
                      w.min_pair_distance(3, 2)}));
}

}  // namespace
}  // namespace erpd::sim
