// Scenario-generator tests (DESIGN.md §15).
//
// The property test drives 200 seeds through generate_scenario and checks
// the structural contract: every spawn references a resolvable route, every
// scalar is finite and in range (ScenarioSpec::validate / ERPD_REQUIRE),
// demand stays within the configured bounds. Serialization is checked as a
// round-trip law — parse(emit(s)) reproduces every field bit-exactly and
// emit is a fixed point — plus a malformed-input corpus hitting every
// SpecParseStatus without ever throwing.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/check.hpp"
#include "sim/road_network.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_gen.hpp"

namespace erpd::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_spec_eq(const ScenarioSpec& a, const ScenarioSpec& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.duration, b.duration);  // lint-ok: R6 hexfloat round-trip
  EXPECT_EQ(a.signal.green, b.signal.green);      // lint-ok: R6 as above
  EXPECT_EQ(a.signal.yellow, b.signal.yellow);    // lint-ok: R6 as above
  EXPECT_EQ(a.signal.all_red, b.signal.all_red);  // lint-ok: R6 as above
  EXPECT_EQ(a.maneuver.enabled, b.maneuver.enabled);
  ASSERT_EQ(a.spawns.size(), b.spawns.size());
  for (std::size_t i = 0; i < a.spawns.size(); ++i) {
    const SpawnSpec& x = a.spawns[i];
    const SpawnSpec& y = b.spawns[i];
    EXPECT_EQ(x.time, y.time);  // lint-ok: R6 hexfloat round-trip
    EXPECT_EQ(x.arm, y.arm);
    EXPECT_EQ(x.lane, y.lane);
    EXPECT_EQ(x.maneuver, y.maneuver);
    EXPECT_EQ(x.start_s, y.start_s);              // lint-ok: R6 as above
    EXPECT_EQ(x.desired_speed, y.desired_speed);  // lint-ok: R6 as above
    EXPECT_EQ(x.start_speed, y.start_speed);      // lint-ok: R6 as above
    EXPECT_EQ(x.connected, y.connected);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.lane_change, y.lane_change);
    EXPECT_EQ(x.lane_change_trigger_s,  // lint-ok: R6 as above
              y.lane_change_trigger_s);
  }
  ASSERT_EQ(a.occluders.size(), b.occluders.size());
  for (std::size_t i = 0; i < a.occluders.size(); ++i) {
    EXPECT_EQ(a.occluders[i].arm, b.occluders[i].arm);
    EXPECT_EQ(a.occluders[i].s, b.occluders[i].s);  // lint-ok: R6 as above
    EXPECT_EQ(a.occluders[i].length,  // lint-ok: R6 as above
              b.occluders[i].length);
  }
  ASSERT_EQ(a.pedestrians.size(), b.pedestrians.size());
  for (std::size_t i = 0; i < a.pedestrians.size(); ++i) {
    EXPECT_EQ(a.pedestrians[i].arm, b.pedestrians[i].arm);
    EXPECT_EQ(a.pedestrians[i].crossing, b.pedestrians[i].crossing);
    EXPECT_EQ(a.pedestrians[i].walk_speed,  // lint-ok: R6 as above
              b.pedestrians[i].walk_speed);
  }
  EXPECT_EQ(a.expect.present, b.expect.present);
  EXPECT_EQ(a.expect.collisions, b.expect.collisions);
  EXPECT_EQ(a.expect.min_vehicle_gap,  // lint-ok: R6 as above
            b.expect.min_vehicle_gap);
  EXPECT_EQ(a.expect.min_ped_gap, b.expect.min_ped_gap);  // lint-ok: R6
}

// --- Property test over 200 seeds -----------------------------------------

TEST(ScenarioGen, TwoHundredSeedsSatisfyTheSpecContract) {
  const RoadNetwork net{RoadConfig{}};
  const GenConfig gen;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ScenarioSpec spec = generate_scenario(gen, seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    // The generator's own output must pass the spec contract wholesale.
    EXPECT_NO_THROW(spec.validate(net));

    EXPECT_EQ(spec.seed, seed);
    EXPECT_EQ(spec.duration, gen.duration);  // lint-ok: R6 copied verbatim
    EXPECT_TRUE(spec.maneuver.enabled);
    EXPECT_GE(spec.signal.green, gen.min_green);
    EXPECT_LE(spec.signal.green, gen.max_green);
    EXPECT_LE(static_cast<int>(spec.spawns.size()), gen.max_vehicles);
    EXPECT_LE(static_cast<int>(spec.pedestrians.size()),
              gen.max_pedestrians);
    EXPECT_LE(static_cast<int>(spec.occluders.size()), gen.max_occluders);

    for (const SpawnSpec& sp : spec.spawns) {
      EXPECT_TRUE(net.find_route(sp.arm, sp.lane, sp.maneuver).has_value());
      EXPECT_TRUE(std::isfinite(sp.time));
      EXPECT_TRUE(std::isfinite(sp.start_s));
      EXPECT_TRUE(std::isfinite(sp.desired_speed));
      EXPECT_TRUE(std::isfinite(sp.start_speed));
      EXPECT_GE(sp.time, 0.0);
      EXPECT_LE(sp.time, gen.max_spawn_time);
      EXPECT_GE(sp.desired_speed, kmh_to_ms(gen.min_speed_kmh) * 0.85 - 1e-9);
      EXPECT_LE(sp.desired_speed, kmh_to_ms(gen.max_speed_kmh) * 1.15 + 1e-9);
      EXPECT_GE(sp.lane_change, -1);
      EXPECT_LE(sp.lane_change, 1);
    }
    for (const PedSpec& pd : spec.pedestrians) {
      EXPECT_TRUE(std::isfinite(pd.walk_speed));
      EXPECT_GT(pd.walk_speed, 0.0);
    }
  }
}

TEST(ScenarioGen, PureFunctionOfSeed) {
  const GenConfig gen;
  EXPECT_EQ(emit_spec(generate_scenario(gen, 7)),
            emit_spec(generate_scenario(gen, 7)));
  EXPECT_NE(emit_spec(generate_scenario(gen, 7)),
            emit_spec(generate_scenario(gen, 8)));
}

// --- Config / spec contract rejection --------------------------------------

TEST(ScenarioGen, GenConfigValidateRejectsOutOfRange) {
  const auto bad = [](auto&& mutate) {
    GenConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  };
  bad([](GenConfig& c) { c.max_vehicles = c.min_vehicles - 1; });
  bad([](GenConfig& c) { c.min_speed_kmh = 0.0; });
  bad([](GenConfig& c) { c.max_speed_kmh = 500.0; });
  bad([](GenConfig& c) { c.min_connected = -0.1; });
  bad([](GenConfig& c) { c.max_connected = 1.5; });
  bad([](GenConfig& c) { c.max_pedestrians = -1; });
  bad([](GenConfig& c) { c.max_spawn_time = 0.0; });
  bad([](GenConfig& c) { c.lane_change_fraction = 2.0; });
  bad([](GenConfig& c) { c.duration = std::nan(""); });
  bad([](GenConfig& c) { c.min_green = 1.0; });
  EXPECT_NO_THROW(GenConfig{}.validate());
}

TEST(ScenarioGen, SpecValidateRejectsBrokenSpawns) {
  const RoadNetwork net{RoadConfig{}};
  const auto bad = [&net](auto&& mutate) {
    ScenarioSpec spec = generate_scenario(GenConfig{}, 1);
    mutate(spec);
    EXPECT_THROW(spec.validate(net), erpd::ContractViolation);
  };
  bad([](ScenarioSpec& s) { s.spawns.front().lane = 9; });
  bad([](ScenarioSpec& s) { s.spawns.front().start_s = 1.0e6; });
  bad([](ScenarioSpec& s) { s.spawns.front().desired_speed = -3.0; });
  bad([](ScenarioSpec& s) { s.spawns.front().lane_change = 2; });
  bad([](ScenarioSpec& s) { s.duration = kInf; });
  bad([](ScenarioSpec& s) {
    s.expect.present = true;
    s.expect.min_vehicle_gap = std::nan("");
  });
}

TEST(ScenarioGen, SpecValidateCapsAgentCounts) {
  // World's pair table holds every id a spec hands out, so the spec caps
  // its agent counts at the generator's: 500 spawns, 200 pedestrians, 50
  // occluders. The parser is total and accepts more; building rejects them.
  const RoadNetwork net{RoadConfig{}};
  ScenarioSpec spec = generate_scenario(GenConfig{}, 1);
  SpawnSpec late = spec.spawns.front();
  late.time = 3000.0;
  spec.spawns.resize(500, late);
  spec.pedestrians.resize(200, PedSpec{});
  OccluderSpec parked;
  parked.s = 10.0;
  spec.occluders.resize(50, parked);
  EXPECT_NO_THROW(spec.validate(net));

  const auto rejected = [&net](ScenarioSpec s) {
    EXPECT_THROW(s.validate(net), erpd::ContractViolation);
    const SpecParseResult parsed = try_parse_spec(emit_spec(s));
    ASSERT_EQ(parsed.status, SpecParseStatus::kOk);
    EXPECT_THROW((void)build_scenario(parsed.spec, search_world_config()),
                 erpd::ContractViolation);
  };
  ScenarioSpec more = spec;
  more.spawns.push_back(late);
  rejected(more);
  more = spec;
  more.pedestrians.push_back(PedSpec{});
  rejected(more);
  more = spec;
  more.occluders.push_back(parked);
  rejected(more);
}

TEST(ScenarioGen, ScenarioConfigInvariantsStillHold) {
  // The scripted-scenario config shares the fail-loudly convention the
  // generator follows; pin that its contract also rejects garbage.
  ScenarioConfig cfg;
  cfg.speed_kmh = -5.0;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  EXPECT_NO_THROW(ScenarioConfig{}.validate());
}

// --- Serialization round-trip ----------------------------------------------

TEST(ScenarioGen, EmitParseRoundTripIsIdentity) {
  const GenConfig gen;
  for (const std::uint64_t seed : {0ull, 5ull, 19ull, 101ull}) {
    ScenarioSpec spec = generate_scenario(gen, seed);
    SCOPED_TRACE("seed " + std::to_string(seed));

    const std::string text = emit_spec(spec);
    const SpecParseResult parsed = try_parse_spec(text);
    ASSERT_TRUE(parsed.ok()) << parsed.message << " at line " << parsed.line;
    expect_spec_eq(spec, parsed.spec);
    // emit is a fixed point over parse.
    EXPECT_EQ(emit_spec(parsed.spec), text);
  }
}

TEST(ScenarioGen, RoundTripPreservesExpectationsIncludingInf) {
  ScenarioSpec spec = generate_scenario(GenConfig{}, 3);
  spec.expect.present = true;
  spec.expect.collisions = 2;
  spec.expect.min_vehicle_gap = 0.0;
  spec.expect.min_ped_gap = kInf;

  const SpecParseResult parsed = try_parse_spec(emit_spec(spec));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.spec.expect.present);
  EXPECT_EQ(parsed.spec.expect.collisions, 2);
  EXPECT_EQ(parsed.spec.expect.min_vehicle_gap, 0.0);  // lint-ok: R6 exact
  EXPECT_EQ(parsed.spec.expect.min_ped_gap, kInf);     // lint-ok: R6 exact
}

// --- Malformed-input corpus -------------------------------------------------

struct MalformedCase {
  const char* name;
  const char* text;
  SpecParseStatus want;
};

TEST(ScenarioGen, TotalParserClassifiesMalformedInput) {
  const MalformedCase cases[] = {
      {"empty", "", SpecParseStatus::kBadHeader},
      {"comments-only", "# nothing here\n", SpecParseStatus::kBadHeader},
      {"wrong-magic", "erpd-pointcloud v1\nseed 1\n",
       SpecParseStatus::kBadHeader},
      {"wrong-version", "erpd-scenario v2\nseed 1\n",
       SpecParseStatus::kBadHeader},
      {"seed-missing-value", "erpd-scenario v1\nseed\n",
       SpecParseStatus::kBadSyntax},
      {"seed-not-a-number", "erpd-scenario v1\nseed banana\n",
       SpecParseStatus::kBadValue},
      {"duration-nan", "erpd-scenario v1\nduration nan\n",
       SpecParseStatus::kBadValue},
      {"duration-inf", "erpd-scenario v1\nduration inf\n",
       SpecParseStatus::kBadValue},
      {"signal-short", "erpd-scenario v1\nsignal 20.0 3.0\n",
       SpecParseStatus::kBadSyntax},
      {"spawn-short",
       "erpd-scenario v1\nspawn 0x0p+0 N 0 straight\n",
       SpecParseStatus::kBadSyntax},
      {"spawn-bad-arm",
       "erpd-scenario v1\n"
       "spawn 0x0p+0 Q 0 straight 0x1p+4 0x1p+3 0x0p+0 0 car 0 0x0p+0\n",
       SpecParseStatus::kBadValue},
      {"spawn-bad-kind",
       "erpd-scenario v1\n"
       "spawn 0x0p+0 N 0 straight 0x1p+4 0x1p+3 0x0p+0 0 boat 0 0x0p+0\n",
       SpecParseStatus::kBadValue},
      {"spawn-lane-out-of-range",
       "erpd-scenario v1\n"
       "spawn 0x0p+0 N 12 straight 0x1p+4 0x1p+3 0x0p+0 0 car 0 0x0p+0\n",
       SpecParseStatus::kBadValue},
      {"spawn-bad-lane-change",
       "erpd-scenario v1\n"
       "spawn 0x0p+0 N 0 straight 0x1p+4 0x1p+3 0x0p+0 0 car 5 0x0p+0\n",
       SpecParseStatus::kBadValue},
      {"spawn-inf-speed",
       "erpd-scenario v1\n"
       "spawn 0x0p+0 N 0 straight 0x1p+4 inf 0x0p+0 0 car 0 0x0p+0\n",
       SpecParseStatus::kBadValue},
      {"occluder-bad-bool-free-text",
       "erpd-scenario v1\nocclusion is heavy today\n",
       SpecParseStatus::kUnknownKey},
      {"ped-bad-bool",
       "erpd-scenario v1\nped N maybe 0 0x0p+0 0x1p+0 1\n",
       SpecParseStatus::kBadValue},
      {"expect-negative-collisions",
       "erpd-scenario v1\nexpect -1 0x0p+0 inf\n",
       SpecParseStatus::kBadValue},
      {"unknown-key", "erpd-scenario v1\nweather rain\n",
       SpecParseStatus::kUnknownKey},
      {"trailing-junk-token", "erpd-scenario v1\nseed 1 2\n",
       SpecParseStatus::kBadSyntax},
  };
  for (const MalformedCase& c : cases) {
    SCOPED_TRACE(c.name);
    SpecParseResult res;
    // Total parser: classification, never an exception.
    ASSERT_NO_THROW(res = try_parse_spec(c.text));
    EXPECT_EQ(res.status, c.want)
        << "got " << to_string(res.status) << " (" << res.message << ")";
    EXPECT_FALSE(res.ok());
  }
}

TEST(ScenarioGen, ParserAcceptsCommentsAndBlankLines) {
  const char* text =
      "# anchor comment\n"
      "\n"
      "erpd-scenario v1\n"
      "seed 42   # trailing comment\n"
      "duration 0x1.cp+3\n";
  const SpecParseResult res = try_parse_spec(text);
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_EQ(res.spec.seed, 42u);
}

// --- Spec -> world construction ---------------------------------------------

TEST(ScenarioGen, BuildScenarioMatchesSpecCounts) {
  const ScenarioSpec spec = generate_scenario(GenConfig{}, 3);
  Scenario sc = build_scenario(spec, search_world_config());

  std::size_t t0_spawns = 0;
  std::size_t deferred = 0;
  for (const SpawnSpec& sp : spec.spawns) {
    if (sp.time == 0.0) {  // lint-ok: R6 spec distinguishes t=0 exactly
      ++t0_spawns;
    } else {
      ++deferred;
    }
  }
  EXPECT_EQ(sc.world.vehicles().size(), t0_spawns + spec.occluders.size());
  EXPECT_EQ(sc.world.pending_vehicles(), deferred);
  EXPECT_EQ(sc.world.pedestrians().size(), spec.pedestrians.size());
  EXPECT_EQ(sc.world.config().seed, spec.seed);
  EXPECT_TRUE(sc.world.config().maneuver.enabled);

  // Occluders materialize as parked vehicles.
  std::size_t parked = 0;
  for (const Vehicle& v : sc.world.vehicles()) {
    if (v.params().parked) ++parked;
  }
  EXPECT_EQ(parked, spec.occluders.size());
}

}  // namespace
}  // namespace erpd::sim
