#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "track/tracker.hpp"

namespace erpd::track {
namespace {

using geom::Vec2;

Detection det(Vec2 pos, sim::AgentKind kind = sim::AgentKind::kCar,
              std::optional<Vec2> vel = std::nullopt) {
  Detection d;
  d.position = pos;
  d.velocity = vel;
  d.kind = kind;
  d.payload_bytes = 1000;
  d.point_count = 100;
  return d;
}

TEST(Tracker, NewDetectionStartsTrack) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  ASSERT_EQ(mot.tracks().size(), 1u);
  EXPECT_EQ(mot.tracks()[0].hits, 1);
  EXPECT_TRUE(mot.confirmed().empty());  // needs confirm_hits updates
}

TEST(Tracker, TrackConfirmsAfterHits) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  mot.step({det({5.5, 5.0})}, 0.1);
  EXPECT_EQ(mot.confirmed().size(), 1u);
}

TEST(Tracker, AssociationWithinGate) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  mot.step({det({6.0, 5.0})}, 0.1);  // 1 m jump, inside the 3.5 m gate
  EXPECT_EQ(mot.tracks().size(), 1u);
  EXPECT_EQ(mot.tracks()[0].hits, 2);
}

TEST(Tracker, FarDetectionStartsNewTrack) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0})}, 0.0);
  mot.step({det({25.0, 5.0})}, 0.1);  // far outside the gate
  EXPECT_EQ(mot.tracks().size(), 2u);
}

TEST(Tracker, UnambiguousKindMismatchBlocksAssociation) {
  // A track confirmed as car-sized never absorbs a clearly pedestrian-sized
  // detection (and vice versa) — but kind is advisory for partial views.
  MultiObjectTracker mot;
  Detection car = det({5.0, 5.0}, sim::AgentKind::kCar);
  car.extent = 4.2;
  mot.step({car}, 0.0);
  Detection ped = det({5.2, 5.0}, sim::AgentKind::kPedestrian);
  ped.extent = 0.5;
  mot.step({ped}, 0.1);
  EXPECT_EQ(mot.tracks().size(), 2u);
}

TEST(Tracker, PartialViewStillAssociates) {
  // A far, partially occluded car looks pedestrian-sized; it must still
  // associate with its track rather than spawning a duplicate.
  MultiObjectTracker mot;
  Detection full = det({5.0, 5.0}, sim::AgentKind::kCar);
  full.extent = 4.2;
  mot.step({full}, 0.0);
  Detection partial = det({5.4, 5.0}, sim::AgentKind::kPedestrian);
  partial.extent = 0.0;  // unknown extent
  mot.step({partial}, 0.1);
  EXPECT_EQ(mot.tracks().size(), 1u);
}

TEST(Tracker, KindUpgradesWithExtent) {
  MultiObjectTracker mot;
  Detection d = det({5.0, 5.0}, sim::AgentKind::kPedestrian);
  d.extent = 0.9;
  mot.step({d}, 0.0);
  EXPECT_EQ(mot.tracks()[0].kind, sim::AgentKind::kPedestrian);
  d.position = {5.3, 5.0};
  d.extent = 3.8;  // clearly a car after all
  mot.step({d}, 0.1);
  EXPECT_EQ(mot.tracks()[0].kind, sim::AgentKind::kCar);
}

TEST(Tracker, MissedTracksEventuallyDropped) {
  TrackerConfig cfg;
  cfg.max_misses = 2;
  MultiObjectTracker mot(cfg);
  mot.step({det({5.0, 5.0})}, 0.0);
  mot.step({}, 0.1);
  mot.step({}, 0.2);
  EXPECT_EQ(mot.tracks().size(), 1u);
  mot.step({}, 0.3);  // third miss > max
  EXPECT_TRUE(mot.tracks().empty());
}

TEST(Tracker, ReacquireResetsMisses) {
  TrackerConfig cfg;
  cfg.max_misses = 2;
  MultiObjectTracker mot(cfg);
  mot.step({det({5.0, 5.0})}, 0.0);
  mot.step({}, 0.1);
  mot.step({det({5.1, 5.0})}, 0.2);
  EXPECT_EQ(mot.tracks()[0].misses, 0);
}

TEST(Tracker, GreedyPicksGloballyNearestPairs) {
  MultiObjectTracker mot;
  mot.step({det({0.0, 0.0}), det({3.0, 0.0})}, 0.0);
  // Next frame both moved right; naive row-order matching would cross them.
  mot.step({det({1.0, 0.0}), det({4.0, 0.0})}, 0.1);
  ASSERT_EQ(mot.tracks().size(), 2u);
  EXPECT_LT(distance(mot.tracks()[0].position(), Vec2(1.0, 0.0)), 1.0);
  EXPECT_LT(distance(mot.tracks()[1].position(), Vec2(4.0, 0.0)), 1.0);
}

TEST(Tracker, CoastingPredictsForward) {
  MultiObjectTracker mot;
  mot.step({det({0.0, 0.0}, sim::AgentKind::kCar, Vec2{10.0, 0.0})}, 0.0);
  mot.step({det({1.0, 0.0}, sim::AgentKind::kCar, Vec2{10.0, 0.0})}, 0.1);
  // Missed frame: the track should coast along its velocity.
  mot.step({}, 0.2);
  ASSERT_EQ(mot.tracks().size(), 1u);
  EXPECT_GT(mot.tracks()[0].position().x, 1.5);
}

TEST(Tracker, PayloadMetadataFollowsLatestDetection) {
  MultiObjectTracker mot;
  Detection d = det({5.0, 5.0});
  d.payload_bytes = 777;
  d.truth_id = 42;
  mot.step({d}, 0.0);
  EXPECT_EQ(mot.tracks()[0].payload_bytes, 777u);
  EXPECT_EQ(mot.tracks()[0].truth_id, 42);
  d.position = {5.3, 5.0};
  d.payload_bytes = 999;
  mot.step({d}, 0.1);
  EXPECT_EQ(mot.tracks()[0].payload_bytes, 999u);
}

TEST(Tracker, FindById) {
  MultiObjectTracker mot;
  mot.step({det({5.0, 5.0}), det({50.0, 5.0})}, 0.0);
  const int id = mot.tracks()[1].id;
  ASSERT_NE(mot.find(id), nullptr);
  EXPECT_EQ(mot.find(id)->id, id);
  EXPECT_EQ(mot.find(12345), nullptr);
}

TEST(Tracker, YawRateEstimatedForTurningObject) {
  // An object moving on a circle at ~0.3 rad/s: the smoothed yaw-rate
  // estimate should converge to roughly that value.
  MultiObjectTracker mot;
  const double omega = 0.3;
  const double speed = 8.0;
  const double radius = speed / omega;
  for (int k = 0; k < 40; ++k) {
    const double t = 0.1 * k;
    const double ang = omega * t;
    Detection d;
    d.position = {radius * std::cos(ang), radius * std::sin(ang)};
    d.velocity = Vec2{-std::sin(ang), std::cos(ang)} * speed;
    d.kind = sim::AgentKind::kCar;
    d.extent = 4.5;
    mot.step({d}, t);
  }
  ASSERT_EQ(mot.tracks().size(), 1u);
  EXPECT_NEAR(mot.tracks()[0].yaw_rate, omega, 0.12);
}

TEST(Tracker, YawRateNearZeroForStraightMotion) {
  MultiObjectTracker mot;
  for (int k = 0; k < 20; ++k) {
    const double t = 0.1 * k;
    Detection d;
    d.position = {8.0 * t, 0.0};
    d.velocity = Vec2{8.0, 0.0};
    d.extent = 4.5;
    mot.step({d}, t);
  }
  EXPECT_NEAR(mot.tracks()[0].yaw_rate, 0.0, 0.05);
}

TEST(Tracker, ManyObjectsStableIdentity) {
  MultiObjectTracker mot;
  std::vector<Detection> frame;
  for (int i = 0; i < 10; ++i) frame.push_back(det({i * 10.0, 0.0}));
  mot.step(frame, 0.0);
  const auto ids_before = [&] {
    std::vector<int> v;
    for (const auto& t : mot.tracks()) v.push_back(t.id);
    return v;
  }();
  // All objects drift slightly; identities must persist.
  for (auto& d : frame) d.position += Vec2{0.4, 0.1};
  mot.step(frame, 0.1);
  const auto ids_after = [&] {
    std::vector<int> v;
    for (const auto& t : mot.tracks()) v.push_back(t.id);
    return v;
  }();
  EXPECT_EQ(ids_before, ids_after);
}


// ---------------------------------------------------------------------------
// Association equivalence (DESIGN.md §20): associate, which sorts the gated
// pairs once, against associate_reference, which rescans every free pair for
// each match. Both must return the same matches in the same order.
// ---------------------------------------------------------------------------

Track track_at(Vec2 pos, sim::AgentKind kind = sim::AgentKind::kCar,
               double max_extent = 0.0) {
  Track tr{0, kind, KalmanCV(pos)};
  tr.max_extent = max_extent;
  return tr;
}

Detection det_at(Vec2 pos, sim::AgentKind kind = sim::AgentKind::kCar,
                 double extent = 0.0) {
  Detection d = det(pos, kind);
  d.extent = extent;
  return d;
}

/// Matches of both association paths; fails the test when they differ.
std::vector<Match> expect_same_association(const std::vector<Track>& tracks,
                                           const std::vector<Detection>& dets,
                                           double gate) {
  const std::vector<Match> fast = associate(tracks, dets, gate);
  const std::vector<Match> ref = associate_reference(tracks, dets, gate);
  EXPECT_EQ(fast.size(), ref.size());
  for (std::size_t k = 0; k < std::min(fast.size(), ref.size()); ++k) {
    EXPECT_EQ(fast[k], ref[k])
        << "match " << k << ": (" << fast[k].track << ", "
        << fast[k].detection << ") vs (" << ref[k].track << ", "
        << ref[k].detection << ")";
  }
  return ref;
}

/// Number of matches whose distance equals another gated pair's distance
/// that shares its track or detection: the ties the order must break.
std::size_t contested_ties(const std::vector<Track>& tracks,
                           const std::vector<Detection>& dets,
                           const std::vector<Match>& matches, double gate) {
  std::size_t ties = 0;
  for (const Match& m : matches) {
    const double d = distance(tracks[m.track].position(),
                              dets[m.detection].position);
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      for (std::size_t j = 0; j < dets.size(); ++j) {
        if ((i == m.track) == (j == m.detection)) continue;
        const double e = distance(tracks[i].position(), dets[j].position);
        if (e == d && e < gate) ++ties;
      }
    }
  }
  return ties;
}

TEST(Association, EmptySets) {
  const std::vector<Track> none_t;
  const std::vector<Detection> none_d;
  const std::vector<Track> some_t = {track_at({0.0, 0.0})};
  const std::vector<Detection> some_d = {det_at({0.5, 0.0})};
  EXPECT_TRUE(expect_same_association(none_t, none_d, 3.5).empty());
  EXPECT_TRUE(expect_same_association(some_t, none_d, 3.5).empty());
  EXPECT_TRUE(expect_same_association(none_t, some_d, 3.5).empty());
  EXPECT_EQ(expect_same_association(some_t, some_d, 3.5).size(), 1u);
}

TEST(Association, PairExactlyAtGateIsExcluded) {
  const std::vector<Track> tracks = {track_at({0.0, 0.0}),
                                     track_at({10.0, 0.0})};
  const std::vector<Detection> dets = {det_at({3.5, 0.0}),
                                       det_at({10.0, 3.5 - 0x1p-50})};
  const std::vector<Match> m = expect_same_association(tracks, dets, 3.5);
  ASSERT_EQ(m.size(), 1u) << "only the pair just inside the gate matches";
  EXPECT_EQ(m[0], (Match{1, 1}));
}

TEST(Association, LatticeAtGateDistance) {
  // Detections halfway between the points of a 4 m track lattice, with
  // gate 2: each sits exactly on the gate from two tracks (excluded) and
  // beyond it from the rest.
  std::vector<Track> tracks;
  std::vector<Detection> dets;
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 6; ++y) {
      tracks.push_back(track_at({4.0 * x, 4.0 * y}));
      dets.push_back(det_at({4.0 * x + 2.0, 4.0 * y}));
    }
  }
  EXPECT_EQ(expect_same_association(tracks, dets, 2.0).size(), 0u);
  dets.push_back(det_at({1.0, 0.0}));  // inside the gate of track 0 only
  const std::vector<Match> m = expect_same_association(tracks, dets, 2.0);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], (Match{0, dets.size() - 1}));
}

TEST(Association, LatticeTiesBreakAtLowestIndices) {
  // Detections on the centres of a track lattice: every detection is
  // equidistant from four tracks, every inner track from four detections,
  // and many more pairs tie at larger distances.
  for (const double spacing : {1.0, 1.5, 2.0}) {
    SCOPED_TRACE(spacing);
    std::vector<Track> tracks;
    std::vector<Detection> dets;
    for (int x = 0; x < 9; ++x) {
      for (int y = 0; y < 9; ++y) {
        tracks.push_back(track_at({spacing * x, spacing * y}));
        if (x < 8 && y < 8) {
          dets.push_back(
              det_at({spacing * (x + 0.5), spacing * (y + 0.5)}));
        }
      }
    }
    const std::vector<Match> m = expect_same_association(tracks, dets, 3.5);
    EXPECT_EQ(m.size(), dets.size());
    EXPECT_GT(contested_ties(tracks, dets, m, 3.5), 100u);
  }
}

TEST(Association, KindGatingNeedsBothExtents) {
  using sim::AgentKind;
  // A pedestrian track larger than 1.6 m never takes a car detection with an
  // extent, nor a car track a pedestrian one; 1.6 m itself, or a detection
  // with no extent, is not gated.
  struct Case {
    AgentKind track_kind;
    double max_extent;
    AgentKind det_kind;
    double extent;
    bool matches;
  };
  const Case cases[] = {
      {AgentKind::kPedestrian, 1.7, AgentKind::kCar, 4.2, false},
      {AgentKind::kCar, 4.5, AgentKind::kPedestrian, 0.5, false},
      {AgentKind::kCar, 1.6, AgentKind::kPedestrian, 0.5, true},
      {AgentKind::kCar, 4.5, AgentKind::kPedestrian, 0.0, true},
      {AgentKind::kPedestrian, 1.7, AgentKind::kPedestrian, 0.5, true},
      {AgentKind::kCar, 4.5, AgentKind::kCar, 4.2, true},
  };
  for (const Case& c : cases) {
    const std::vector<Track> tracks = {
        track_at({0.0, 0.0}, c.track_kind, c.max_extent)};
    const std::vector<Detection> dets = {
        det_at({0.5, 0.0}, c.det_kind, c.extent)};
    EXPECT_EQ(expect_same_association(tracks, dets, 3.5).size(),
              c.matches ? 1u : 0u)
        << c.max_extent << " / " << c.extent;
  }
}

TEST(Association, SeededRandomSets) {
  using sim::AgentKind;
  std::mt19937_64 rng(20261020);
  std::uniform_real_distribution<double> coord(0.0, 20.0);
  std::uniform_int_distribution<int> count(0, 40);
  std::uniform_int_distribution<int> lattice(0, 12);
  const double extents[] = {0.0, 0.5, 1.4, 1.6, 1.7, 4.2};
  std::uniform_int_distribution<int> pick_extent(0, 5);
  std::bernoulli_distribution coin(0.5);
  std::size_t matched = 0;
  std::size_t ties = 0;
  for (int trial = 0; trial < 600; ++trial) {
    // Half the trials snap positions to a half-metre lattice to force ties.
    const bool snap = trial % 2 == 1;
    const auto point = [&] {
      return snap ? Vec2{0.5 * lattice(rng), 0.5 * lattice(rng)}
                  : Vec2{coord(rng), coord(rng)};
    };
    std::vector<Track> tracks;
    std::vector<Detection> dets;
    const int nt = count(rng);
    const int nd = count(rng);
    for (int i = 0; i < nt; ++i) {
      tracks.push_back(
          track_at(point(), coin(rng) ? AgentKind::kCar : AgentKind::kPedestrian,
                   extents[pick_extent(rng)]));
    }
    for (int j = 0; j < nd; ++j) {
      dets.push_back(
          det_at(point(), coin(rng) ? AgentKind::kCar : AgentKind::kPedestrian,
                 extents[pick_extent(rng)]));
    }
    const double gate = trial % 3 == 0 ? 1.0 : 3.5;
    const std::vector<Match> m = expect_same_association(tracks, dets, gate);
    if (::testing::Test::HasFailure()) {
      FAIL() << "trial " << trial;
    }
    matched += m.size();
    if (snap) ties += contested_ties(tracks, dets, m, gate);
  }
  EXPECT_GT(matched, 3000u);
  EXPECT_GT(ties, 1000u);
}

TEST(Association, TrackerStepSameEitherWay) {
  // A crowd of objects walking through a 30 m square, with births, deaths,
  // dropouts and detections snapped to a 0.25 m grid (ties), stepped through
  // a tracker on each association path.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coord(0.0, 30.0);
  std::uniform_real_distribution<double> vel(-2.0, 2.0);
  std::bernoulli_distribution seen(0.85);
  std::bernoulli_distribution with_velocity(0.5);
  struct Walker {
    Vec2 pos;
    Vec2 vel;
    sim::AgentKind kind;
    double extent;
  };
  std::vector<Walker> walkers;
  for (int i = 0; i < 40; ++i) {
    const bool car = i % 4 == 0;
    walkers.push_back({{coord(rng), coord(rng)},
                       {vel(rng), vel(rng)},
                       car ? sim::AgentKind::kCar : sim::AgentKind::kPedestrian,
                       car ? 4.2 : 0.6});
  }
  MultiObjectTracker fast;
  MultiObjectTracker ref;
  ref.set_reference_association(true);
  const auto snap = [](double v) { return 0.25 * std::round(4.0 * v); };
  for (int frame = 0; frame < 80; ++frame) {
    const double t = 0.1 * frame;
    std::vector<Detection> dets;
    for (std::size_t i = 0; i < walkers.size(); ++i) {
      Walker& w = walkers[i];
      w.pos += w.vel * 0.1;
      if (frame % 20 == 10 && i % 7 == 0) w.pos = {coord(rng), coord(rng)};
      if (!seen(rng)) continue;
      Detection d = det_at({snap(w.pos.x), snap(w.pos.y)}, w.kind,
                           i % 3 == 0 ? 0.0 : w.extent);
      if (with_velocity(rng)) d.velocity = w.vel;
      d.truth_id = static_cast<sim::AgentId>(i);
      dets.push_back(d);
    }
    fast.step(dets, t);
    ref.step(dets, t);
    ASSERT_EQ(fast.tracks().size(), ref.tracks().size()) << "frame " << frame;
    for (std::size_t k = 0; k < ref.tracks().size(); ++k) {
      const Track& a = fast.tracks()[k];
      const Track& b = ref.tracks()[k];
      ASSERT_EQ(a.id, b.id) << "frame " << frame;
      ASSERT_EQ(a.hits, b.hits) << "frame " << frame;
      ASSERT_EQ(a.misses, b.misses) << "frame " << frame;
      ASSERT_EQ(a.kind, b.kind) << "frame " << frame;
      ASSERT_EQ(a.truth_id, b.truth_id) << "frame " << frame;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.position().x),
                std::bit_cast<std::uint64_t>(b.position().x))
          << "frame " << frame;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.position().y),
                std::bit_cast<std::uint64_t>(b.position().y))
          << "frame " << frame;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.yaw_rate),
                std::bit_cast<std::uint64_t>(b.yaw_rate))
          << "frame " << frame;
    }
  }
  EXPECT_GT(ref.confirmed().size(), 20u);
}

}  // namespace
}  // namespace erpd::track
