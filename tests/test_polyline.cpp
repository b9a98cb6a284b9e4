#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "core/check.hpp"
#include "core/rng.hpp"

#include "geom/polyline.hpp"

namespace erpd::geom {
namespace {

Polyline lshape() {
  // 10 m east then 10 m north.
  return Polyline{{{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}}};
}

TEST(Polyline, LengthAccumulates) {
  EXPECT_DOUBLE_EQ(lshape().length(), 20.0);
  EXPECT_DOUBLE_EQ(Polyline{}.length(), 0.0);
}

TEST(Polyline, PointAtWalksSegments) {
  const Polyline p = lshape();
  EXPECT_EQ(p.point_at(0.0), Vec2(0.0, 0.0));
  EXPECT_EQ(p.point_at(5.0), Vec2(5.0, 0.0));
  EXPECT_EQ(p.point_at(10.0), Vec2(10.0, 0.0));
  EXPECT_EQ(p.point_at(15.0), Vec2(10.0, 5.0));
  EXPECT_EQ(p.point_at(20.0), Vec2(10.0, 10.0));
  // Clamped outside.
  EXPECT_EQ(p.point_at(-3.0), Vec2(0.0, 0.0));
  EXPECT_EQ(p.point_at(99.0), Vec2(10.0, 10.0));
}

TEST(Polyline, TangentFollowsSegmentDirection) {
  const Polyline p = lshape();
  EXPECT_NEAR(p.tangent_at(5.0).x, 1.0, 1e-12);
  EXPECT_NEAR(p.tangent_at(15.0).y, 1.0, 1e-12);
  EXPECT_NEAR(p.heading_at(15.0), std::numbers::pi / 2.0, 1e-12);
}

TEST(Polyline, ProjectFindsClosestArcLength) {
  const Polyline p = lshape();
  double d = 0.0;
  EXPECT_NEAR(p.project({5.0, 2.0}, &d), 5.0, 1e-12);
  EXPECT_NEAR(d, 2.0, 1e-12);
  EXPECT_NEAR(p.project({12.0, 5.0}, &d), 15.0, 1e-12);
  EXPECT_NEAR(d, 2.0, 1e-12);
  // Corner region projects to the corner.
  EXPECT_NEAR(p.project({11.0, -1.0}, &d), 10.0, 1e-12);
}

TEST(Polyline, SliceKeepsGeometry) {
  const Polyline p = lshape();
  const Polyline s = p.slice(5.0, 15.0);
  EXPECT_NEAR(s.length(), 10.0, 1e-12);
  EXPECT_EQ(s.point_at(0.0), Vec2(5.0, 0.0));
  EXPECT_EQ(s.point_at(5.0), Vec2(10.0, 0.0));  // corner preserved
  EXPECT_EQ(s.point_at(10.0), Vec2(10.0, 5.0));
}

TEST(Polyline, SliceClampsBeyondEnds) {
  const Polyline p = lshape();
  const Polyline s = p.slice(-5.0, 100.0);
  EXPECT_NEAR(s.length(), 20.0, 1e-12);
}

TEST(Polyline, PushBackExtends) {
  Polyline p;
  p.push_back({0.0, 0.0});
  EXPECT_DOUBLE_EQ(p.length(), 0.0);
  p.push_back({3.0, 4.0});
  EXPECT_DOUBLE_EQ(p.length(), 5.0);
  p.push_back({3.0, 14.0});
  EXPECT_DOUBLE_EQ(p.length(), 15.0);
}

TEST(Polyline, CircleIntervalsStraightThrough) {
  const Polyline p{{{-10.0, 0.0}, {10.0, 0.0}}};
  const auto ivs = p.circle_intervals({0.0, 0.0}, 4.0);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_NEAR(ivs[0].lo, 6.0, 1e-9);
  EXPECT_NEAR(ivs[0].hi, 14.0, 1e-9);
}

TEST(Polyline, CircleIntervalsMergeAcrossVertices) {
  // Vertex inside the circle must not split the interval.
  const Polyline p{{{-10.0, 0.0}, {0.0, 0.0}, {10.0, 0.0}}};
  const auto ivs = p.circle_intervals({0.0, 0.0}, 4.0);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_NEAR(ivs[0].lo, 6.0, 1e-9);
  EXPECT_NEAR(ivs[0].hi, 14.0, 1e-9);
}

TEST(Polyline, CircleIntervalsReentry) {
  // A U-shaped path that enters the disk twice.
  const Polyline p{{{-10.0, 3.0}, {10.0, 3.0}, {10.0, -3.0}, {-10.0, -3.0}}};
  const auto ivs = p.circle_intervals({0.0, 0.0}, 4.0);
  EXPECT_EQ(ivs.size(), 2u);
}

TEST(Polyline, FirstCrossingBasic) {
  const Polyline a{{{0.0, 0.0}, {10.0, 0.0}}};
  const Polyline b{{{5.0, -5.0}, {5.0, 5.0}}};
  const auto c = a.first_crossing(b);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->s_this, 5.0, 1e-12);
  EXPECT_NEAR(c->s_other, 5.0, 1e-12);
  EXPECT_NEAR(c->point.x, 5.0, 1e-12);
}

TEST(Polyline, FirstCrossingPicksEarliest) {
  const Polyline a{{{0.0, 0.0}, {20.0, 0.0}}};
  // b crosses a twice; the earliest crossing along `a` is at x = 5.
  const Polyline b{{{5.0, -5.0}, {5.0, 5.0}, {15.0, 5.0}, {15.0, -5.0}}};
  const auto c = a.first_crossing(b);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->s_this, 5.0, 1e-9);
}

TEST(Polyline, NoCrossing) {
  const Polyline a{{{0.0, 0.0}, {10.0, 0.0}}};
  const Polyline b{{{0.0, 5.0}, {10.0, 5.0}}};
  EXPECT_FALSE(a.first_crossing(b).has_value());
}

TEST(Polyline, ResampledPreservesEndpointsAndLength) {
  const Polyline p = lshape();
  const Polyline r = p.resampled(0.5);
  EXPECT_EQ(r.points().front(), p.points().front());
  EXPECT_EQ(r.points().back(), p.points().back());
  EXPECT_NEAR(r.length(), p.length(), 0.1);
  EXPECT_GT(r.size(), p.size());
}

TEST(Polyline, ProjectOnEmptyThrows) {
  Polyline p;
  EXPECT_THROW(p.project({0.0, 0.0}), erpd::ContractViolation);
}


// --- first_crossing rejects: bit-identical to the plain pair loop ---------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Reference: the plain O(|A|·|B|) pair loop, which the rejects must
// reproduce exactly.
std::optional<Polyline::Crossing> first_crossing_ref(const Polyline& a,
                                                     const Polyline& b) {
  if (a.empty() || b.empty()) return std::nullopt;
  const auto& pa = a.points();
  const auto& pb = b.points();
  std::vector<double> ca{0.0}, cb{0.0};
  for (std::size_t i = 1; i < pa.size(); ++i) {
    ca.push_back(ca.back() + distance(pa[i - 1], pa[i]));
  }
  for (std::size_t j = 1; j < pb.size(); ++j) {
    cb.push_back(cb.back() + distance(pb[j - 1], pb[j]));
  }
  for (std::size_t i = 0; i + 1 < pa.size(); ++i) {
    const Segment sa{pa[i], pa[i + 1]};
    std::optional<Polyline::Crossing> best;
    for (std::size_t j = 0; j + 1 < pb.size(); ++j) {
      if (const auto hit = intersect(sa, Segment{pb[j], pb[j + 1]})) {
        Polyline::Crossing c;
        c.s_this = ca[i] + hit->t_first * (ca[i + 1] - ca[i]);
        c.s_other = cb[j] + hit->t_second * (cb[j + 1] - cb[j]);
        c.point = hit->point;
        if (!best || c.s_this < best->s_this) best = c;
      }
    }
    if (best) return best;
  }
  return std::nullopt;
}

void expect_same_crossing(const Polyline& a, const Polyline& b) {
  const auto got = a.first_crossing(b);
  const auto want = first_crossing_ref(a, b);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;
  EXPECT_TRUE(same_bits(got->s_this, want->s_this));
  EXPECT_TRUE(same_bits(got->s_other, want->s_other));
  EXPECT_TRUE(same_bits(got->point.x, want->point.x));
  EXPECT_TRUE(same_bits(got->point.y, want->point.y));
}

void expect_same_both_ways(const Polyline& a, const Polyline& b) {
  expect_same_crossing(a, b);
  expect_same_crossing(b, a);
}

TEST(FirstCrossingRejects, TouchingEndpoints) {
  const Polyline a{{{0.0, 0.0}, {5.0, 5.0}}};
  const Polyline b{{{5.0, 5.0}, {10.0, 0.0}}};
  ASSERT_TRUE(a.first_crossing(b).has_value());
  expect_same_both_ways(a, b);
  // Boxes meet in one corner point only.
  expect_same_both_ways(Polyline{{{0.0, 0.0}, {3.0, 3.0}}},
                        Polyline{{{3.0, 3.0}, {6.0, 7.0}}});
}

TEST(FirstCrossingRejects, CollinearOverlapsAndGaps) {
  const Polyline a{{{0.0, 0.0}, {10.0, 0.0}}};
  expect_same_both_ways(a, Polyline{{{5.0, 0.0}, {15.0, 0.0}}});
  expect_same_both_ways(a, Polyline{{{10.0, 0.0}, {15.0, 0.0}}});
  expect_same_both_ways(a, Polyline{{{10.5, 0.0}, {15.0, 0.0}}});
  // Diagonal collinear pieces, overlapping, touching and apart.
  const Vec2 d = Vec2::from_heading(0.61);
  const Polyline diag{{d * 1.0, d * 40.0}};
  for (double start : {20.0, 40.0, 40.0 + 1e-9, 41.0, 400.0}) {
    expect_same_both_ways(diag, Polyline{{d * start, d * (start + 30.0)}});
  }
}

TEST(FirstCrossingRejects, TJunctionsAndPaddedBoxFaces) {
  const Polyline a{{{0.0, 0.0}, {10.0, 0.0}}};
  // Stem ending exactly on a, and stems stopping 1e-13 and 1e-7 short: the
  // first is within intersect()'s parameter slack, the second is not.
  for (double gap : {0.0, 1e-13, 1e-7, -1e-13}) {
    SCOPED_TRACE(gap);
    expect_same_both_ways(a, Polyline{{{5.0, gap}, {5.0, 5.0}}});
    expect_same_both_ways(a, Polyline{{{10.0 + gap, -3.0}, {10.0 + gap, 3.0}}});
  }
  ASSERT_TRUE(a.first_crossing(Polyline{{{5.0, 1e-13}, {5.0, 5.0}}}));
  // A crossing on the face of the other polyline's box.
  const Polyline box_face{{{2.0, 0.0}, {2.0, -4.0}, {8.0, -4.0}, {8.0, 0.0}}};
  expect_same_both_ways(a, box_face);
}

TEST(FirstCrossingRejects, DegeneratePolylines) {
  const Polyline a{{{0.0, 0.0}, {10.0, 0.0}}};
  // Zero-length segments at the crossing, before it and as a whole path.
  expect_same_both_ways(a, Polyline{{{5.0, 0.0}, {5.0, 0.0}}});
  expect_same_both_ways(a, Polyline{{{5.0, 1e-10}, {5.0, 1e-10}}});
  expect_same_both_ways(a, Polyline{{{5.0, -2.0}, {5.0, -2.0}, {5.0, 2.0}}});
  expect_same_both_ways(Polyline{{{0.0, 0.0}, {0.0, 0.0}, {10.0, 0.0}}},
                        Polyline{{{3.0, -1.0}, {3.0, 1.0}}});
  // Single-point and empty polylines never cross.
  expect_same_both_ways(a, Polyline{{{5.0, 0.0}}});
  expect_same_both_ways(a, Polyline{});
  expect_same_both_ways(Polyline{}, Polyline{});
}

TEST(FirstCrossingRejects, NonFiniteInputFallsBackToTheLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Polyline a{{{0.0, 0.0}, {10.0, 0.0}}};
  const auto got = a.first_crossing(Polyline{{{500.0, nan}, {600.0, 1.0}}});
  const auto want = first_crossing_ref(a, Polyline{{{500.0, nan}, {600.0, 1.0}}});
  EXPECT_EQ(got.has_value(), want.has_value());
  expect_same_both_ways(a, Polyline{{{500.0, inf}, {600.0, 1.0}}});
}

// Two segments on one line, 27 m apart, that intersect() reports as a
// crossing: |r x s| is rounding noise above its 1e-12 threshold, and t and u
// are ratios of noise. A fixed reject margin would drop this "hit"; the reach
// of nearly parallel long segments is unbounded, so first_crossing keeps it.
TEST(FirstCrossingRejects, RoundingCrossingOfFarCollinearSegments) {
  const Polyline a{{{171.67926139941557, 210.63722195085111},
                    {99.499368730353382, 275.57664367419875}}};
  const Polyline b{{{79.450872958459328, 293.6140454173551},
                    {20.298691879833257, 346.83258441592017}}};
  ASSERT_TRUE(first_crossing_ref(a, b).has_value());
  EXPECT_GT(b.points()[0].y - a.points()[1].y, 18.0);
  expect_same_crossing(a, b);
  // A 10 m segment and a 1.2 km one, 398 m apart on both axes: the reach
  // must come from the longest segment of the other polyline, not from the
  // row's own length.
  const Polyline c{{{125.08900461433154, 204.64425985755196},
                    {133.42727186827176, 209.92237835559092}}};
  const Polyline d{{{531.77100159107954, 462.07373599338479},
                    {1532.4580073460741, 1095.5080497384606}}};
  ASSERT_TRUE(first_crossing_ref(c, d).has_value());
  EXPECT_GT(d.points()[0].x - c.points()[1].x, 398.0);
  expect_same_crossing(c, d);
}

// Seeded polylines: grid-snapped ones make touching endpoints, collinear
// runs and T-junctions common; long diagonal runs on one line exercise the
// nearly-parallel case whose rounding defeats small margins.
TEST(FirstCrossingRejects, SeededPolylines) {
  std::mt19937_64 rng = core::seeded_rng(0xc0055);
  std::uniform_int_distribution<int> grid(-12, 12);
  std::uniform_int_distribution<int> npts(1, 7);
  std::uniform_real_distribution<double> real(-30.0, 30.0);
  std::uniform_real_distribution<double> angle(-3.2, 3.2);
  std::uniform_real_distribution<double> far(-1e6, 1e6);
  int crossings = 0;
  for (int i = 0; i < 20000; ++i) {
    const int kind = i % 4;
    const Vec2 base = i % 5 == 0 ? Vec2{far(rng), far(rng)} : Vec2{};
    const auto random_polyline = [&]() {
      std::vector<Vec2> pts;
      const int n = npts(rng);
      if (kind == 3) {
        // Pieces of one long line through `base`.
        const Vec2 dir = Vec2::from_heading(0.37);
        double s = real(rng) * 10.0;
        for (int k = 0; k < n; ++k) {
          pts.push_back(base + dir * s);
          s += std::abs(real(rng)) * 3.0;
        }
        return Polyline{std::move(pts)};
      }
      for (int k = 0; k < n; ++k) {
        if (kind == 0) {
          pts.push_back(base + Vec2{0.5 * grid(rng), 0.5 * grid(rng)});
        } else if (kind == 1) {
          pts.push_back(base + Vec2{real(rng), real(rng)});
        } else {
          pts.push_back(base + Vec2::from_heading(angle(rng)) * real(rng));
        }
      }
      return Polyline{std::move(pts)};
    };
    const Polyline a = random_polyline();
    const Polyline b = random_polyline();
    expect_same_both_ways(a, b);
    if (first_crossing_ref(a, b)) ++crossings;
    if (::testing::Test::HasFailure()) FAIL() << "case " << i;
  }
  EXPECT_GT(crossings, 2000);
}

}  // namespace
}  // namespace erpd::geom
