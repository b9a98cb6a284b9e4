#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "core/rng.hpp"
#include "geom/angle.hpp"
#include "geom/obb.hpp"

namespace erpd::geom {
namespace {

TEST(Obb, CornersOfAxisAlignedBox) {
  const Obb box{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const auto c = box.corners();
  // front-left, rear-left, rear-right, front-right
  EXPECT_NEAR(c[0].x, 2.0, 1e-12);
  EXPECT_NEAR(c[0].y, 1.0, 1e-12);
  EXPECT_NEAR(c[2].x, -2.0, 1e-12);
  EXPECT_NEAR(c[2].y, -1.0, 1e-12);
}

TEST(Obb, ContainsInsideOutside) {
  const Obb box{{5.0, 5.0}, kPi / 4.0, 4.0, 2.0};
  EXPECT_TRUE(box.contains({5.0, 5.0}));
  EXPECT_TRUE(box.contains(box.corners()[0]));
  EXPECT_FALSE(box.contains({9.0, 5.0}));
}

TEST(Obb, OverlapsSeparatedBoxes) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{10.0, 0.0}, 0.0, 4.0, 2.0};
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_FALSE(b.overlaps(a));
}

TEST(Obb, OverlapsIntersectingBoxes) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{3.0, 0.0}, 0.0, 4.0, 2.0};
  EXPECT_TRUE(a.overlaps(b));
}

TEST(Obb, OverlapsRotatedNearMiss) {
  // Diamond (45 deg) next to a box: corners interleave without overlap.
  const Obb a{{0.0, 0.0}, 0.0, 2.0, 2.0};
  const Obb b{{2.5, 0.0}, kPi / 4.0, 2.0, 2.0};
  EXPECT_FALSE(a.overlaps(b));
  const Obb c{{1.8, 0.0}, kPi / 4.0, 2.0, 2.0};
  EXPECT_TRUE(a.overlaps(c));
}

TEST(Obb, DistanceZeroWhenOverlapping) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{1.0, 0.0}, 0.3, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(a.distance_to(b), 0.0);
}

TEST(Obb, DistanceBetweenParallelBoxes) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{10.0, 0.0}, 0.0, 4.0, 2.0};
  // Facing edges at x=2 and x=8.
  EXPECT_NEAR(a.distance_to(b), 6.0, 1e-9);
  EXPECT_NEAR(b.distance_to(a), 6.0, 1e-9);
}

TEST(Obb, DistanceToPoint) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(a.distance_to(Vec2{0.0, 0.0}), 0.0);
  EXPECT_NEAR(a.distance_to(Vec2{5.0, 0.0}), 3.0, 1e-12);
  EXPECT_NEAR(a.distance_to(Vec2{2.0 + 3.0, 1.0 + 4.0}), 5.0, 1e-12);
}

TEST(Obb, RayHitFrontFace) {
  const Obb a{{10.0, 0.0}, 0.0, 4.0, 2.0};
  const Segment ray{{0.0, 0.0}, {20.0, 0.0}};
  const double t = a.ray_hit(ray);
  ASSERT_GE(t, 0.0);
  EXPECT_NEAR(t * 20.0, 8.0, 1e-9);  // hits the near face at x=8
}

TEST(Obb, RayMiss) {
  const Obb a{{10.0, 5.0}, 0.0, 4.0, 2.0};
  const Segment ray{{0.0, 0.0}, {20.0, 0.0}};
  EXPECT_LT(a.ray_hit(ray), 0.0);
}

TEST(Obb, RayFromInsideHitsAtZero) {
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Segment ray{{0.0, 0.0}, {20.0, 0.0}};
  EXPECT_DOUBLE_EQ(a.ray_hit(ray), 0.0);
}

TEST(Obb, AabbBoundsRotatedBox) {
  const Obb a{{0.0, 0.0}, kPi / 4.0, 2.0, 2.0};
  const Aabb box = a.aabb();
  const double half_diag = std::sqrt(2.0);
  EXPECT_NEAR(box.max.x, half_diag, 1e-9);
  EXPECT_NEAR(box.min.y, -half_diag, 1e-9);
}

TEST(Obb, MaxExtent) {
  EXPECT_DOUBLE_EQ((Obb{{0, 0}, 0.0, 4.5, 1.9}).max_extent(), 4.5);
  EXPECT_DOUBLE_EQ((Obb{{0, 0}, 0.0, 0.5, 0.6}).max_extent(), 0.6);
}

class ObbOverlapSymmetry
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ObbOverlapSymmetry, OverlapIsSymmetric) {
  const auto [dx, heading] = GetParam();
  const Obb a{{0.0, 0.0}, 0.0, 4.0, 2.0};
  const Obb b{{dx, 1.0}, heading, 4.0, 2.0};
  EXPECT_EQ(a.overlaps(b), b.overlaps(a));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ObbOverlapSymmetry,
    ::testing::Combine(::testing::Values(0.0, 1.0, 2.5, 4.0, 6.0),
                       ::testing::Values(0.0, 0.5, 1.0, kPi / 2.0)));


// --- Cached axis: bit-identical to recomputing it from the heading --------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(Vec2 a, Vec2 b) { return same_bits(a.x, b.x) && same_bits(a.y, b.y); }

// Reference arithmetic: every method recomputes Vec2::from_heading(heading)
// per call.
std::array<Vec2, 4> corners_ref(const Obb& b) {
  const Vec2 fwd = Vec2::from_heading(b.heading()) * (b.length() * 0.5);
  const Vec2 left = Vec2::from_heading(b.heading()).perp() * (b.width() * 0.5);
  const Vec2 c = b.center();
  return {c + fwd + left, c - fwd + left, c - fwd - left, c + fwd - left};
}

std::array<Segment, 4> edges_ref(const Obb& b) {
  const auto c = corners_ref(b);
  return {Segment{c[0], c[1]}, Segment{c[1], c[2]}, Segment{c[2], c[3]},
          Segment{c[3], c[0]}};
}

bool contains_ref(const Obb& b, Vec2 p) {
  const Vec2 d = p - b.center();
  const Vec2 fwd = Vec2::from_heading(b.heading());
  return std::abs(d.dot(fwd)) <= b.length() * 0.5 + 1e-9 &&
         std::abs(d.dot(fwd.perp())) <= b.width() * 0.5 + 1e-9;
}

bool overlaps_ref(const Obb& a, const Obb& b) {
  const auto ca = corners_ref(a);
  const auto cb = corners_ref(b);
  const Vec2 axes[4] = {Vec2::from_heading(a.heading()),
                        Vec2::from_heading(a.heading()).perp(),
                        Vec2::from_heading(b.heading()),
                        Vec2::from_heading(b.heading()).perp()};
  for (const Vec2& axis : axes) {
    double alo = std::numeric_limits<double>::infinity(), ahi = -alo;
    double blo = alo, bhi = -alo;
    for (const Vec2& p : ca) {
      alo = std::min(alo, p.dot(axis));
      ahi = std::max(ahi, p.dot(axis));
    }
    for (const Vec2& p : cb) {
      blo = std::min(blo, p.dot(axis));
      bhi = std::max(bhi, p.dot(axis));
    }
    if (ahi < blo || bhi < alo) return false;
  }
  return true;
}

// Reference distance: the edge-by-edge endpoint walk, which evaluates every
// (corner, edge) pair twice through point_segment_distance.
double distance_ref(const Obb& a, const Obb& b) {
  if (overlaps_ref(a, b)) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const Segment& ea : edges_ref(a)) {
    for (const Segment& eb : edges_ref(b)) {
      best = std::min(best, point_segment_distance(ea.a, eb));
      best = std::min(best, point_segment_distance(ea.b, eb));
      best = std::min(best, point_segment_distance(eb.a, ea));
      best = std::min(best, point_segment_distance(eb.b, ea));
    }
  }
  return best;
}

void expect_matches_reference(const Obb& a, const Obb& b, Vec2 p) {
  EXPECT_TRUE(same_bits(a.axis(), Vec2::from_heading(a.heading())));
  const auto c = a.corners();
  const auto cr = corners_ref(a);
  const auto e = a.edges();
  const auto er = edges_ref(a);
  for (int k = 0; k < 4; ++k) {
    EXPECT_TRUE(same_bits(c[k], cr[k])) << "corner " << k;
    EXPECT_TRUE(same_bits(e[k].a, er[k].a) && same_bits(e[k].b, er[k].b))
        << "edge " << k;
    EXPECT_EQ(a.contains(c[k]), contains_ref(a, c[k]));
  }
  EXPECT_EQ(a.contains(p), contains_ref(a, p));
  EXPECT_EQ(a.overlaps(b), overlaps_ref(a, b));
  EXPECT_EQ(b.overlaps(a), overlaps_ref(b, a));
  EXPECT_TRUE(same_bits(a.distance_to(b), distance_ref(a, b)))
      << a.distance_to(b) << " vs " << distance_ref(a, b);
  EXPECT_TRUE(same_bits(b.distance_to(a), distance_ref(b, a)));
}

TEST(ObbCachedAxis, DefaultBoxHasUnitXAxis) {
  const Obb box;
  EXPECT_TRUE(same_bits(box.axis(), Vec2{1.0, 0.0}));
  EXPECT_TRUE(same_bits(box.axis(), Vec2::from_heading(0.0)));
  expect_matches_reference(box, Obb{{0.5, 0.0}, 0.3, 1.0, 1.0}, {0.0, 0.0});
}

TEST(ObbCachedAxis, SpecialHeadingsAndFarCentres) {
  const double headings[] = {0.0, kPi, -kPi, kPi / 2.0, -kPi / 2.0,
                             kPi / 4.0, 3.0 * kPi / 4.0, -0.0};
  const Vec2 centres[] = {{0.0, 0.0}, {1e6, 1e6}, {-1e6, 3.5}, {1e6, -1e6}};
  for (double h1 : headings) {
    for (double h2 : headings) {
      for (Vec2 c : centres) {
        SCOPED_TRACE(::testing::Message() << h1 << " " << h2 << " " << c);
        const Obb a{c, h1, 4.5, 1.9};
        // Touching, near and overlapping partners.
        for (double dx : {0.0, 1.0, 3.2, 4.5, 7.0}) {
          const Obb b{c + Vec2{dx, 0.5 * dx}, h2, 2.0, 0.6};
          expect_matches_reference(a, b, c + Vec2{dx, -dx});
        }
      }
    }
  }
}

TEST(ObbCachedAxis, SeededBoxes) {
  std::mt19937_64 rng = core::seeded_rng(0x0bb);
  std::uniform_real_distribution<double> heading(-kPi, kPi);
  std::uniform_real_distribution<double> offset(-8.0, 8.0);
  std::uniform_real_distribution<double> size(0.3, 12.0);
  std::uniform_real_distribution<double> far(-1e6, 1e6);
  for (int i = 0; i < 4000; ++i) {
    const Vec2 base = i % 4 == 0 ? Vec2{far(rng), far(rng)} : Vec2{};
    const Obb a{base + Vec2{offset(rng), offset(rng)}, heading(rng), size(rng),
                size(rng)};
    const Obb b{base + Vec2{offset(rng), offset(rng)}, heading(rng), size(rng),
                size(rng)};
    expect_matches_reference(a, b, base + Vec2{offset(rng), offset(rng)});
    if (::testing::Test::HasFailure()) {
      FAIL() << "case " << i;
    }
  }
}

}  // namespace
}  // namespace erpd::geom
