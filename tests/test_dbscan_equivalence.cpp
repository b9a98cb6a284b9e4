#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "geom/mat4.hpp"
#include "pointcloud/dbscan.hpp"
#include "pointcloud/encoding.hpp"
#include "pointcloud/ground_filter.hpp"
#include "pointcloud/voxel_grid.hpp"
#include "sim/scenario_gen.hpp"

// Seeded equivalence suite for the grid DBSCAN (DESIGN.md §18). `dbscan`
// promises labels and cluster ids byte-identical to `dbscan_reference`, the
// breadth-first, brute-force definition, for every input: the extraction
// stats, the edge's detections and every behaviour fingerprint depend on
// them. Each case is compared at 1, 2 and 8 workers, with `dbscan` running
// concurrently from pool workers as it does in the pipeline.

namespace erpd::pc {
namespace {

using geom::Vec3;

struct Case {
  std::string name;
  PointCloud cloud;
  DbscanConfig cfg;
};

constexpr double kEpsValues[] = {0.3, 0.9, 1.2};
constexpr std::size_t kMinPtsValues[] = {1, 2, 4, 5, 8};

/// Every (eps, min_pts) pair in turn, so each category covers all 15.
DbscanConfig config_for(std::uint64_t i) {
  return {kEpsValues[i % 3], kMinPtsValues[(i / 3) % 5]};
}

void expect_equivalent(const std::vector<Case>& cases) {
  std::vector<DbscanResult> ref(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ref[i] = dbscan_reference(cases[i].cloud, cases[i].cfg);
  }
  for (const std::size_t workers : {1, 2, 8}) {
    core::set_thread_count(workers);
    std::vector<DbscanResult> got(cases.size());
    core::parallel_for(cases.size(), 1, [&](std::size_t i) {
      got[i] = dbscan(cases[i].cloud, cases[i].cfg);
    });
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::string where = cases[i].name + " (eps " +
                                std::to_string(cases[i].cfg.eps) +
                                ", min_pts " +
                                std::to_string(cases[i].cfg.min_pts) + ", " +
                                std::to_string(workers) + " workers)";
      ASSERT_EQ(got[i].cluster_count, ref[i].cluster_count) << where;
      ASSERT_EQ(got[i].labels.size(), ref[i].labels.size()) << where;
      ASSERT_EQ(std::memcmp(got[i].labels.data(), ref[i].labels.data(),
                            ref[i].labels.size() * sizeof(std::int32_t)),
                0)
          << where;
    }
  }
  core::set_thread_count(0);
}

// ---------------------------------------------------------------------------
// Synthetic clouds: blobs, chains, uniform noise and duplicate points.
// ---------------------------------------------------------------------------

PointCloud synthetic_cloud(std::uint64_t seed, double eps) {
  std::mt19937_64 rng = core::seeded_rng(core::seed_mix(0xdb5ca, seed));
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * u01(rng);
  };
  const auto count = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  std::normal_distribution<double> gauss(0.0, 1.0);
  const Vec3 origin{uniform(-50, 50), uniform(-50, 50), uniform(-2, 2)};
  PointCloud c;
  const int parts = count(1, 5);
  for (int part = 0; part < parts; ++part) {
    const Vec3 at = origin + Vec3{uniform(-12, 12), uniform(-12, 12),
                                  uniform(-1, 1)};
    switch (rng() % 4) {
      case 0: {  // Gaussian blob, from sparse to much denser than eps
        const double sigma = eps * uniform(0.1, 1.5);
        const double flat = uniform(0.05, 1.0);
        for (int i = count(3, 90); i > 0; --i) {
          c.push_back(at + Vec3{sigma * gauss(rng), sigma * gauss(rng),
                                flat * sigma * gauss(rng)});
        }
        break;
      }
      case 1: {  // chain with spacing around eps: density-reachability
        const double yaw = uniform(0, 2 * std::numbers::pi);
        const Vec3 dir{std::cos(yaw), std::sin(yaw), uniform(-0.3, 0.3)};
        const double step = eps * uniform(0.4, 1.05) / dir.norm();
        const double jitter = eps * uniform(0.0, 0.1);
        const int n = count(3, 60);
        for (int i = 0; i < n; ++i) {
          c.push_back(at + dir * (step * i) +
                      Vec3{jitter * gauss(rng), jitter * gauss(rng),
                           jitter * gauss(rng)});
        }
        break;
      }
      case 2: {  // uniform noise in a box
        const Vec3 half{uniform(0.5, 12), uniform(0.5, 12), uniform(0.1, 3)};
        for (int i = count(1, 120); i > 0; --i) {
          c.push_back(at + Vec3{uniform(-half.x, half.x),
                                uniform(-half.y, half.y),
                                uniform(-half.z, half.z)});
        }
        break;
      }
      default: {  // exact duplicates of earlier points, or one point stacked
        if (c.empty()) c.push_back(at);
        const std::size_t base = c.size();
        for (int i = count(1, 30); i > 0; --i) {
          c.push_back(c[rng() % base]);
        }
        break;
      }
    }
  }
  return c;
}

TEST(DbscanEquivalence, SyntheticBlobsChainsNoiseAndDuplicates) {
  std::vector<Case> cases;
  for (std::uint64_t i = 0; i < 1050; ++i) {
    const DbscanConfig cfg = config_for(i);
    cases.push_back({"synthetic " + std::to_string(i),
                     synthetic_cloud(i, cfg.eps), cfg});
  }
  expect_equivalent(cases);
}

// ---------------------------------------------------------------------------
// Points on cell boundaries and at exactly eps.
// ---------------------------------------------------------------------------

/// dbscan keys cells of side eps * (1 - 2^-10) / sqrt 3 measured from the
/// cloud's minimum corner (DESIGN.md §18). These clouds pin that corner and
/// put points on the cell faces, one ulp either side of them, and at
/// distance exactly eps from each other.
PointCloud boundary_cloud(std::uint64_t seed, double eps) {
  std::mt19937_64 rng = core::seeded_rng(core::seed_mix(0xb0da, seed));
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const double side = eps * ((1.0 - 0x1p-10) / std::numbers::sqrt3);
  const Vec3 lo{-40.0 + 80.0 * u01(rng), -40.0 + 80.0 * u01(rng),
                -1.0 + 2.0 * u01(rng)};
  const auto on_face = [&](double origin) {
    double v = origin + side * static_cast<double>(rng() % 10);
    switch (rng() % 3) {
      case 0: v = std::nextafter(v, -1e300); break;
      case 1: v = std::nextafter(v, 1e300); break;
      default: break;
    }
    return std::max(v, origin);
  };
  PointCloud c;
  c.push_back(lo);
  for (int i = 0; i < 120; ++i) {
    const Vec3 p{on_face(lo.x), on_face(lo.y), on_face(lo.z)};
    c.push_back(p);
    if (rng() % 4 == 0) {  // a partner at exactly eps along an axis or diagonal
      const double d = eps / std::numbers::sqrt3;
      c.push_back(rng() % 2 == 0 ? p + Vec3{eps, 0.0, 0.0}
                                 : p + Vec3{d, d, d});
    }
  }
  return c;
}

/// Points along a cell diagonal spaced just over eps apart: never
/// neighbours, so any grid whose cells could hold two of them (a cell side
/// of eps / sqrt 3 or more) would wrongly mark them core.
PointCloud diagonal_lattice(Vec3 origin, double eps) {
  const double step = eps * (1.0 + 0x1p-20) / std::numbers::sqrt3;
  PointCloud c;
  for (int k = 0; k < 200; ++k) {
    c.push_back(origin + Vec3{step, step, step} * static_cast<double>(k));
  }
  return c;
}

TEST(DbscanEquivalence, CellBoundariesAndExactEps) {
  std::vector<Case> cases;
  for (std::uint64_t i = 0; i < 150; ++i) {
    const DbscanConfig cfg = config_for(i);
    cases.push_back({"boundary " + std::to_string(i),
                     boundary_cloud(i, cfg.eps), cfg});
  }
  for (std::uint64_t i = 0; i < 15; ++i) {
    const DbscanConfig cfg = config_for(i);
    const double far = kMaxDecodedCoordinate - 1000.0;
    cases.push_back({"diagonal lattice " + std::to_string(i),
                     diagonal_lattice({1.25, -3.5, 0.5}, cfg.eps), cfg});
    cases.push_back({"far diagonal lattice " + std::to_string(i),
                     diagonal_lattice({-far, far - 100.0, 0.5}, cfg.eps),
                     cfg});
  }
  expect_equivalent(cases);
}

// ---------------------------------------------------------------------------
// Coordinates near the decoder's bound, and huge extents.
// ---------------------------------------------------------------------------

TEST(DbscanEquivalence, CoordinatesNearTheDecoderBound) {
  constexpr double kFar = kMaxDecodedCoordinate - 100.0;
  std::vector<Case> cases;
  for (std::uint64_t i = 0; i < 90; ++i) {
    const DbscanConfig cfg = config_for(i);
    PointCloud local = synthetic_cloud(5000 + i, cfg.eps);
    // Shift the cloud to a corner of the decodable box.
    const Vec3 corner{(i & 1) != 0 ? kFar : -kFar, (i & 2) != 0 ? kFar : -kFar,
                      (i & 4) != 0 ? kFar : 0.0};
    PointCloud shifted;
    for (const Vec3& p : local.points()) shifted.push_back(p + corner);
    cases.push_back({"near bound " + std::to_string(i), shifted, cfg});
    // And one cloud spanning the whole box: blobs at both ends of an axis.
    PointCloud span;
    for (const Vec3& p : local.points()) {
      span.push_back(p + Vec3{-kFar, 0.0, 0.0});
      span.push_back(p + Vec3{kFar, 0.0, 0.0});
    }
    cases.push_back({"spanning bound " + std::to_string(i), span, cfg});
  }
  // Huge extent at a small eps: occupied cells millions of cells apart.
  PointCloud huge;
  huge.push_back({0.0, 0.0, 0.0});
  huge.push_back({0.1, 0.0, 0.0});
  huge.push_back({1e7, 1e7, 1e7});
  for (const std::size_t min_pts : kMinPtsValues) {
    cases.push_back({"huge extent", huge, {0.5, min_pts}});
  }
  expect_equivalent(cases);
}

// ---------------------------------------------------------------------------
// World::scan_from clouds from generated scenes, prepared the way the two
// callers prepare them: the vehicle's extractor (sensor frame, ground
// removal, 0.25 m voxels, eps 0.9) and the edge's EMP segmentation (world
// frame, z > 0.25 strip, 0.3 m voxels, eps 1.2).
// ---------------------------------------------------------------------------

std::vector<Case> scan_cases(int channels, double azimuth_step_deg,
                             const char* label) {
  sim::WorldConfig wc = sim::search_world_config();
  wc.lidar.channels = channels;
  wc.lidar.azimuth_step_deg = azimuth_step_deg;
  std::vector<Case> cases;
  for (const std::uint64_t seed : {3, 8, 21, 34, 55, 89}) {
    sim::Scenario sc =
        sim::build_scenario(sim::generate_scenario(sim::GenConfig{}, seed), wc);
    for (int t = 0; t < 10; ++t) sc.world.step();
    const auto& vehicles = sc.world.vehicles();
    for (std::size_t v = 0; v < vehicles.size() && v < 2; ++v) {
      const sim::LidarScan scan = sc.world.scan_from(vehicles[v].id());
      const std::string name = std::string(label) + " scene " +
                               std::to_string(seed) + " vehicle " +
                               std::to_string(vehicles[v].id());
      const PointCloud no_ground = remove_ground(scan.cloud, {});
      cases.push_back({name + " vehicle config",
                       voxel_downsample(no_ground, 0.25), {0.9, 4}});
      const geom::Mat4 t_lw = geom::Mat4::from_pose(
          vehicles[v].sensor_pose(sc.world.network(), wc.sensor_height));
      const PointCloud above = scan.cloud.transformed(t_lw).filtered(
          [](const Vec3& p) { return p.z > 0.25; });
      cases.push_back({name + " edge config", voxel_downsample(above, 0.3),
                       {1.2, 4}});
    }
  }
  return cases;
}

TEST(DbscanEquivalence, DenseScanClouds) {
  const std::vector<Case> cases = scan_cases(32, 0.5, "32-channel");
  ASSERT_GE(cases.size(), 20u);
  expect_equivalent(cases);
}

TEST(DbscanEquivalence, SparseScanClouds) {
  const std::vector<Case> cases = scan_cases(8, 2.0, "8-channel");
  ASSERT_GE(cases.size(), 20u);
  expect_equivalent(cases);
}

}  // namespace
}  // namespace erpd::pc
