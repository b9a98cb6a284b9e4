#include <gtest/gtest.h>

#include <random>

#include "pointcloud/moving_extractor.hpp"

namespace erpd::pc {
namespace {

using geom::Pose;
using geom::Vec2;
using geom::Vec3;

constexpr double kSensorH = 1.8;

/// Synthesize a sensor-frame cloud containing ground, one static box and one
/// object at `obj_xy` (world), viewed from a stationary sensor at origin.
PointCloud synth_frame(Vec2 obj_xy, bool include_static, std::mt19937_64& rng) {
  std::normal_distribution<double> n(0.0, 0.01);
  PointCloud c;
  // Ground disk.
  for (int i = 0; i < 400; ++i) {
    std::uniform_real_distribution<double> u(-20.0, 20.0);
    c.push_back({u(rng), u(rng), -kSensorH + n(rng)});
  }
  // Static box at (10, 10).
  if (include_static) {
    for (int i = 0; i < 120; ++i) {
      std::uniform_real_distribution<double> u(-1.0, 1.0);
      c.push_back({10.0 + u(rng), 10.0 + u(rng), -kSensorH + 0.5 + u(rng)});
    }
  }
  // Moving object: a 2x1 m blob.
  for (int i = 0; i < 150; ++i) {
    std::uniform_real_distribution<double> ux(-1.0, 1.0);
    std::uniform_real_distribution<double> uy(-0.5, 0.5);
    c.push_back(
        {obj_xy.x + ux(rng), obj_xy.y + uy(rng), -kSensorH + 0.6 + 0.3 * ux(rng)});
  }
  return c;
}

MovingExtractorConfig test_config() {
  MovingExtractorConfig cfg;
  cfg.ground.sensor_height = kSensorH;
  cfg.voxel_size = 0.0;  // keep every point for deterministic counts
  cfg.dbscan = {0.9, 4};
  cfg.min_speed = 0.5;
  return cfg;
}

TEST(MovingExtractor, FirstFrameUploadsNothing) {
  std::mt19937_64 rng(1);
  MovingObjectExtractor ex(test_config());
  Pose pose;
  pose.position = {0.0, 0.0, kSensorH};
  const auto res = ex.process(synth_frame({5.0, 0.0}, true, rng), pose, 0.0);
  EXPECT_TRUE(res.objects.empty());  // no motion evidence yet
  EXPECT_GT(res.stats.clusters, 0u);
}

TEST(MovingExtractor, MovingObjectDetectedWithinWindow) {
  std::mt19937_64 rng(2);
  MovingObjectExtractor ex(test_config());
  Pose pose;
  pose.position = {0.0, 0.0, kSensorH};
  // Object moving at 2.5 m/s; static box stays put. Detection must happen
  // once the window displacement clears the jitter floor (<= 0.4 s here).
  ExtractionResult res;
  double detected_at = -1.0;
  for (int f = 0; f <= 6; ++f) {
    const double t = 0.1 * f;
    res = ex.process(synth_frame({5.0 + 2.5 * t, 0.0}, true, rng), pose, t);
    if (!res.objects.empty() && detected_at < 0.0) detected_at = t;
  }
  ASSERT_EQ(res.objects.size(), 1u) << "static box must not be uploaded";
  EXPECT_GE(detected_at, 0.0);
  EXPECT_LE(detected_at, 0.4);
  EXPECT_NEAR(res.objects[0].centroid_world.x, 5.0 + 2.5 * 0.6, 0.4);
  EXPECT_NEAR(res.objects[0].velocity_world.x, 2.5, 1.0);
  EXPECT_GT(res.objects[0].point_count, 50u);
}

TEST(MovingExtractor, StaticObjectNeverUploaded) {
  std::mt19937_64 rng(3);
  MovingObjectExtractor ex(test_config());
  Pose pose;
  pose.position = {0.0, 0.0, kSensorH};
  for (int f = 0; f < 5; ++f) {
    const auto res =
        ex.process(synth_frame({5.0, 0.0}, true, rng), pose, 0.1 * f);
    for (const auto& obj : res.objects) {
      // Nothing moved, so nothing should ever be uploaded.
      ADD_FAILURE() << "unexpected upload at " << obj.centroid_world;
    }
  }
}

TEST(MovingExtractor, GroundRemovedFromStats) {
  std::mt19937_64 rng(4);
  MovingObjectExtractor ex(test_config());
  Pose pose;
  pose.position = {0.0, 0.0, kSensorH};
  const auto res = ex.process(synth_frame({5.0, 0.0}, false, rng), pose, 0.0);
  EXPECT_GT(res.stats.raw_points, res.stats.after_ground);
  EXPECT_LT(res.stats.after_ground, 200u);  // only the object blob remains
}

TEST(MovingExtractor, EgoMotionCompensation) {
  // The sensor moves forward while a static box stays put in the world;
  // without ego compensation the box would appear to move in sensor frame.
  std::mt19937_64 rng(5);
  MovingExtractorConfig cfg = test_config();
  MovingObjectExtractor ex(cfg);

  auto make_frame = [&](Vec2 sensor_pos) {
    // World-frame static box at (12, 2) with points expressed in the frame
    // of a sensor at sensor_pos looking along +x.
    PointCloud c;
    std::uniform_real_distribution<double> u(-0.8, 0.8);
    for (int i = 0; i < 150; ++i) {
      const Vec3 world{12.0 + u(rng), 2.0 + u(rng), 0.6 + 0.3 * u(rng)};
      c.push_back({world.x - sensor_pos.x, world.y - sensor_pos.y,
                   world.z - kSensorH});
    }
    return c;
  };

  Pose p0;
  p0.position = {0.0, 0.0, kSensorH};
  ex.process(make_frame({0.0, 0.0}), p0, 0.0);
  Pose p1;
  p1.position = {1.0, 0.0, kSensorH};  // ego advanced 1 m
  const auto res = ex.process(make_frame({1.0, 0.0}), p1, 0.1);
  EXPECT_TRUE(res.objects.empty())
      << "static object misclassified as moving under ego motion";
}

TEST(MovingExtractor, BandwidthReductionIsLarge) {
  std::mt19937_64 rng(6);
  MovingObjectExtractor ex(test_config());
  Pose pose;
  pose.position = {0.0, 0.0, kSensorH};
  ExtractionResult res;
  for (int f = 0; f <= 5; ++f) {
    const double t = 0.1 * f;
    res = ex.process(synth_frame({5.0 + 3.0 * t, 0.0}, true, rng), pose, t);
  }
  ASSERT_FALSE(res.objects.empty());
  // Paper: MBs -> tens of KB. Here: raw ~670 pts * 16 B vs ~150 pts * 6 B.
  const std::size_t raw = res.stats.raw_points * kRawBytesPerPoint;
  const std::size_t reduced = res.stats.moving_points * 6;
  EXPECT_LT(reduced * 5, raw);
}

TEST(MovingExtractor, ResetForgetsHistory) {
  std::mt19937_64 rng(7);
  MovingObjectExtractor ex(test_config());
  Pose pose;
  pose.position = {0.0, 0.0, kSensorH};
  ex.process(synth_frame({5.0, 0.0}, true, rng), pose, 0.0);
  ex.reset();
  // A 1 m jump would register as motion if history had been kept.
  const auto res = ex.process(synth_frame({6.0, 0.0}, true, rng), pose, 0.1);
  EXPECT_TRUE(res.objects.empty());  // history gone -> first-frame behaviour
}

TEST(MovingExtractor, TotalPointsAndMerge) {
  std::mt19937_64 rng(8);
  MovingObjectExtractor ex(test_config());
  Pose pose;
  pose.position = {0.0, 0.0, kSensorH};
  ExtractionResult res;
  for (int f = 0; f <= 5; ++f) {
    const double t = 0.1 * f;
    res = ex.process(synth_frame({5.0 + 3.0 * t, 0.0}, false, rng), pose, t);
  }
  ASSERT_FALSE(res.objects.empty());
  std::size_t world_points = 0;
  for (const ExtractedObject& o : res.objects) world_points += o.points_world.size();
  EXPECT_EQ(res.total_points(), world_points);
}

}  // namespace
}  // namespace erpd::pc
