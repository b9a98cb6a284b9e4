#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "core/rng.hpp"

namespace framebench {

using namespace erpd;

namespace {

/// The scaled wireless caps of the figure benches (bench_util.hpp's
/// bench_wireless): 16 Mbit/s shared uplink, 32 Mbit/s downlink.
net::WirelessConfig scaled_wireless() {
  net::WirelessConfig w;
  w.uplink_mbps = 16.0;
  w.downlink_mbps = 32.0;
  return w;
}

/// perf_pipeline's scene config: 16 vehicles (one a parked occluder), 4
/// pedestrians, each vehicle connected with probability 0.5, dense
/// 32-channel 0.5 degree LiDAR with range noise.
sim::Scenario dense_left_turn(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.speed_kmh = 30.0;
  cfg.total_vehicles = 16;
  cfg.pedestrians = 4;
  cfg.connected_fraction = 0.5;
  cfg.world.lidar.channels = 32;
  cfg.world.lidar.azimuth_step_deg = 0.5;
  cfg.world.lidar.noise_sigma = 0.02;
  return sim::make_unprotected_left_turn(cfg);
}

edge::RunnerConfig lockstep_config(edge::Method method) {
  edge::RunnerConfig rc = edge::make_runner_config(method, scaled_wireless());
  rc.duration = kPassSeconds;
  return rc;
}

edge::RunnerConfig ours_dense_config(std::uint64_t) {
  return lockstep_config(edge::Method::kOurs);
}

edge::RunnerConfig emp_blob_config(std::uint64_t) {
  return lockstep_config(edge::Method::kEmp);
}

/// A crowded crossing: 80 vehicles and 120 pedestrians requested (the
/// scenario places what fits, 21 to 27 vehicles), every vehicle connected,
/// sparse 8-channel 2 degree LiDAR. Agent count, not point count, drives
/// the work.
sim::Scenario crowd_crossing(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.speed_kmh = 30.0;
  cfg.total_vehicles = 80;
  cfg.pedestrians = 120;
  cfg.connected_fraction = 1.0;
  cfg.world.lidar.channels = 8;
  cfg.world.lidar.azimuth_step_deg = 2.0;
  return sim::make_occluded_pedestrian(cfg);
}

/// The service-shaped edge: redundancy-aware uplink, MPSC ingest lanes and
/// a decode+merge budget that sheds part of the arriving objects, over a
/// link losing 10% of messages each way. No corruption or Byzantine
/// senders: their materialisation is private to SystemRunner.
edge::RunnerConfig crowd_service_config(std::uint64_t seed) {
  edge::RunnerConfig rc = lockstep_config(edge::Method::kOurs);
  rc.redundancy.enabled = true;
  rc.service.enabled = true;
  rc.service.decode_merge_budget_us = 250;
  rc.fault.seed = seed;
  rc.fault.uplink_loss = 0.10;
  rc.fault.downlink_loss = 0.10;
  return rc;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Each stated fleet is the one the scenario generator produces most often
  // (9 of 15 connected: about a quarter of seeds; 25 vehicles: about a
  // third), so scene selection rejects few seeds.
  static const std::vector<Workload> all = {
      {"ours-dense", dense_left_turn, ours_dense_config, 9, 15},
      {"emp-blob", dense_left_turn, emp_blob_config, 9, 15},
      {"crowd-service", crowd_crossing, crowd_service_config, 25, 25},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t scene_seed(const Workload& w, std::uint64_t seed, std::size_t pass) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t candidate = core::seed_mix(seed, pass, attempt) >> 32;
    const sim::Scenario sc = w.build_scenario(candidate);
    int vehicles = 0;
    int connected = 0;
    for (const sim::Vehicle& v : sc.world.vehicles()) {
      if (v.params().parked) continue;
      ++vehicles;
      if (v.params().connected) ++connected;
    }
    if (vehicles == w.vehicles && connected == w.connected_vehicles) return candidate;
  }
}

std::uint64_t hash_decisions(int frame,
                             const std::vector<net::Dissemination>& sel) {
  std::uint64_t h = core::seed_mix(static_cast<std::uint64_t>(frame), sel.size());
  for (const net::Dissemination& d : sel) {
    h = core::seed_mix(h, static_cast<std::uint64_t>(d.to),
                       static_cast<std::uint64_t>(d.track_id),
                       static_cast<std::uint64_t>(d.about), d.bytes,
                       std::bit_cast<std::uint64_t>(d.relevance));
  }
  return h;
}

Behaviour behaviour_of(const edge::MethodMetrics& m,
                       std::vector<std::uint64_t> decisions) {
  Behaviour b;
  b.uplink_bytes_per_frame = m.uplink_bytes_per_frame;
  b.downlink_bytes_per_frame = m.downlink_bytes_per_frame;
  b.offered_bytes_per_frame = m.uplink_offered_bytes_per_frame;
  b.delivered_relevance = m.delivered_relevance;
  b.min_key_distance = m.min_key_distance;
  b.follower_min_gap = m.follower_min_gap;
  b.collisions = m.collisions;
  b.disseminations = m.disseminations;
  b.vehicles_entered = m.vehicles_entered;
  b.decisions = std::move(decisions);
  return b;
}

std::string fingerprint_hex(const Behaviour& b) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (double v : {b.uplink_bytes_per_frame, b.downlink_bytes_per_frame,
                   b.offered_bytes_per_frame, b.delivered_relevance,
                   b.min_key_distance, b.follower_min_gap}) {
    h = core::seed_mix(h, std::bit_cast<std::uint64_t>(v));
  }
  for (int v : {b.collisions, b.disseminations, b.vehicles_entered}) {
    h = core::seed_mix(h, static_cast<std::uint64_t>(v));
  }
  for (std::uint64_t d : b.decisions) h = core::seed_mix(h, d);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int first_divergent_frame(const Behaviour& a, const Behaviour& b) {
  const std::size_t n = std::max(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= a.decisions.size() || i >= b.decisions.size() ||
        a.decisions[i] != b.decisions[i]) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace framebench
