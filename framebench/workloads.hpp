#pragma once
// The benchmark's workloads and the behaviour fingerprint that proves two
// runs of one workload did the same simulated work.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "edge/system_runner.hpp"
#include "net/message.hpp"
#include "sim/scenario.hpp"

namespace framebench {

/// Simulated seconds per pass: 50 pipeline frames at the 0.1 s LiDAR rate.
inline constexpr double kPassSeconds = 5.0;

/// One named input: a scenario and the runner configuration it is run
/// with, both a pure function of the scenario seed.
struct Workload {
  std::string_view name;
  erpd::sim::Scenario (*build_scenario)(std::uint64_t scenario_seed);
  erpd::edge::RunnerConfig (*runner_config)(std::uint64_t scenario_seed);
  /// The stated input size: a generated scene is used only if it has
  /// exactly this many connected vehicles...
  int connected_vehicles;
  /// ...out of this many moving (non-parked) vehicles.
  int vehicles;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Scenario seed of pass `pass` of a run started with benchmark seed `seed`:
/// the first seed of the stream (seed, pass) whose scene has the workload's
/// stated input size. Every pass is a new scene, so no single layout
/// decides a run's averages, and the fleet size is the same in all of them.
std::uint64_t scene_seed(const Workload& w, std::uint64_t seed, std::size_t pass);

/// Every simulated (non-wall-clock) outcome of a pass. Two passes did the
/// same work iff their Behaviours compare equal, bit for bit.
struct Behaviour {
  double uplink_bytes_per_frame{0.0};
  double downlink_bytes_per_frame{0.0};
  double offered_bytes_per_frame{0.0};
  double delivered_relevance{0.0};
  double min_key_distance{0.0};
  double follower_min_gap{0.0};
  int collisions{0};
  int disseminations{0};
  int vehicles_entered{0};
  /// One hash per pipeline frame of the edge's decisions (on_decisions).
  std::vector<std::uint64_t> decisions;

  bool operator==(const Behaviour&) const = default;
};

std::uint64_t hash_decisions(int frame,
                             const std::vector<erpd::net::Dissemination>& sel);

/// The Behaviour of an untraced run, from its MethodMetrics.
Behaviour behaviour_of(const erpd::edge::MethodMetrics& m,
                       std::vector<std::uint64_t> decisions);

/// 64-bit hash of a Behaviour, as 16 hex digits.
std::string fingerprint_hex(const Behaviour& b);

/// First pipeline frame whose decisions differ, or -1 if none do.
int first_divergent_frame(const Behaviour& a, const Behaviour& b);

}  // namespace framebench
