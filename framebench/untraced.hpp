#pragma once
// One pass of a workload through the unmodified SystemRunner::run, observed
// only through RunnerConfig::on_frame / on_decisions.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "edge/system_runner.hpp"
#include "workloads.hpp"

namespace framebench {

struct UntracedPass {
  /// Host wall seconds between successive on_frame callbacks (one pipeline
  /// frame plus the World::step before it); frames - 1 samples.
  std::vector<double> frame_wall_s;
  /// Fig. 14 compute path per frame: slowest extraction + merge + track and
  /// relevance + dissemination (FrameTrace fields).
  std::vector<double> decision_s;
  std::size_t attempted{0};
  std::size_t completed{0};
  /// Scenario build + SystemRunner construction + run's own set-up, up to
  /// the end of the first pipeline frame.
  double setup_s{0.0};
  /// Process user+sys CPU seconds spent inside run().
  double cpu_s{0.0};
  erpd::edge::MethodMetrics metrics;
  Behaviour behaviour;
  /// what() of the exception that ended the pass early, if any.
  std::string error;
};

UntracedPass run_untraced(const Workload& w, std::uint64_t scenario_seed);

}  // namespace framebench
