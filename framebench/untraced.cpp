#include "untraced.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <exception>

namespace framebench {

using namespace erpd;
using Clock = std::chrono::steady_clock;

namespace {

/// Process user+sys CPU seconds so far.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace

UntracedPass run_untraced(const Workload& w, std::uint64_t scenario_seed) {
  UntracedPass p;
  std::vector<std::uint64_t> decisions;
  Clock::time_point last{};

  const Clock::time_point t0 = Clock::now();
  sim::Scenario sc = w.build_scenario(scenario_seed);
  edge::RunnerConfig rc = w.runner_config(scenario_seed);
  p.attempted = static_cast<std::size_t>(std::llround(
      rc.duration / sc.world.config().dt / rc.frames_per_pipeline));
  rc.on_decisions = [&](int frame, const std::vector<net::Dissemination>& sel) {
    decisions.push_back(hash_decisions(frame, sel));
  };
  rc.on_frame = [&](const edge::FrameTrace& tr) {
    const Clock::time_point now = Clock::now();
    if (p.completed == 0) {
      p.setup_s = std::chrono::duration<double>(now - t0).count();
    } else {
      p.frame_wall_s.push_back(std::chrono::duration<double>(now - last).count());
    }
    last = now;
    ++p.completed;
    p.decision_s.push_back(tr.extract_max_seconds + tr.merge_seconds +
                           tr.track_relevance_seconds + tr.dissemination_seconds);
  };

  const double cpu0 = process_cpu_seconds();
  try {
    edge::SystemRunner runner(rc);
    p.metrics = runner.run(sc);
  } catch (const std::exception& e) {
    p.error = e.what();
  }
  p.cpu_s = process_cpu_seconds() - cpu0;
  p.behaviour = behaviour_of(p.metrics, std::move(decisions));
  return p;
}

}  // namespace framebench
