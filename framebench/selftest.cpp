#include "selftest.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"
#include "traced.hpp"

namespace framebench {

namespace {

struct Checker {
  int checks{0};
  int failures{0};
  void expect(bool ok, const char* what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::printf("self-test FAILED: %s\n", what);
    }
  }
  void near(double got, double want, const char* what) {
    expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)), what);
  }
};

void test_percentile(Checker& c) {
  c.near(percentile({4, 1, 3, 2}, 0.5), 2.5, "median of 1..4 interpolates to 2.5");
  c.near(percentile({4, 1, 3, 2}, 0.0), 1.0, "p0 is the minimum");
  c.near(percentile({4, 1, 3, 2}, 1.0), 4.0, "p100 is the maximum");
  c.near(percentile({10, 20, 30, 40, 50}, 0.9), 46.0, "p90 of 10..50 is 46");
  c.near(percentile({7}, 0.9), 7.0, "one sample is every percentile");
  c.near(percentile({}, 0.5), 0.0, "no samples gives 0");
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  c.near(percentile(v, 0.9), 10.0, "p90 of 1..11 is 10");
  c.near(median({3, 1, 2}), 2.0, "median of three");
}

void test_tail_rule(Checker& c) {
  c.expect(samples_beyond(100, 0.90) == 10, "p90 of 100 has 10 samples beyond");
  c.expect(samples_beyond(100, 0.91) == 9, "p91 of 100 has 9 samples beyond");
  c.expect(highest_supported_percentile(100) == 90, "100 samples support p90");
  c.expect(highest_supported_percentile(99) == 90, "99 samples support p90");
  c.expect(highest_supported_percentile(50) == 81, "50 samples support p81");
  c.expect(highest_supported_percentile(1000) == 99, "1000 samples support p99");
  c.expect(highest_supported_percentile(10) == -1, "10 samples support nothing");
  c.expect(highest_supported_percentile(0) == -1, "no samples support nothing");
}

void test_failed_frames(Checker& c) {
  c.expect(failed_frames(100, 100) == 0, "a complete run has no failed frames");
  c.expect(failed_frames(100, 37) == 63, "frames after an exception count as failed");
  c.expect(failed_frames(0, 0) == 0, "nothing attempted, nothing failed");
  c.expect(failed_frames(5, 9) == 0, "over-completion never underflows");
}

void test_ledger(Checker& c) {
  FrameLedger l{10.0, {{"a", 2.0}, {"b", 3.0}, {"c", 4.0}}};
  c.near(l.attributed(), 9.0, "ledger attributes the sum of its parts");
  c.near(l.unattributed(), 1.0, "ledger remainder is wall minus parts");

  // Live spans: children closed inside their frame never exceed it.
  Tracer t;
  const int frame = t.open("frame", -1, 0, kSimLane);
  FrameLedger live;
  for (const char* name : {"a", "b", "c"}) {
    const int s = t.open(name, frame, 0, kSimLane);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
    live.parts.emplace_back(name, t.close(s));
  }
  live.wall = t.close(frame);
  c.expect(live.unattributed() >= 0.0, "nested spans fit inside their frame");
  c.near(live.attributed() + live.unattributed(), live.wall,
         "ledger parts plus remainder sum to the frame");

  // The per-layer report: blocking spans + unattributed == frame wall.
  LayerSums s;
  s.frames = 4;
  s.snapshot = 0.001;
  s.fanout = 0.020;
  s.net_uplink = 0.002;
  s.process_frame = 0.010;
  s.delivery = 0.0005;
  s.step = 0.004;
  s.unattributed = 0.0015;
  s.wall = 0.039;
  double wall_ms = 0.0, sum_ms = 0.0;
  for (const LayerMetric& m : layer_metrics(s)) {
    if (m.name == "frame.wall_ms") wall_ms = m.value;
    for (const char* part : {"sim.snapshot_ms", "core.pool.fanout_ms", "net.uplink_ms",
                             "edge.server.process_frame_ms", "edge.delivery_ms",
                             "sim.step_ms", "frame.unattributed_ms"}) {
      if (m.name == part) sum_ms += m.value;
    }
  }
  c.near(wall_ms, 9.75, "frame.wall_ms is the mean frame");
  c.near(sum_ms, wall_ms, "blocking spans plus frame.unattributed_ms sum to frame.wall_ms");
}

}  // namespace

bool run_self_tests() {
  Checker c;
  test_percentile(c);
  test_tail_rule(c);
  test_failed_frames(c);
  test_ledger(c);
  std::printf("self-tests: %d of %d passed\n", c.checks - c.failures, c.checks);
  return c.failures == 0;
}

}  // namespace framebench
