// Unit tests for the service-mode edge pipeline (DESIGN.md §17): the
// deterministic MPSC ingest queue (capacity, backpressure fates, drain
// order under 1/2/8 parallel producers — the TSan-run stress for the
// determinism suite), the SLO-aware admission controller's
// admit/defer/shed fate partition, and the off-by-default bit-identity
// contract of ServiceConfig.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/check.hpp"
#include "core/mpsc_queue.hpp"
#include "core/thread_pool.hpp"
#include "edge/service.hpp"
#include "edge/metrics_io.hpp"
#include "edge/system_runner.hpp"
#include "obs/metrics.hpp"
#include "scenario_harness.hpp"

namespace erpd {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

/// Restores the auto pool size when a test exits.
struct PoolGuard {
  ~PoolGuard() { core::set_thread_count(0); }
};

// ---------------------------------------------------------------------------
// MpscLaneQueue
// ---------------------------------------------------------------------------

TEST(MpscLaneQueue, RejectsZeroLaneDepth) {
  EXPECT_THROW((core::MpscLaneQueue<int>(4, 0)), erpd::ContractViolation);
}

TEST(MpscLaneQueue, LaneCapacityBoundsPushes) {
  core::MpscLaneQueue<int> q(2, 2);
  EXPECT_TRUE(q.try_push(0, 10));
  EXPECT_TRUE(q.try_push(0, 11));
  EXPECT_FALSE(q.try_push(0, 12));  // lane 0 full
  EXPECT_TRUE(q.try_push(1, 20));   // other lanes unaffected
  EXPECT_EQ(q.size(), 3u);
}

TEST(MpscLaneQueue, DrainDeliversInLaneThenPushOrder) {
  core::MpscLaneQueue<int> q(3, 4);
  // Push out of lane order on purpose: drain order must depend only on the
  // lane indices, never on arrival order.
  EXPECT_TRUE(q.try_push(2, 30));
  EXPECT_TRUE(q.try_push(0, 10));
  EXPECT_TRUE(q.try_push(1, 20));
  EXPECT_TRUE(q.try_push(0, 11));

  std::vector<int> got;
  const auto stats = q.drain(
      0, [&](int v) { got.push_back(v); }, [](int) { FAIL(); });
  EXPECT_EQ(got, (std::vector<int>{10, 11, 20, 30}));
  EXPECT_EQ(stats.delivered, 4u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(q.size(), 0u);  // drain leaves the queue empty
}

TEST(MpscLaneQueue, DrainCapDropsHighestLanesExactlyOnce) {
  core::MpscLaneQueue<int> q(4, 1);
  for (std::size_t lane = 0; lane < 4; ++lane) {
    ASSERT_TRUE(q.try_push(lane, static_cast<int>(lane)));
  }
  std::vector<int> delivered;
  std::vector<int> dropped;
  const auto stats = q.drain(
      3, [&](int v) { delivered.push_back(v); },
      [&](int v) { dropped.push_back(v); });
  // Lanes drain in ascending order, so the cap always drops the tail.
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(dropped, (std::vector<int>{3}));
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.dropped, 1u);
}

TEST(MpscLaneQueue, ClearEmptiesAndLanesAreReusable) {
  core::MpscLaneQueue<int> q(2, 1);
  EXPECT_TRUE(q.try_push(0, 1));
  q.clear();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.try_push(0, 2));  // capacity restored after clear
  int got = 0;
  q.drain(0, [&](int v) { got = v; }, [](int) { FAIL(); });
  EXPECT_EQ(got, 2);
}

// The determinism/TSan stress: parallel producers (one lane each, the
// pipeline's fan-out discipline) must yield a drain sequence that is
// bit-identical across worker counts — and data-race-free under TSan.
TEST(MpscLaneQueue, DrainOrderIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  constexpr std::size_t kLanes = 64;
  constexpr std::size_t kPerLane = 8;

  const auto produce_and_drain = [](std::size_t threads) {
    core::set_thread_count(threads);
    core::MpscLaneQueue<std::uint64_t> q(kLanes, kPerLane);
    core::parallel_for(kLanes, 1, [&](std::size_t lane) {
      for (std::size_t k = 0; k < kPerLane; ++k) {
        ASSERT_TRUE(q.try_push(lane, lane * 1000 + k));
      }
    });
    // Pool join above is the happens-before edge; drain single-threaded.
    std::vector<std::uint64_t> out;
    out.reserve(kLanes * kPerLane);
    q.drain(
        0, [&](std::uint64_t v) { out.push_back(v); },
        [](std::uint64_t) { FAIL(); });
    return out;
  };

  const std::vector<std::uint64_t> ref = produce_and_drain(1);
  ASSERT_EQ(ref.size(), kLanes * kPerLane);
  for (const std::size_t t : kThreadCounts) {
    EXPECT_EQ(produce_and_drain(t), ref) << t << " threads";
  }
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

net::UploadFrame service_frame(sim::AgentId vehicle, double timestamp,
                               std::vector<std::size_t> object_points) {
  net::UploadFrame f;
  f.vehicle = vehicle;
  f.timestamp = timestamp;
  f.upload_seq = static_cast<std::uint64_t>(timestamp * 10.0);
  for (const std::size_t pts : object_points) {
    net::ObjectUpload o;
    o.object_granular = true;
    o.centroid_world = {5.0, 0.0, 0.5};
    o.point_count = pts;
    o.bytes = 64;
    f.objects.push_back(o);
  }
  return f;
}

std::size_t total_objects(const std::vector<net::UploadFrame>& frames) {
  std::size_t n = 0;
  for (const net::UploadFrame& f : frames) n += f.objects.size();
  return n;
}

TEST(ServiceConfig, ValidateRejectsBadValues) {
  edge::ServiceConfig cfg;
  cfg.queue_lane_depth = 0;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.max_defer_frames = -1;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.cost_per_point_ns = 0;
  cfg.cost_per_object_ns = 0;
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  cfg = {};
  cfg.decode_merge_budget_us =
      std::numeric_limits<std::uint64_t>::max() / 1000 + 1;  // ns overflow
  EXPECT_THROW(cfg.validate(), erpd::ContractViolation);
  EXPECT_NO_THROW(edge::ServiceConfig{}.validate());
}

TEST(AdmissionController, ZeroBudgetPassesEverythingThrough) {
  edge::ServiceConfig cfg;
  cfg.enabled = true;  // budget stays 0: no latency shedding
  edge::AdmissionController ac(cfg.admission_policy());
  edge::ServiceStats stats;
  const auto out =
      ac.run({service_frame(1, 0.1, {50, 20}), service_frame(2, 0.1, {30})},
             0.1, &stats);
  EXPECT_EQ(total_objects(out), 3u);
  EXPECT_EQ(stats.arrived_objects, 3u);
  EXPECT_EQ(stats.admitted_objects, 3u);
  EXPECT_EQ(stats.deferred_objects, 0u);
  EXPECT_EQ(stats.shed_objects, 0u);
  EXPECT_EQ(ac.parked_count(), 0u);
}

TEST(AdmissionController, BudgetShedsSmallestCloudsFirst) {
  edge::ServiceConfig cfg;
  cfg.enabled = true;
  cfg.cost_per_object_ns = 1000;
  cfg.cost_per_point_ns = 100;
  cfg.max_defer_frames = 0;  // shed immediately, no parking
  cfg.decode_merge_budget_us = 13;  // 13000 ns
  edge::AdmissionController ac(cfg.admission_policy());
  obs::MetricsRegistry reg;
  ac.attach_metrics(&reg);
  edge::ServiceStats stats;
  // Costs: 100 pts -> 11000 ns, 50 pts -> 6000 ns, 10 pts -> 2000 ns.
  // Value order admits the 100-point cloud (11000), then denies the
  // 50-point one (6000 > 2000 left) but still re-grants the freed headroom
  // to the 10-point cloud (2000 ns) — FrameBudget's discipline.
  const auto out = ac.run(
      {service_frame(1, 0.1, {10}), service_frame(2, 0.1, {100, 50})}, 0.1,
      &stats);
  EXPECT_EQ(stats.arrived_objects, 3u);
  EXPECT_EQ(stats.admitted_objects, 2u);
  EXPECT_EQ(stats.shed_objects, 1u);
  EXPECT_EQ(reg.counter("service.budget_granted_ns").value(), 13000u);
  EXPECT_EQ(reg.counter("service.budget_denied_ns").value(), 6000u);
  ASSERT_EQ(total_objects(out), 2u);
  // Both fresh frame skeletons survive (validated poses) even where an
  // object was shed.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].objects.size(), 1u);
  EXPECT_EQ(out[0].objects[0].point_count, 10u);
  EXPECT_EQ(out[1].objects.size(), 1u);
  EXPECT_EQ(out[1].objects[0].point_count, 100u);
}

TEST(AdmissionController, DeniedWorkIsParkedThenReadmittedWithPriority) {
  edge::ServiceConfig cfg;
  cfg.enabled = true;
  cfg.cost_per_object_ns = 1000;
  cfg.cost_per_point_ns = 100;
  cfg.decode_merge_budget_us = 12;  // fits one 100-point object per frame
  cfg.max_defer_frames = 3;
  edge::AdmissionController ac(cfg.admission_policy());

  // Frame 1: two equally expensive objects from two vehicles; vehicle 1 wins
  // the tie-break, vehicle 2's object is deferred.
  edge::ServiceStats s1;
  ac.run({service_frame(1, 0.1, {100}), service_frame(2, 0.1, {100})}, 0.1,
         &s1);
  EXPECT_EQ(s1.admitted_objects, 1u);
  EXPECT_EQ(s1.deferred_objects, 1u);
  EXPECT_EQ(ac.parked_count(), 1u);

  // Frame 2: the parked object (age 1) outranks an equally big fresh one and
  // is re-admitted first; the fresh one parks in turn.
  edge::ServiceStats s2;
  const auto out2 = ac.run({service_frame(1, 0.2, {100})}, 0.2, &s2);
  EXPECT_EQ(s2.carried_objects, 1u);
  EXPECT_EQ(s2.admitted_objects, 1u);
  EXPECT_EQ(s2.deferred_objects, 1u);
  EXPECT_EQ(ac.parked_count(), 1u);
  // The re-admitted parked frame is emitted before the fresh skeleton so
  // fresh poses win in the edge's fleet registry.
  ASSERT_EQ(out2.size(), 2u);
  EXPECT_EQ(out2[0].vehicle, 2);
  EXPECT_EQ(out2[0].objects.size(), 1u);
  EXPECT_EQ(out2[1].vehicle, 1);
  EXPECT_TRUE(out2[1].objects.empty());
}

// A duplicated upload (the fault layer's kDuplicate, with no ingest guard to
// reject it) shares its original's (vehicle, upload_seq). Each copy must get
// back exactly its own admitted objects.
TEST(AdmissionController, DuplicateFramesEachKeepTheirOwnObjects) {
  edge::ServiceConfig cfg;
  cfg.enabled = true;
  cfg.decode_merge_budget_us = 1000;  // admits everything below
  edge::AdmissionController ac(cfg.admission_policy());
  edge::ServiceStats stats;
  const net::UploadFrame f = service_frame(1, 0.1, {50, 20});
  const auto out = ac.run({f, f}, 0.1, &stats);
  EXPECT_EQ(stats.admitted_objects, 4u);
  ASSERT_EQ(out.size(), 2u);
  for (const net::UploadFrame& g : out) {
    ASSERT_EQ(g.objects.size(), 2u);
    EXPECT_EQ(g.objects[0].point_count, 50u);
    EXPECT_EQ(g.objects[1].point_count, 20u);
  }
}

TEST(AdmissionController, DeferralExpiresIntoShedAtMaxDeferFrames) {
  edge::ServiceConfig cfg;
  cfg.enabled = true;
  cfg.cost_per_object_ns = 1000;
  cfg.cost_per_point_ns = 100;
  cfg.decode_merge_budget_us = 12;
  cfg.max_defer_frames = 2;
  edge::AdmissionController ac(cfg.admission_policy());

  // Each frame two fresh 100-point objects arrive but the budget fits only
  // one, so the backlog grows. Deferrals re-enter one frame older; once the
  // oldest loser reaches max_defer_frames it can no longer be parked and is
  // shed.
  std::size_t shed = 0;
  std::size_t arrived = 0;
  std::size_t admitted = 0;
  for (int frame = 0; frame < 6; ++frame) {
    edge::ServiceStats s;
    const double t = 0.1 * (frame + 1);
    ac.run({service_frame(1, t, {100, 100})}, t, &s);
    ASSERT_EQ(s.arrived_objects + s.carried_objects,
              s.admitted_objects + s.deferred_objects + s.shed_objects)
        << "frame " << frame;
    shed += s.shed_objects;
    arrived += s.arrived_objects;
    admitted += s.admitted_objects;
  }
  EXPECT_GT(shed, 0u);  // expiry engaged
  // Run-level identity: arrived == admitted + shed + still parked.
  EXPECT_EQ(arrived, admitted + shed + ac.parked_count());
}

TEST(AdmissionController, ParkingLotCapacityOverflowsIntoShed) {
  edge::ServiceConfig cfg;
  cfg.enabled = true;
  cfg.cost_per_object_ns = 1000;
  cfg.cost_per_point_ns = 100;
  cfg.decode_merge_budget_us = 1;  // 1000 ns: nothing with points fits
  cfg.defer_capacity = 2;
  edge::AdmissionController ac(cfg.admission_policy());
  edge::ServiceStats stats;
  ac.run({service_frame(1, 0.1, {10, 10, 10, 10})}, 0.1, &stats);
  EXPECT_EQ(stats.arrived_objects, 4u);
  EXPECT_EQ(stats.admitted_objects, 0u);
  EXPECT_EQ(stats.deferred_objects, 2u);  // defer_capacity
  EXPECT_EQ(stats.shed_objects, 2u);      // overflow sheds
  EXPECT_EQ(ac.parked_count(), 2u);
}

TEST(AdmissionController, CountersRecordThroughTheRegistry) {
  obs::MetricsRegistry reg;
  edge::ServiceConfig cfg;
  cfg.enabled = true;
  cfg.cost_per_object_ns = 1000;
  cfg.cost_per_point_ns = 100;
  cfg.decode_merge_budget_us = 12;
  cfg.max_defer_frames = 0;
  edge::AdmissionController ac(cfg.admission_policy());
  ac.attach_metrics(&reg);
  edge::ServiceStats stats;
  ac.run({service_frame(1, 0.1, {100, 100})}, 0.1, &stats);
  EXPECT_EQ(reg.counter("service.arrived_objects").value(), 2u);
  EXPECT_EQ(reg.counter("service.admitted_objects").value(), 1u);
  EXPECT_EQ(reg.counter("service.shed_objects").value(), 1u);
  EXPECT_EQ(reg.counter("service.budget_granted_ns").value(), 11000u);
  EXPECT_GT(reg.counter("service.budget_denied_ns").value(), 0u);
}

// ---------------------------------------------------------------------------
// Closed loop: the off-by-default contract and the service-on smoke.
// ---------------------------------------------------------------------------

std::uint64_t closed_loop_fingerprint(const edge::ServiceConfig& service) {
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
  rc.duration = 3.0;
  rc.service = service;
  edge::SystemRunner runner(rc);
  return edge::metrics_fingerprint(runner.run(sc));
}

TEST(ServiceMode, DisabledConfigIsBitIdenticalWhateverTheKnobsSay) {
  PoolGuard guard;
  core::set_thread_count(1);
  const std::uint64_t ref = closed_loop_fingerprint(edge::ServiceConfig{});
  // enabled=false must gate every other knob: junk values change nothing.
  edge::ServiceConfig junk;
  junk.enabled = false;
  junk.queue_lane_depth = 1;
  junk.queue_drain_max = 1;
  junk.decode_merge_budget_us = 1;
  junk.cost_per_point_ns = 1;
  junk.cost_per_object_ns = 1;
  junk.defer_capacity = 1;
  junk.max_defer_frames = 0;
  EXPECT_EQ(closed_loop_fingerprint(junk), ref);
}

TEST(ServiceMode, EnabledClosedLoopHoldsTheRunLevelFateIdentity) {
  PoolGuard guard;
  core::set_thread_count(2);
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
  rc.duration = 3.0;
  rc.service.enabled = true;
  rc.service.decode_merge_budget_us = 60;
  edge::SystemRunner runner(rc);
  const edge::MethodMetrics m = runner.run(sc);
  EXPECT_GT(m.service_arrived_objects, 0);
  EXPECT_GT(m.service_admitted_objects, 0);
  EXPECT_EQ(m.service_arrived_objects,
            m.service_admitted_objects + m.service_shed_objects +
                m.service_parked_residual);
}

// A passthrough service (no latency budget, no drain cap) is the lockstep
// pipeline: under uplink and downlink loss it must make the same decisions
// and bill the same byte fates as a disabled service, while deadline
// admission still sees every arriving object.
TEST(ServiceMode, PassthroughMatchesDisabled) {
  PoolGuard guard;
  core::set_thread_count(2);
  using Decision =
      std::tuple<int, sim::AgentId, int, sim::AgentId, std::size_t, double>;
  struct Run {
    edge::MethodMetrics m;
    std::vector<Decision> decisions;
  };
  const auto run = [](bool enabled) {
    sim::Scenario sc =
        sim::make_unprotected_left_turn(harness::default_intersection(42));
    edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
    rc.duration = 3.0;
    rc.fault.uplink_loss = 0.1;
    rc.fault.downlink_loss = 0.1;
    rc.service.enabled = enabled;
    rc.service.decode_merge_budget_us = 0;
    rc.service.queue_drain_max = 0;
    Run out;
    rc.on_decisions = [&out](int frame,
                             const std::vector<net::Dissemination>& ds) {
      for (const net::Dissemination& d : ds) {
        out.decisions.emplace_back(frame, d.to, d.track_id, d.about, d.bytes,
                                   d.relevance);
      }
    };
    edge::SystemRunner runner(rc);
    out.m = runner.run(sc);
    return out;
  };
  const Run off = run(false);
  const Run on = run(true);
  EXPECT_FALSE(off.decisions.empty());
  EXPECT_EQ(on.decisions, off.decisions);
  EXPECT_EQ(on.m.uplink_bytes_per_frame, off.m.uplink_bytes_per_frame);
  EXPECT_EQ(on.m.uplink_offered_bytes_per_frame,
            off.m.uplink_offered_bytes_per_frame);
  EXPECT_EQ(on.m.uplink_lost_bytes_per_frame,
            off.m.uplink_lost_bytes_per_frame);
  EXPECT_GT(off.m.uplink_lost_bytes_per_frame, 0.0);
  EXPECT_EQ(on.m.uplink_loss_ratio, off.m.uplink_loss_ratio);
  EXPECT_EQ(on.m.delivered_relevance, off.m.delivered_relevance);
  EXPECT_EQ(on.m.min_key_distance, off.m.min_key_distance);
  EXPECT_EQ(on.m.service_backpressure_uploads, 0);
  EXPECT_GT(on.m.service_arrived_objects, 0);
  EXPECT_EQ(off.m.service_arrived_objects, 0);
}

// Drain-cap backpressure in the closed loop: a drain cap below the fleet
// size must drop whole upload frames as the backpressure fate, and those
// bytes must stay inside the offered-byte partition (the runner ENSUREs the
// partition every frame; uplink_drop_ratio <= 1 would catch a leak too).
// Under uplink loss the cap counts only surviving uploads: a lost frame
// never takes a drain slot, so each frame's backpressure is exactly
// max(0, sensing vehicles - lost uploads - cap).
TEST(ServiceMode, DrainCapProducesBackpressureFates) {
  PoolGuard guard;
  core::set_thread_count(2);
  constexpr std::size_t kCap = 2;  // fleet is ~6 connected vehicles
  sim::Scenario sc =
      sim::make_unprotected_left_turn(harness::default_intersection(42));
  edge::RunnerConfig rc = edge::make_runner_config(edge::Method::kOurs);
  rc.duration = 3.0;
  rc.fault.uplink_loss = 0.3;
  rc.service.enabled = true;
  rc.service.queue_drain_max = kCap;
  obs::MetricsRegistry reg;
  rc.metrics = &reg;
  std::uint64_t prev_lost = 0;
  std::uint64_t prev_backpressure = 0;
  std::uint64_t total_lost = 0;
  int frames = 0;
  int mismatches = 0;
  rc.on_frame = [&](const edge::FrameTrace& tr) {
    const std::uint64_t lost = reg.counter("net.uplink_lost_msgs").value();
    const std::uint64_t backpressure =
        reg.counter("service.backpressure_uploads").value();
    const std::size_t lost_now = lost - prev_lost;
    const std::size_t survivors = tr.vehicles - lost_now;
    const std::size_t expected = survivors > kCap ? survivors - kCap : 0;
    if (backpressure - prev_backpressure != expected) ++mismatches;
    total_lost += lost_now;
    prev_lost = lost;
    prev_backpressure = backpressure;
    ++frames;
  };
  edge::SystemRunner runner(rc);
  const edge::MethodMetrics m = runner.run(sc);
  EXPECT_GT(frames, 0);
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(total_lost, 0u);
  EXPECT_GT(m.service_backpressure_uploads, 0);
  EXPECT_GT(m.uplink_backpressure_bytes_per_frame, 0.0);
  EXPECT_LE(m.uplink_backpressure_bytes_per_frame,
            m.uplink_offered_bytes_per_frame);
}

}  // namespace
}  // namespace erpd
