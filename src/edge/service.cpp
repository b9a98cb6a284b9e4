#include "edge/service.hpp"

#include <algorithm>
#include <limits>
#include <string_view>

#include "core/check.hpp"
#include "net/channel.hpp"

namespace erpd::edge {

void AdmissionPolicy::validate() const {
  ERPD_REQUIRE(max_defer_frames >= 0,
               "AdmissionPolicy: max_defer_frames must be >= 0, got ",
               max_defer_frames);
  ERPD_REQUIRE(cost_per_object > 0 || cost_per_point > 0,
               "AdmissionPolicy: cost model is all-zero; every upload would "
               "be free and the budget could never shed");
}

void ServiceConfig::validate() const {
  ERPD_REQUIRE(queue_lane_depth > 0,
               "ServiceConfig: queue_lane_depth must be > 0, got ",
               queue_lane_depth);
  ERPD_REQUIRE(decode_merge_budget_us <=
                   std::numeric_limits<std::uint64_t>::max() / 1000,
               "ServiceConfig: decode_merge_budget_us overflows nanoseconds, "
               "got ", decode_merge_budget_us);
  admission_policy().validate();
}

AdmissionPolicy ServiceConfig::admission_policy() const {
  return AdmissionPolicy{decode_merge_budget_us * 1000, cost_per_point_ns,
                         cost_per_object_ns, defer_capacity,
                         max_defer_frames};
}

AdmissionController::AdmissionController(AdmissionPolicy policy)
    : policy_(policy) {
  policy_.validate();
}

void AdmissionController::attach_metrics(obs::MetricsRegistry* registry) {
  const auto counter = [registry](std::string_view name) {
    return registry != nullptr ? &registry->counter(name) : nullptr;
  };
  arrived_ctr_ = counter("service.arrived_objects");
  admitted_ctr_ = counter("service.admitted_objects");
  deferred_ctr_ = counter("service.deferred_objects");
  shed_ctr_ = counter("service.shed_objects");
  granted_ctr_ = counter("service.budget_granted_ns");
  denied_ctr_ = counter("service.budget_denied_ns");
}

std::vector<net::UploadFrame> AdmissionController::run(
    std::vector<net::UploadFrame> uploads, double t, ServiceStats* stats) {
  (void)t;
  ERPD_REQUIRE(stats != nullptr, "AdmissionController::run: stats is null");
  *stats = ServiceStats{};

  // Budget 0 = shedding off: pass everything through, but still account
  // arrivals so the fate identity holds trivially.
  if (policy_.budget == 0) {
    for (const net::UploadFrame& f : uploads) {
      stats->arrived_objects += f.objects.size();
      stats->admitted_objects += f.objects.size();
    }
    ERPD_ENSURE(parked_.empty(),
                "AdmissionController: parked objects with a zero budget; the "
                "budget knob must not change mid-run");
    if (arrived_ctr_ != nullptr) arrived_ctr_->add(stats->arrived_objects);
    if (admitted_ctr_ != nullptr) admitted_ctr_->add(stats->admitted_objects);
    stats->carried_objects = 0;
    return uploads;
  }

  // Gather candidates: the parking lot first (ages by one frame), then every
  // fresh object. Order counters are assigned in input order, which is
  // deterministic because the guard/runner already emit uploads in a fixed
  // order.
  std::vector<Candidate> candidates;
  candidates.reserve(parked_.size() + 16);
  for (Candidate& p : parked_) {
    ++p.age;
    candidates.push_back(std::move(p));
  }
  stats->carried_objects = parked_.size();
  parked_.clear();

  // Fresh frames keep their skeletons (pose sync for the fleet registry)
  // even when every object is deferred or shed.
  std::vector<net::UploadFrame> fresh = std::move(uploads);
  for (std::size_t fi = 0; fi < fresh.size(); ++fi) {
    net::UploadFrame& f = fresh[fi];
    for (net::ObjectUpload& o : f.objects) {
      candidates.push_back(Candidate{std::move(o), f.vehicle, f.pose,
                                     f.timestamp, f.upload_seq, 0,
                                     next_order_++, fi});
      ++stats->arrived_objects;
    }
    f.objects.clear();
  }

  // Admission order: oldest deferrals first (they expire soonest and their
  // payload is already stale), then biggest clouds first (they carry the
  // most perception value per header), with (vehicle, order) as the
  // deterministic tie-break.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.age != b.age) return a.age > b.age;
              if (a.obj.point_count != b.obj.point_count) {
                return a.obj.point_count > b.obj.point_count;
              }
              if (a.vehicle != b.vehicle) return a.vehicle < b.vehicle;
              return a.order < b.order;
            });

  net::FrameBudget budget(policy_.budget);
  budget.attach(granted_ctr_, denied_ctr_);

  std::vector<Candidate> admitted;
  admitted.reserve(candidates.size());
  for (Candidate& c : candidates) {
    if (budget.try_grant(cost(c.obj))) {
      ++stats->admitted_objects;
      admitted.push_back(std::move(c));
      continue;
    }
    // Denied: defer if the object is still fresh enough and the parking lot
    // has room, otherwise shed. Both are final fates for this frame.
    if (c.age < policy_.max_defer_frames &&
        parked_.size() < policy_.defer_capacity) {
      ++stats->deferred_objects;
      parked_.push_back(std::move(c));
    } else {
      ++stats->shed_objects;
    }
  }

  // Exactly-once fate partition, checked every frame.
  ERPD_ENSURE(stats->arrived_objects + stats->carried_objects ==
                  stats->admitted_objects + stats->deferred_objects +
                      stats->shed_objects,
              "AdmissionController: fate partition leaked: arrived ",
              stats->arrived_objects, " + carried ", stats->carried_objects,
              " != admitted ", stats->admitted_objects, " + deferred ",
              stats->deferred_objects, " + shed ", stats->shed_objects);

  // Re-emit: carried objects grouped by their source frame first (in parked
  // order), then the fresh skeletons with their admitted objects restored in
  // arrival order. Fresh frames come last so their poses overwrite any
  // stale parked pose in the edge's fleet registry.
  std::sort(admitted.begin(), admitted.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.order < b.order;
            });

  std::vector<net::UploadFrame> out;
  out.reserve(fresh.size() + admitted.size());
  for (Candidate& c : admitted) {
    if (c.age == 0) {
      fresh[c.frame].objects.push_back(std::move(c.obj));
      continue;
    }
    if (out.empty() || out.back().vehicle != c.vehicle ||
        out.back().upload_seq != c.upload_seq) {
      net::UploadFrame f;
      f.vehicle = c.vehicle;
      f.pose = c.pose;
      f.timestamp = c.timestamp;
      f.upload_seq = c.upload_seq;
      out.push_back(std::move(f));
    }
    out.back().objects.push_back(std::move(c.obj));
  }
  for (net::UploadFrame& f : fresh) out.push_back(std::move(f));

  if (arrived_ctr_ != nullptr) arrived_ctr_->add(stats->arrived_objects);
  if (admitted_ctr_ != nullptr) admitted_ctr_->add(stats->admitted_objects);
  if (deferred_ctr_ != nullptr) deferred_ctr_->add(stats->deferred_objects);
  if (shed_ctr_ != nullptr) shed_ctr_->add(stats->shed_objects);
  return out;
}

}  // namespace erpd::edge
