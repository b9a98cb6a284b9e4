#pragma once
// Deterministic bounded MPSC ingest queue (DESIGN.md §17).
//
// Classic MPSC queues order items by arrival time, which makes the drain
// order a race result — poison for a pipeline whose contract is bit-identical
// output at any worker count. MpscLaneQueue removes the race by construction:
// the queue is an array of bounded LANES, one per producer index, and the
// single consumer drains lanes in INDEX order (items within a lane in push
// order). Concurrency comes from producers writing disjoint lanes in
// parallel; ordering comes from the lane indices, never from the schedule.
//
// SystemRunner does not use it: with one upload per vehicle per frame a lane
// can never fill, so its uplink fate pass applies the drain cap directly in
// site order. The queue stays for callers that drive it themselves, such as
// the frame benchmark's traced replay.
//
// Synchronization contract (deliberately lock- and atomic-free):
//   * at most one producer touches a given lane at a time — when a lane is
//     a parallel_for index, its "one task per index" discipline enforces
//     this for free;
//   * drain()/clear()/size() run only after all producers have quiesced —
//     the pool join at the end of the parallel region is the happens-before
//     edge, exactly as for the index-addressed result slots the fan-out
//     already writes.
// Violating either is a data race (TSan-visible), not a subtle reorder.
//
// Backpressure fates are explicit and deterministic:
//   * try_push returns false when the lane is at lane_depth — a per-lane
//     bound, so whether a push is refused depends only on (lane, position),
//     never on what other producers are doing;
//   * drain(max_items) delivers at most max_items items and routes the
//     overflow — always the HIGHEST lane indices, since lanes drain in
//     ascending order — through on_drop, so every queued item lands in
//     exactly one of {delivered, dropped} per drain.

#include <cstddef>
#include <utility>
#include <vector>

#include "core/check.hpp"

namespace erpd::core {

template <typename T>
class MpscLaneQueue {
 public:
  /// A queue of `lanes` bounded lanes holding up to `lane_depth` items each.
  MpscLaneQueue(std::size_t lanes, std::size_t lane_depth)
      : lane_depth_(lane_depth), lanes_(lanes) {
    ERPD_REQUIRE(lane_depth > 0,
                 "MpscLaneQueue: lane_depth must be > 0, got ", lane_depth);
    for (std::vector<T>& lane : lanes_) lane.reserve(lane_depth);
  }

  std::size_t lanes() const { return lanes_.size(); }
  std::size_t lane_depth() const { return lane_depth_; }

  /// Items currently queued across all lanes. Consumer-side only.
  std::size_t size() const {
    std::size_t n = 0;
    for (const std::vector<T>& lane : lanes_) n += lane.size();
    return n;
  }

  /// Enqueue into `lane`; false when the lane is full (the caller owns the
  /// rejected item and must bill its backpressure fate). Safe to call from
  /// one producer per lane concurrently with other lanes' producers.
  bool try_push(std::size_t lane, T item) {
    ERPD_DCHECK(lane < lanes_.size(), "MpscLaneQueue: lane ", lane,
                " out of range ", lanes_.size());
    std::vector<T>& q = lanes_[lane];
    if (q.size() >= lane_depth_) return false;
    q.push_back(std::move(item));
    return true;
  }

  struct DrainStats {
    std::size_t delivered{0};
    std::size_t dropped{0};
  };

  /// Deliver queued items to `on_item` in (lane index, push order), at most
  /// `max_items` of them (0 = unbounded); the overflow goes to `on_drop`.
  /// Leaves the queue empty. Consumer-side only.
  template <typename OnItem, typename OnDrop>
  DrainStats drain(std::size_t max_items, OnItem&& on_item, OnDrop&& on_drop) {
    DrainStats stats;
    for (std::vector<T>& lane : lanes_) {
      for (T& item : lane) {
        if (max_items == 0 || stats.delivered < max_items) {
          on_item(std::move(item));
          ++stats.delivered;
        } else {
          on_drop(std::move(item));
          ++stats.dropped;
        }
      }
      lane.clear();
    }
    return stats;
  }

  /// Drop everything (lane capacity is kept for reuse). Consumer-side only.
  void clear() {
    for (std::vector<T>& lane : lanes_) lane.clear();
  }

 private:
  std::size_t lane_depth_;
  std::vector<std::vector<T>> lanes_;
};

}  // namespace erpd::core
