#pragma once
// The traced run: the benchmark drives each frame itself, the way
// SystemRunner::run does, through the layers' public entry points only, and
// records a span around every call. Nothing inside the layers changes.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace framebench {

using Clock = std::chrono::steady_clock;

/// Chrome trace lanes: frame-level spans sit on the sim and edge lanes,
/// per-vehicle spans on the lane of the pool worker that ran them.
inline constexpr int kSimLane = 0;
inline constexpr int kEdgeLane = 1;
inline constexpr int kFirstWorkerLane = 2;

struct Span {
  const char* name{""};
  double start_us{0.0};  ///< since the tracer's origin
  double end_us{0.0};
  int parent{-1};        ///< index into the span list, -1 for roots
  int frame{-1};
  int vehicle{-1};
  int lane{kSimLane};
  std::uint64_t pass{0};
};

/// In-memory span ledger. Only the calling thread opens and closes spans;
/// pool workers fill per-vehicle slots that it appends after the
/// parallel region joins.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  int open(const char* name, int parent, int frame, int lane, int vehicle = -1);
  /// Close span `id`; returns its duration in seconds.
  double close(int id);
  int add(Span s);
  void set_pass(std::uint64_t pass) { pass_ = pass; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
  bool write_chrome_trace(const std::string& path,
                          const std::string& title) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint64_t pass_{0};
};

/// Lane of the calling pool worker (stable per thread).
int worker_lane();

/// Per-frame layer quantities summed over the traced frames of a run.
/// Times in seconds, sizes in points/bytes/objects.
struct LayerSums {
  std::size_t frames{0};
  std::size_t workers{1};
  // sim
  double step{0}, scan{0}, snapshot{0};
  double scan_points{0}, agents{0};
  // pointcloud (extract from make_upload; the rest from the replay)
  double extract{0}, extract_max{0};
  double ground{0}, voxel{0}, dbscan{0}, clusters_time{0};
  double after_ground{0}, after_voxel{0}, clusters{0}, moving_clusters{0};
  // edge client + pool
  double make_upload{0}, make_upload_max{0};
  double upload_bytes{0}, suppressed_bytes{0};
  double fanout{0}, fanout_wait{0};
  // net
  double net_uplink{0};
  double offered{0}, delivered_pre_faults{0}, capped{0}, lost{0}, backpressure{0};
  double down_selected{0}, down_missed{0};
  // edge server
  double process_frame{0}, merge{0}, detections{0};
  double admitted{0}, admission_in{0}, shed{0}, feedback_bytes{0};
  // track + relevance + dissemination
  double predict{0}, confirmed{0}, predicted{0}, coasting{0};
  double relevance{0}, candidates{0}, disseminate{0}, selected{0};
  double delivery{0};
  // frame ledger
  double wall{0}, unattributed{0};
  double min_unattributed{0};
};

struct TracedPass {
  std::vector<double> frame_wall_s;
  std::size_t attempted{0};
  std::size_t completed{0};
  Behaviour behaviour;
  std::string error;
};

/// Drive one pass of `w` frame by frame, recording spans into `tracer` and
/// layer quantities into `sums`. Before each frame starts, outside its
/// spans, the pointcloud stages are replayed on each sensing vehicle's scan.
TracedPass run_traced(const Workload& w, std::uint64_t scenario_seed,
                      Tracer& tracer, LayerSums& sums);

/// The per-layer metrics, as (name, unit, value), from a run's sums.
struct LayerMetric {
  std::string name;
  const char* unit;
  double value;
};
std::vector<LayerMetric> layer_metrics(const LayerSums& s);

}  // namespace framebench
