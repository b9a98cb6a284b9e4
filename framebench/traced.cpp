#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <stdexcept>

#include "core/mpsc_queue.hpp"
#include "core/thread_pool.hpp"
#include "edge/edge_server.hpp"
#include "edge/vehicle_client.hpp"
#include "geom/voronoi.hpp"
#include "net/channel.hpp"
#include "net/fault.hpp"
#include "pointcloud/dbscan.hpp"
#include "pointcloud/encoding.hpp"
#include "pointcloud/ground_filter.hpp"
#include "pointcloud/moving_extractor.hpp"
#include "pointcloud/voxel_grid.hpp"

namespace framebench {

using namespace erpd;

int Tracer::open(const char* name, int parent, int frame, int lane,
                 int vehicle) {
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.parent = parent;
  s.frame = frame;
  s.vehicle = vehicle;
  s.lane = lane;
  return add(s);
}

double Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_us = now_us();
  return (s.end_us - s.start_us) * 1e-6;
}

int Tracer::add(Span s) {
  s.pass = pass_;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& title) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int max_lane = kFirstWorkerLane;
  for (const Span& s : spans_) max_lane = std::max(max_lane, s.lane);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"title\":\"%s\"},"
                  "\"traceEvents\":[\n", title.c_str());
  std::fprintf(f, "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
                  "\"args\":{\"name\":\"framebench %s\"}}", title.c_str());
  for (int lane = 0; lane <= max_lane; ++lane) {
    char name[32];
    if (lane == kSimLane) {
      std::snprintf(name, sizeof name, "sim");
    } else if (lane == kEdgeLane) {
      std::snprintf(name, sizeof name, "edge");
    } else {
      std::snprintf(name, sizeof name, "worker %d", lane - kFirstWorkerLane);
    }
    std::fprintf(f, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
                    "\"args\":{\"name\":\"%s\"}}", lane, name);
    std::fprintf(f, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                    "\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}",
                 lane, lane);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                    "\"pass\":%llu,\"frame\":%d",
                 s.lane, s.name, s.start_us, s.end_us - s.start_us, i, s.parent,
                 static_cast<unsigned long long>(s.pass), s.frame);
    if (s.vehicle >= 0) std::fprintf(f, ",\"vehicle\":%d", s.vehicle);
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

int worker_lane() {
  static std::atomic<int> next{kFirstWorkerLane};
  thread_local const int lane = next.fetch_add(1);
  return lane;
}

namespace {

/// The shared uplink cap, as SystemRunner applies it (its helper is
/// private): grant order rotates by frame, blob uploads are truncated to
/// what still fits, object-granular uploads drop whole objects.
std::vector<net::UploadFrame> apply_uplink_cap(
    std::vector<net::UploadFrame> frames, std::size_t budget_bytes,
    std::size_t rotate) {
  std::vector<net::UploadFrame> out;
  if (frames.empty()) return out;
  net::FrameBudget budget(budget_bytes);
  const std::size_t n = frames.size();
  for (std::size_t k = 0; k < n; ++k) {
    net::UploadFrame& f = frames[(rotate + k) % n];
    if (!budget.try_grant(net::UploadFrame::kFrameOverhead)) break;
    net::UploadFrame kept;
    kept.vehicle = f.vehicle;
    kept.pose = f.pose;
    kept.timestamp = f.timestamp;
    kept.upload_seq = f.upload_seq;
    for (net::ObjectUpload& obj : f.objects) {
      if (budget.try_grant(obj.bytes)) {
        kept.objects.push_back(std::move(obj));
        continue;
      }
      if (!obj.object_granular) {
        const std::size_t avail = budget.remaining();
        const std::size_t header = pc::encoded_size_bytes(0);
        if (avail > header + 64) {
          const std::size_t pts = (avail - header) / pc::kBytesPerPoint;
          net::ObjectUpload part;
          part.object_granular = false;
          std::vector<geom::Vec3> sub(
              obj.cloud_world.points().begin(),
              obj.cloud_world.points().begin() +
                  static_cast<std::ptrdiff_t>(
                      std::min<std::size_t>(pts, obj.cloud_world.size())));
          part.cloud_world = pc::PointCloud{std::move(sub)};
          part.point_count = part.cloud_world.size();
          part.bytes = pc::encoded_size_bytes(part.point_count);
          part.centroid_world = part.cloud_world.centroid();
          budget.grant_partial(part.bytes);
          kept.objects.push_back(std::move(part));
        }
      }
    }
    if (!kept.objects.empty()) out.push_back(std::move(kept));
  }
  return out;
}

/// Per-vehicle result of replaying the extraction stages on one scan.
struct ReplaySample {
  double ground{0}, voxel{0}, dbscan{0}, clusters_time{0};
  std::size_t after_ground{0}, after_voxel{0};
  std::size_t clusters{0}, moving_clusters{0};
  Span span;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Replay the on-vehicle extraction stages, stage by stage, on the scans
/// the sensing vehicles take this frame, plus a shadow extractor per
/// vehicle for the moving-cluster count. World state does not change until
/// World::step, so these are the scans make_upload will see.
void replay_pointcloud(const sim::World& world,
                       const std::vector<sim::AgentId>& vehicles,
                       const pc::MovingExtractorConfig& ext,
                       std::map<sim::AgentId, pc::MovingObjectExtractor>& shadows,
                       Tracer& tracer, int frame, LayerSums& sums) {
  const int root = tracer.open("pointcloud.replay", -1, frame, kSimLane);
  std::vector<pc::MovingObjectExtractor*> shadow(vehicles.size());
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    shadow[i] = &shadows.try_emplace(vehicles[i], ext).first->second;
  }
  std::vector<ReplaySample> out(vehicles.size());
  const double t = world.time();
  core::parallel_for(vehicles.size(), 1, [&](std::size_t i) {
    ReplaySample& r = out[i];
    r.span.name = "pointcloud.replay_vehicle";
    r.span.start_us = tracer.now_us();
    const sim::LidarScan scan = world.scan_from(vehicles[i]);
    Clock::time_point c = Clock::now();
    const pc::PointCloud no_ground = pc::remove_ground(scan.cloud, ext.ground);
    r.ground = seconds_since(c);
    c = Clock::now();
    const pc::PointCloud work = ext.voxel_size > 0.0
                                    ? pc::voxel_downsample(no_ground, ext.voxel_size)
                                    : no_ground;
    r.voxel = seconds_since(c);
    c = Clock::now();
    const pc::DbscanResult seg = pc::dbscan(work, ext.dbscan);
    r.dbscan = seconds_since(c);
    c = Clock::now();
    const std::vector<pc::ObjectCluster> clusters = pc::extract_clusters(work, seg);
    r.clusters_time = seconds_since(c);
    r.after_ground = no_ground.size();
    r.after_voxel = work.size();
    const sim::Vehicle* v = world.find_vehicle(vehicles[i]);
    const pc::ExtractionResult ex = shadow[i]->process(
        scan.cloud, v->sensor_pose(world.network(), world.config().sensor_height), t);
    r.clusters = ex.stats.clusters;
    r.moving_clusters = ex.stats.moving_clusters;
    r.span.end_us = tracer.now_us();
    r.span.lane = worker_lane();
  });
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    ReplaySample& r = out[i];
    r.span.parent = root;
    r.span.frame = frame;
    r.span.vehicle = static_cast<int>(vehicles[i]);
    tracer.add(r.span);
    sums.ground += r.ground;
    sums.voxel += r.voxel;
    sums.dbscan += r.dbscan;
    sums.clusters_time += r.clusters_time;
    sums.after_ground += static_cast<double>(r.after_ground);
    sums.after_voxel += static_cast<double>(r.after_voxel);
    sums.clusters += static_cast<double>(r.clusters);
    sums.moving_clusters += static_cast<double>(r.moving_clusters);
  }
  tracer.close(root);
}

}  // namespace

TracedPass run_traced(const Workload& w, std::uint64_t scenario_seed,
                      Tracer& tracer, LayerSums& sums) {
  TracedPass p;
  sim::Scenario sc = w.build_scenario(scenario_seed);
  edge::RunnerConfig cfg = w.runner_config(scenario_seed);
  if (cfg.method == edge::Method::kSingle || cfg.frames_per_pipeline != 1 ||
      cfg.fault.uplink_corruption > 0.0 || cfg.fault.downlink_corruption > 0.0 ||
      !cfg.fault.byzantine.empty()) {
    // Wire corruption and Byzantine senders are materialised by a helper
    // private to SystemRunner; a traced pass could not reproduce them.
    throw std::invalid_argument("traced run: unsupported workload config");
  }
  // As the SystemRunner constructor: validate, then one source of truth
  // for both ends of the link.
  cfg.wireless.validate();
  cfg.fault.validate();
  cfg.redundancy.validate();
  cfg.service.validate();
  cfg.client.redundancy = cfg.redundancy;
  cfg.edge.redundancy = cfg.redundancy;
  cfg.edge.service = cfg.service;

  sim::World& world = sc.world;
  const sim::RoadNetwork& net = world.network();
  const int steps = static_cast<int>(std::llround(cfg.duration / world.config().dt));
  p.attempted = static_cast<std::size_t>(steps);
  sums.workers = core::thread_count();

  std::vector<std::uint64_t> decisions;
  net::BandwidthMeter up_meter;
  net::BandwidthMeter down_meter;
  double sum_offered = 0.0;
  double delivered_relevance = 0.0;
  int disseminations = 0;
  std::map<sim::AgentId, pc::MovingObjectExtractor> shadows;

  try {
    std::map<sim::AgentId, edge::VehicleClient> clients;
    const auto add_clients = [&] {
      for (const sim::Vehicle& v : world.vehicles()) {
        if (v.params().connected && !v.params().parked &&
            !clients.contains(v.id())) {
          clients.emplace(v.id(), edge::VehicleClient(v.id(), cfg.client));
        }
      }
    };
    add_clients();
    edge::EdgeServer server(net, cfg.edge);
    net::LossyChannel channel(cfg.fault);
    const bool faults = channel.active();
    std::map<sim::AgentId, bool> offline_prev;
    const bool capped =
        cfg.method == edge::Method::kEmp || cfg.method == edge::Method::kOurs;
    const bool service_mode = cfg.service.enabled;

    for (int frame = 0; frame < steps; ++frame) {
      std::vector<sim::AgentId> sensing;
      for (const sim::Vehicle& v : world.vehicles()) {
        if (!v.params().connected || v.params().parked || v.finished(net) ||
            v.crashed()) {
          continue;
        }
        if (faults && channel.vehicle_offline(v.id(), world.time())) continue;
        sensing.push_back(v.id());
      }
      replay_pointcloud(world, sensing, cfg.client.extractor, shadows, tracer,
                        frame, sums);

      FrameLedger ledger;
      const int frame_span = tracer.open("frame", -1, frame, kSimLane);
      sums.agents += static_cast<double>(world.vehicles().size() +
                                         world.pedestrians().size());

      add_clients();
      std::vector<geom::Vec2> sites;
      std::vector<sim::AgentId> site_ids;
      for (auto& [vid, client] : clients) {
        const sim::Vehicle* v = world.find_vehicle(vid);
        if (v == nullptr || v->finished(net) || v->crashed()) continue;
        if (faults) {
          const bool off = channel.vehicle_offline(vid, world.time());
          bool& was_off = offline_prev[vid];
          if (was_off && !off) client.reset_pipeline();
          was_off = off;
          if (off) continue;
        }
        sites.push_back(v->position(net));
        site_ids.push_back(vid);
      }
      const geom::VoronoiPartition voronoi(sites);

      int span = tracer.open("sim.snapshot", frame_span, frame, kSimLane);
      const std::vector<sim::AgentSnapshot> truth = world.snapshot();
      const double snapshot = tracer.close(span);
      ledger.parts.emplace_back("sim.snapshot", snapshot);
      sums.snapshot += snapshot;

      // --- fan-out: sense + extract + (service mode) loss and enqueue ---
      const std::size_t n = site_ids.size();
      std::vector<edge::ClientFrameStats> stats(n);
      std::vector<net::UploadFrame> uploads;
      std::vector<Span> vspans(n);
      std::vector<std::size_t> slot_bytes(n, 0);
      std::vector<std::uint8_t> slot_lost(n, 0);
      std::vector<std::uint8_t> slot_refused(n, 0);
      std::size_t offered_bytes = 0;
      std::size_t lost_bytes = 0;
      std::size_t backpressure_bytes = 0;
      core::MpscLaneQueue<net::UploadFrame> queue(n, cfg.service.queue_lane_depth);
      if (!service_mode) uploads.resize(n);
      const auto make_upload = [&](std::size_t i) {
        Span& s = vspans[i];
        s.name = "edge.client.make_upload";
        s.start_us = tracer.now_us();
        net::UploadFrame f = clients.at(site_ids[i])
                                 .make_upload(world, &voronoi, i, &stats[i], &truth);
        s.end_us = tracer.now_us();
        s.lane = worker_lane();
        return f;
      };
      span = tracer.open("core.pool.fanout", frame_span, frame, kSimLane);
      if (service_mode) {
        core::parallel_for(n, 1, [&](std::size_t i) {
          net::UploadFrame f = make_upload(i);
          slot_bytes[i] = f.total_bytes();
          if (faults && channel.uplink_lost(f.vehicle, frame, world.time())) {
            slot_lost[i] = 1;
            return;
          }
          if (!queue.try_push(i, std::move(f))) slot_refused[i] = 1;
        });
      } else {
        core::parallel_for(n, 1, [&](std::size_t i) { uploads[i] = make_upload(i); });
      }
      const double fanout = tracer.close(span);
      ledger.parts.emplace_back("core.pool.fanout", fanout);
      double slowest = 0.0;
      double make_upload_sum = 0.0;
      double extract_max = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        Span s = vspans[i];
        s.parent = span;
        s.frame = frame;
        s.vehicle = static_cast<int>(site_ids[i]);
        tracer.add(s);
        const double d = (s.end_us - s.start_us) * 1e-6;
        slowest = std::max(slowest, d);
        make_upload_sum += d;
        extract_max = std::max(extract_max, stats[i].processing_seconds);
        sums.scan += stats[i].sensing_seconds;
        sums.extract += stats[i].processing_seconds;
        sums.scan_points += static_cast<double>(stats[i].raw_points);
        sums.suppressed_bytes += static_cast<double>(stats[i].suppressed_bytes);
      }
      sums.extract_max += extract_max;
      sums.make_upload += make_upload_sum;
      sums.make_upload_max += slowest;
      sums.fanout += fanout;
      sums.fanout_wait += std::max(0.0, fanout - slowest);

      // --- uplink fates: channel loss, queue drain, shared cap ---
      span = tracer.open("net.uplink", frame_span, frame, kEdgeLane);
      if (service_mode) {
        for (std::size_t i = 0; i < n; ++i) {
          offered_bytes += slot_bytes[i];
          if (slot_lost[i] != 0) {
            lost_bytes += slot_bytes[i];
          } else if (slot_refused[i] != 0) {
            backpressure_bytes += slot_bytes[i];
          }
        }
        uploads.reserve(n);
        queue.drain(
            cfg.service.queue_drain_max,
            [&](net::UploadFrame&& f) { uploads.push_back(std::move(f)); },
            [&](net::UploadFrame&& f) { backpressure_bytes += f.total_bytes(); });
      } else {
        for (const net::UploadFrame& f : uploads) offered_bytes += f.total_bytes();
        if (faults) {
          std::vector<net::UploadFrame> kept;
          kept.reserve(uploads.size());
          for (net::UploadFrame& f : uploads) {
            if (channel.uplink_lost(f.vehicle, frame, world.time())) {
              lost_bytes += f.total_bytes();
            } else {
              kept.push_back(std::move(f));
            }
          }
          uploads = std::move(kept);
        }
      }
      sums.upload_bytes += static_cast<double>(offered_bytes);
      std::vector<net::UploadFrame> delivered =
          capped ? apply_uplink_cap(std::move(uploads),
                                    cfg.wireless.uplink_budget_bytes(),
                                    static_cast<std::size_t>(frame))
                 : std::move(uploads);
      std::size_t delivered_bytes = 0;
      for (const net::UploadFrame& f : delivered) delivered_bytes += f.total_bytes();
      if (lost_bytes + backpressure_bytes + delivered_bytes > offered_bytes) {
        throw std::logic_error("traced run: uplink byte partition leaked");
      }
      const std::size_t capped_bytes =
          offered_bytes - lost_bytes - backpressure_bytes - delivered_bytes;
      up_meter.add(delivered_bytes);
      sum_offered += static_cast<double>(offered_bytes);
      sums.offered += static_cast<double>(offered_bytes);
      sums.delivered_pre_faults += static_cast<double>(delivered_bytes);
      sums.capped += static_cast<double>(capped_bytes);
      sums.lost += static_cast<double>(lost_bytes);
      sums.backpressure += static_cast<double>(backpressure_bytes);
      const double net_uplink = tracer.close(span);
      ledger.parts.emplace_back("net.uplink", net_uplink);
      sums.net_uplink += net_uplink;

      // --- edge server ---
      span = tracer.open("edge.server.process_frame", frame_span, frame, kEdgeLane);
      const edge::FrameOutput fo = server.process_frame(delivered, world.time(), &truth);
      const double process = tracer.close(span);
      ledger.parts.emplace_back("edge.server.process_frame", process);
      decisions.push_back(hash_decisions(frame, fo.selected));
      sums.process_frame += process;
      sums.merge += fo.timings.merge_seconds;
      sums.predict += fo.timings.track_predict_seconds;
      sums.relevance += fo.timings.relevance_seconds;
      sums.disseminate += fo.timings.dissemination_seconds;
      sums.detections += static_cast<double>(fo.detections);
      sums.confirmed += static_cast<double>(fo.confirmed_tracks);
      sums.predicted += static_cast<double>(fo.predicted_tracks);
      sums.coasting += static_cast<double>(fo.coasting_tracks);
      sums.candidates += static_cast<double>(fo.candidates);
      sums.selected += static_cast<double>(fo.selected.size());
      sums.feedback_bytes += static_cast<double>(fo.feedback_bytes);
      sums.shed += static_cast<double>(fo.service.shed_objects);
      if (service_mode) {
        sums.admitted += static_cast<double>(fo.service.admitted_objects);
        sums.admission_in += static_cast<double>(fo.service.arrived_objects +
                                                 fo.service.carried_objects);
      } else {
        // Lockstep has no admission: every delivered object is merged.
        for (const net::UploadFrame& f : delivered) {
          sums.admitted += static_cast<double>(f.objects.size());
          sums.admission_in += static_cast<double>(f.objects.size());
        }
      }

      // --- downlink: deliver disseminations and coverage feedback ---
      span = tracer.open("edge.delivery", frame_span, frame, kEdgeLane);
      for (const net::Dissemination& d : fo.selected) {
        bool miss = false;
        if (faults) {
          if (channel.downlink_lost(d.to, d.track_id, frame, world.time())) {
            miss = true;
          } else if (channel.downlink_corrupted(d.to, d.track_id, frame)) {
            miss = true;
          } else if (cfg.fault.downlink_deadline > 0.0) {
            const double delay =
                net::transfer_delay(d.bytes, cfg.wireless.downlink_mbps,
                                    cfg.wireless.base_latency) +
                channel.downlink_jitter(d.to, d.track_id, frame);
            miss = delay > cfg.fault.downlink_deadline;
          }
        }
        if (miss) {
          sums.down_missed += 1.0;
          continue;
        }
        if (d.about != sim::kInvalidAgent) world.notify_vehicle(d.to, d.about);
        delivered_relevance += d.relevance;
      }
      sums.down_selected += static_cast<double>(fo.selected.size());
      disseminations += static_cast<int>(fo.selected.size());
      for (const net::CoverageFeedback& fb : fo.feedback) {
        if (faults && channel.feedback_lost(fb.to, frame, world.time())) continue;
        const auto it = clients.find(fb.to);
        if (it != clients.end()) it->second.receive_feedback(fb);
      }
      down_meter.add(fo.downlink_bytes + fo.feedback_bytes);
      const double delivery = tracer.close(span);
      ledger.parts.emplace_back("edge.delivery", delivery);
      sums.delivery += delivery;

      span = tracer.open("sim.step", frame_span, frame, kSimLane);
      world.step();
      const double step = tracer.close(span);
      ledger.parts.emplace_back("sim.step", step);
      sums.step += step;

      ledger.wall = tracer.close(frame_span);
      const double unattributed = ledger.unattributed();
      sums.min_unattributed = sums.frames == 0
                                  ? unattributed
                                  : std::min(sums.min_unattributed, unattributed);
      sums.wall += ledger.wall;
      sums.unattributed += unattributed;
      ++sums.frames;
      p.frame_wall_s.push_back(ledger.wall);
      ++p.completed;
    }
  } catch (const std::exception& e) {
    p.error = e.what();
  }

  // The simulated outcomes SystemRunner reports, computed the same way.
  Behaviour& b = p.behaviour;
  b.uplink_bytes_per_frame = up_meter.bytes_per_frame();
  b.downlink_bytes_per_frame = down_meter.bytes_per_frame();
  b.offered_bytes_per_frame =
      p.completed > 0 ? sum_offered / static_cast<double>(p.completed) : 0.0;
  b.delivered_relevance = delivered_relevance;
  b.disseminations = disseminations;
  for (const sim::Vehicle& v : world.vehicles()) {
    if (v.params().parked) continue;
    const bool crashed = world.agent_crashed(v.id());
    if (v.s() >= net.route(v.route_id()).box_entry_s || crashed) {
      ++b.vehicles_entered;
    }
  }
  b.collisions = static_cast<int>(world.collisions().size());
  b.min_key_distance = world.min_pair_distance(sc.ego, sc.threat);
  b.follower_min_gap = sc.ego_follower == sim::kInvalidAgent
                           ? std::numeric_limits<double>::infinity()
                           : world.min_pair_distance(sc.ego_follower, sc.ego);
  b.decisions = std::move(decisions);
  return p;
}

std::vector<LayerMetric> layer_metrics(const LayerSums& s) {
  const double n = s.frames > 0 ? static_cast<double>(s.frames) : 1.0;
  const auto ms = [n](double seconds) { return seconds / n * 1e3; };
  const auto per_frame = [n](double v) { return v / n; };
  const auto ratio = [](double num, double den, double if_empty) {
    return den > 0.0 ? num / den : if_empty;
  };
  return {
      {"sim.step_ms", "ms", ms(s.step)},
      {"sim.scan_ms", "ms", ms(s.scan)},
      {"sim.scan_points", "count", per_frame(s.scan_points)},
      {"sim.snapshot_ms", "ms", ms(s.snapshot)},
      {"sim.agents", "count", per_frame(s.agents)},
      {"pointcloud.extract_ms", "ms", ms(s.extract)},
      {"pointcloud.extract_max_ms", "ms", ms(s.extract_max)},
      {"pointcloud.ground_ms", "ms", ms(s.ground)},
      {"pointcloud.voxel_ms", "ms", ms(s.voxel)},
      {"pointcloud.dbscan_ms", "ms", ms(s.dbscan)},
      {"pointcloud.extract_clusters_ms", "ms", ms(s.clusters_time)},
      {"pointcloud.points_after_ground", "count", per_frame(s.after_ground)},
      {"pointcloud.points_after_voxel", "count", per_frame(s.after_voxel)},
      {"pointcloud.clusters", "count", per_frame(s.clusters)},
      {"pointcloud.moving_cluster_ratio", "ratio",
       ratio(s.moving_clusters, s.clusters, 0.0)},
      {"edge.client.make_upload_ms", "ms", ms(s.make_upload)},
      {"edge.client.make_upload_max_ms", "ms", ms(s.make_upload_max)},
      {"edge.client.upload_bytes", "bytes", per_frame(s.upload_bytes)},
      {"edge.client.suppressed_ratio", "ratio",
       ratio(s.suppressed_bytes, s.suppressed_bytes + s.upload_bytes, 0.0)},
      {"core.pool.fanout_ms", "ms", ms(s.fanout)},
      {"core.pool.fanout_wait_ms", "ms", ms(s.fanout_wait)},
      {"core.pool.fanout_efficiency", "ratio",
       ratio(s.make_upload, s.fanout * static_cast<double>(s.workers), 0.0)},
      {"net.uplink_ms", "ms", ms(s.net_uplink)},
      {"net.uplink_delivered_ratio", "ratio",
       ratio(s.delivered_pre_faults, s.offered, 1.0)},
      {"net.uplink_capped_bytes", "bytes", per_frame(s.capped)},
      {"net.uplink_lost_bytes", "bytes", per_frame(s.lost)},
      {"net.uplink_backpressure_bytes", "bytes", per_frame(s.backpressure)},
      {"net.downlink_miss_ratio", "ratio", ratio(s.down_missed, s.down_selected, 0.0)},
      {"edge.server.process_frame_ms", "ms", ms(s.process_frame)},
      {"edge.server.merge_ms", "ms", ms(s.merge)},
      {"edge.server.detections", "count", per_frame(s.detections)},
      {"edge.server.admitted_ratio", "ratio", ratio(s.admitted, s.admission_in, 1.0)},
      {"edge.server.shed_objects", "count", per_frame(s.shed)},
      {"edge.server.feedback_bytes", "bytes", per_frame(s.feedback_bytes)},
      {"edge.delivery_ms", "ms", ms(s.delivery)},
      {"track.predict_ms", "ms", ms(s.predict)},
      {"track.confirmed", "count", per_frame(s.confirmed)},
      {"track.predicted_ratio", "ratio", ratio(s.predicted, s.confirmed, 0.0)},
      {"track.coasting", "count", per_frame(s.coasting)},
      {"core.relevance_ms", "ms", ms(s.relevance)},
      {"core.candidates", "count", per_frame(s.candidates)},
      {"core.disseminate_ms", "ms", ms(s.disseminate)},
      {"core.selected_ratio", "ratio", ratio(s.selected, s.candidates, 0.0)},
      {"frame.wall_ms", "ms", ms(s.wall)},
      {"frame.unattributed_ms", "ms", ms(s.unattributed)},
  };
}

}  // namespace framebench
