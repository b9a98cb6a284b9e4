#pragma once
// DBSCAN (Ester et al., KDD'96) over 3-D points, as an exact grid algorithm
// (Gunawan 2013; Gan & Tao 2015). DESIGN.md §18.
//
// The vehicle-side Moving Objects Extraction clusters the non-ground cloud
// with DBSCAN to segment individual objects (paper §II-B); the same
// implementation also serves as the pedestrian-clustering baseline that the
// paper's crowd clusterer is compared against (Fig. 4).

#include <cstdint>
#include <vector>

#include "pointcloud/pointcloud.hpp"

namespace erpd::pc {

struct DbscanConfig {
  /// Neighborhood radius (meters).
  double eps{0.8};
  /// Minimum neighborhood size (including the point itself) to be a core
  /// point.
  std::size_t min_pts{5};
};

/// Label for points not assigned to any cluster.
inline constexpr std::int32_t kNoise = -1;

struct DbscanResult {
  /// Per-point cluster id in [0, cluster_count) or kNoise.
  std::vector<std::int32_t> labels;
  std::int32_t cluster_count{0};

  /// Point indices of a given cluster, ascending. Contract-checks
  /// 0 <= cluster < cluster_count.
  std::vector<std::size_t> cluster_indices(std::int32_t cluster) const;
};

/// Labels are a pure function of the cloud and config, fixed by three rules
/// (with "p and q are neighbours" meaning (p - q).norm_sq() <= eps * eps):
///  - a point is core when it has >= min_pts neighbours, itself included;
///  - cluster ids are the connected components of the core-neighbour graph,
///    numbered in ascending order of each component's minimum core index;
///  - a non-core point takes the lowest id among its core neighbours, or
///    kNoise when it has none.
/// Contract-checks that every coordinate is finite and that the cloud's
/// extent is at most 2^40 grid cells (eps / sqrt(3) each) per axis.
DbscanResult dbscan(const PointCloud& cloud, const DbscanConfig& cfg);

/// Reference implementation of the same labels: breadth-first expansion in
/// index order with brute-force O(n^2) neighbour scans. Only the
/// equivalence tests call it.
DbscanResult dbscan_reference(const PointCloud& cloud, const DbscanConfig& cfg);

/// A segmented object: the cluster's points plus summary geometry.
struct ObjectCluster {
  std::vector<std::size_t> indices;
  geom::Vec3 centroid{};
  geom::Aabb footprint;  // planar bounds
  std::size_t point_count() const { return indices.size(); }
};

/// Materialize per-cluster summaries from a DBSCAN labeling. Members are
/// visited in ascending index order, so the centroid sum is reproducible.
std::vector<ObjectCluster> extract_clusters(const PointCloud& cloud,
                                            const DbscanResult& result);

}  // namespace erpd::pc
