#include "pointcloud/dbscan.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <limits>
#include <numbers>

#include "core/check.hpp"

namespace erpd::pc {

namespace {

// Cell side = eps * kCellScale = (eps / sqrt 3) * (1 - kCellMargin). Two
// points keyed into one cell then pass the distance test despite rounding:
// keying, the side and the test together lose at most (4K + 11)u of
// relative distance (u = 2^-53, K = the largest cell key), which
// kCellMargin covers for every K below kMaxCellKey ((4 * 2^40 + 11)u is
// just over 2^-11). DESIGN.md §18 has the derivation.
constexpr double kCellMargin = 0x1p-10;
constexpr double kCellScale = (1.0 - kCellMargin) / std::numbers::sqrt3;
constexpr double kMaxCellKey = 0x1p40;
// Points three cells apart on an axis are >= 2 * eps / sqrt 3 > eps apart,
// so every neighbour of a point lies within kReach cells of its own.
constexpr std::int64_t kReach = 2;

/// The cloud in cell-major order: points sorted by cell key (x, y, z), ties
/// by index. A cell is a run of one key; a column is a run of one (x, y),
/// its cells ascending in z.
struct CellGrid {
  CellGrid(const PointCloud& cloud, double eps) {
    geom::Vec3 lo = cloud[0];
    for (const geom::Vec3& p : cloud.points()) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    }
    const double side = eps * kCellScale;
    // Keys are offsets from the minimum corner, so K (and with it the
    // rounding to cover) is bounded by the cloud's extent, not its position.
    const std::size_t n = cloud.size();
    std::vector<std::array<std::int64_t, 3>> key(n);
    std::array<std::int64_t, 3> key_max{};
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Vec3 d = cloud[i] - lo;
      const std::array<double, 3> q{d.x / side, d.y / side, d.z / side};
      for (std::size_t a = 0; a < 3; ++a) {
        ERPD_REQUIRE(q[a] < kMaxCellKey, "dbscan: point ", i,
                     " is non-finite or more than 2^40 cells of side ", side,
                     " from the cloud minimum");
        key[i][a] = static_cast<std::int64_t>(q[a]);
        key_max[a] = std::max(key_max[a], key[i][a]);
      }
    }

    // Stable LSD radix sort of the indices by (x, y, z), 8 bits a pass from
    // z's low byte up: ties keep ascending index order, and a typical cloud
    // needs one pass per axis.
    index.resize(n);
    for (std::size_t i = 0; i < n; ++i) index[i] = static_cast<std::uint32_t>(i);
    std::vector<std::uint32_t> scratch(n);
    for (std::size_t a = 3; a-- > 0;) {
      for (int shift = 0; (key_max[a] >> shift) != 0; shift += 8) {
        std::array<std::uint32_t, 257> slot{};
        const auto digit = [&](std::uint32_t i) {
          return static_cast<std::size_t>((key[i][a] >> shift) & 0xff);
        };
        for (const std::uint32_t i : index) ++slot[digit(i) + 1];
        for (std::size_t d = 1; d < slot.size(); ++d) slot[d] += slot[d - 1];
        for (const std::uint32_t i : index) scratch[slot[digit(i)]++] = i;
        index.swap(scratch);
      }
    }

    std::vector<std::int64_t> col_x;
    std::vector<std::int64_t> col_y;
    pts.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::array<std::int64_t, 3>& e = key[index[k]];
      const std::array<std::int64_t, 3>& prev = key[index[k == 0 ? 0 : k - 1]];
      const bool new_col = k == 0 || e[0] != prev[0] || e[1] != prev[1];
      if (new_col) {
        col_begin.push_back(cells());
        col_x.push_back(e[0]);
        col_y.push_back(e[1]);
      }
      if (new_col || e[2] != prev[2]) {
        cell_begin.push_back(static_cast<std::uint32_t>(k));
        cell_z.push_back(e[2]);
        cell_col.push_back(static_cast<std::uint32_t>(col_x.size() - 1));
      }
      pts[k] = cloud[index[k]];
    }
    cell_begin.push_back(static_cast<std::uint32_t>(n));
    col_begin.push_back(cells());

    // Neighbour columns (x +- kReach, y +- kReach) by one merge sweep: for a
    // fixed dx the wanted columns (x + dx, y - kReach .. y + kReach) are a
    // contiguous run of the sorted column list whose start only moves
    // forward as (x, y) ascends. No hashing, and no work for empty columns,
    // so sparse clouds pay per occupied column, not per candidate cell.
    // Each list is stored nearest ring first, so early-exit searches
    // meet the likeliest neighbours first.
    const std::uint32_t ncols = static_cast<std::uint32_t>(col_x.size());
    std::array<std::uint32_t, 2 * kReach + 1> cursor{};
    std::array<std::uint32_t, (2 * kReach + 1) * (2 * kReach + 1)> found{};
    adj_begin.reserve(ncols + 1);
    adj.reserve(static_cast<std::size_t>(ncols) * 9);
    for (std::uint32_t c = 0; c < ncols; ++c) {
      adj_begin.push_back(adj.size());
      std::size_t nfound = 0;
      for (std::int64_t dx = -kReach; dx <= kReach; ++dx) {
        const std::int64_t x = col_x[c] + dx;
        const std::int64_t y0 = col_y[c] - kReach;
        std::uint32_t& j = cursor[static_cast<std::size_t>(dx + kReach)];
        while (j < ncols && (col_x[j] < x || (col_x[j] == x && col_y[j] < y0))) {
          ++j;
        }
        for (std::uint32_t m = j;
             m < ncols && col_x[m] == x && col_y[m] <= col_y[c] + kReach; ++m) {
          found[nfound++] = m;
        }
      }
      for (std::int64_t ring = 0; ring <= kReach; ++ring) {
        for (std::size_t f = 0; f < nfound; ++f) {
          const std::uint32_t m = found[f];
          if (std::max(std::abs(col_x[m] - col_x[c]),
                       std::abs(col_y[m] - col_y[c])) == ring) {
            adj.push_back(m);
          }
        }
      }
    }
    adj_begin.push_back(adj.size());
  }

  std::uint32_t cells() const {
    return static_cast<std::uint32_t>(cell_z.size());
  }

  /// Calls f(c2) for each cell c2 != c within kReach of cell c on every
  /// axis, until f returns true; returns whether one did. With `forward`,
  /// only cells c2 > c are visited.
  template <typename F>
  bool any_near_cell(std::uint32_t c, F&& f, bool forward = false) const {
    const std::int64_t z = cell_z[c];
    const std::uint32_t col = cell_col[c];
    for (std::size_t a = adj_begin[col]; a < adj_begin[col + 1]; ++a) {
      const std::uint32_t k = adj[a];
      if (forward && k < col) continue;
      for (std::uint32_t c2 = col_begin[k]; c2 < col_begin[k + 1]; ++c2) {
        if (cell_z[c2] < z - kReach || (forward && c2 <= c)) continue;
        if (cell_z[c2] > z + kReach) break;
        if (c2 != c && f(c2)) return true;
      }
    }
    return false;
  }

  std::vector<geom::Vec3> pts;           ///< cell-major copy of the cloud
  std::vector<std::uint32_t> index;      ///< cloud index of pts[k]
  std::vector<std::uint32_t> cell_begin; ///< cell c = pts[cell_begin[c], cell_begin[c + 1])
  std::vector<std::int64_t> cell_z;      ///< z key of each cell
  std::vector<std::uint32_t> cell_col;   ///< column of each cell
  std::vector<std::uint32_t> col_begin;  ///< column k = cells [col_begin[k], col_begin[k + 1])
  std::vector<std::size_t> adj_begin;    ///< column k's neighbour columns:
  std::vector<std::uint32_t> adj;        ///<   adj[adj_begin[k], adj_begin[k + 1])
};

}  // namespace

std::vector<std::size_t> DbscanResult::cluster_indices(
    std::int32_t cluster) const {
  ERPD_REQUIRE(cluster >= 0 && cluster < cluster_count,
               "DbscanResult::cluster_indices: cluster ", cluster,
               " out of range [0, ", cluster_count, ")");
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == cluster) out.push_back(i);
  }
  return out;
}

DbscanResult dbscan(const PointCloud& cloud, const DbscanConfig& cfg) {
  ERPD_REQUIRE(cfg.eps > 0.0, "dbscan: eps must be > 0, got ", cfg.eps);
  ERPD_REQUIRE(cfg.min_pts > 0, "dbscan: min_pts must be > 0");
  ERPD_REQUIRE(cloud.size() <= static_cast<std::size_t>(
                                   std::numeric_limits<std::int32_t>::max()),
               "dbscan: ", cloud.size(), " points exceed the int32 labels");

  DbscanResult res;
  res.labels.assign(cloud.size(), kNoise);
  if (cloud.empty()) return res;

  const CellGrid g(cloud, cfg.eps);
  const double eps2 = cfg.eps * cfg.eps;
  const std::uint32_t ncells = g.cells();
  const auto near = [&](const geom::Vec3& p, std::uint32_t k) {
    return (g.pts[k] - p).norm_sq() <= eps2;
  };

  // Core points. A cell's points are pairwise neighbours, so a cell holding
  // >= min_pts points is all core; any other point counts its neighbours in
  // the near cells and stops at min_pts. A non-core point that saw no
  // neighbour at all is noise without a border search.
  enum : std::uint8_t { kIsolated, kBorderCandidate, kCore };
  std::vector<std::uint8_t> kind(g.pts.size(), kIsolated);
  std::vector<std::uint8_t> core_cell(ncells, 0);
  for (std::uint32_t c = 0; c < ncells; ++c) {
    const std::uint32_t b = g.cell_begin[c];
    const std::uint32_t e = g.cell_begin[c + 1];
    const std::size_t own = e - b;
    if (own >= cfg.min_pts) {
      std::fill(kind.begin() + b, kind.begin() + e, kCore);
      core_cell[c] = 1;
      continue;
    }
    for (std::uint32_t k = b; k < e; ++k) {
      std::size_t count = own;
      g.any_near_cell(c, [&](std::uint32_t c2) {
        for (std::uint32_t m = g.cell_begin[c2]; m < g.cell_begin[c2 + 1]; ++m) {
          if (near(g.pts[k], m) && ++count >= cfg.min_pts) return true;
        }
        return false;
      });
      if (count >= cfg.min_pts) {
        kind[k] = kCore;
        core_cell[c] = 1;
      } else if (count > 1) {
        kind[k] = kBorderCandidate;
      }
    }
  }

  // Core points in one cell are neighbours, so the core graph's components
  // are the components of the core-cell graph whose edges join two cells
  // holding a neighbouring core pair. Union order cannot reach the labels:
  // ids are assigned below from each component's minimum core index.
  std::vector<std::uint32_t> parent(ncells);
  for (std::uint32_t c = 0; c < ncells; ++c) parent[c] = c;
  const auto find = [&](std::uint32_t c) {
    while (parent[c] != c) {
      parent[c] = parent[parent[c]];
      c = parent[c];
    }
    return c;
  };
  const auto core_pair = [&](std::uint32_t c, std::uint32_t c2) {
    for (std::uint32_t a = g.cell_begin[c]; a < g.cell_begin[c + 1]; ++a) {
      if (kind[a] != kCore) continue;
      for (std::uint32_t b = g.cell_begin[c2]; b < g.cell_begin[c2 + 1]; ++b) {
        if (kind[b] == kCore && near(g.pts[a], b)) return true;
      }
    }
    return false;
  };
  for (std::uint32_t c = 0; c < ncells; ++c) {
    if (core_cell[c] == 0) continue;
    std::uint32_t r = find(c);
    g.any_near_cell(
        c,
        [&](std::uint32_t c2) {
          if (core_cell[c2] == 0) return false;
          const std::uint32_t r2 = find(c2);
          if (r != r2 && core_pair(c, c2)) {
            parent[std::max(r, r2)] = std::min(r, r2);
            r = std::min(r, r2);
          }
          return false;
        },
        /*forward=*/true);
  }

  // Number components by minimum core index. Within a cell points ascend by
  // index, so a cell's first core point is its minimum.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> min_core(ncells, kNone);
  for (std::uint32_t c = 0; c < ncells; ++c) {
    if (core_cell[c] == 0) continue;
    std::uint32_t a = g.cell_begin[c];
    while (kind[a] != kCore) ++a;
    std::uint32_t& m = min_core[find(c)];
    m = std::min(m, g.index[a]);
  }
  std::vector<std::uint32_t> roots;
  for (std::uint32_t c = 0; c < ncells; ++c) {
    if (core_cell[c] != 0 && parent[c] == c) roots.push_back(c);
  }
  std::sort(roots.begin(), roots.end(), [&](std::uint32_t a, std::uint32_t b) {
    return min_core[a] < min_core[b];
  });
  std::vector<std::int32_t> cell_id(ncells, kNoise);
  for (const std::uint32_t r : roots) cell_id[r] = res.cluster_count++;
  for (std::uint32_t c = 0; c < ncells; ++c) {
    if (core_cell[c] != 0) cell_id[c] = cell_id[find(c)];
  }

  // Core points take their component's id; a border candidate takes the
  // lowest id among core cells holding one of its neighbours (its own cell
  // counts without a test, its points being neighbours).
  for (std::uint32_t c = 0; c < ncells; ++c) {
    for (std::uint32_t k = g.cell_begin[c]; k < g.cell_begin[c + 1]; ++k) {
      if (kind[k] == kCore) {
        res.labels[g.index[k]] = cell_id[c];
        continue;
      }
      if (kind[k] != kBorderCandidate) continue;
      std::int32_t best = core_cell[c] != 0
                              ? cell_id[c]
                              : std::numeric_limits<std::int32_t>::max();
      g.any_near_cell(c, [&](std::uint32_t c2) {
        if (core_cell[c2] == 0 || cell_id[c2] >= best) return false;
        for (std::uint32_t m = g.cell_begin[c2]; m < g.cell_begin[c2 + 1]; ++m) {
          if (kind[m] == kCore && near(g.pts[k], m)) {
            best = cell_id[c2];
            break;
          }
        }
        return best == 0;
      });
      if (best != std::numeric_limits<std::int32_t>::max()) {
        res.labels[g.index[k]] = best;
      }
    }
  }
  return res;
}

DbscanResult dbscan_reference(const PointCloud& cloud,
                              const DbscanConfig& cfg) {
  ERPD_REQUIRE(cfg.eps > 0.0, "dbscan_reference: eps must be > 0, got ",
               cfg.eps);
  ERPD_REQUIRE(cfg.min_pts > 0, "dbscan_reference: min_pts must be > 0");

  DbscanResult res;
  res.labels.assign(cloud.size(), kNoise);
  const double eps2 = cfg.eps * cfg.eps;
  std::vector<std::size_t> neighbors;
  const auto region = [&](std::size_t i) {
    neighbors.clear();
    for (std::size_t j = 0; j < cloud.size(); ++j) {
      if (j != i && (cloud[j] - cloud[i]).norm_sq() <= eps2) {
        neighbors.push_back(j);
      }
    }
  };

  std::vector<bool> visited(cloud.size(), false);
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    if (visited[i]) continue;
    visited[i] = true;
    region(i);
    if (neighbors.size() + 1 < cfg.min_pts) continue;  // noise unless claimed
    const std::int32_t cid = res.cluster_count++;
    res.labels[i] = cid;
    frontier.assign(neighbors.begin(), neighbors.end());
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const std::size_t j = frontier[head];
      if (res.labels[j] == kNoise) res.labels[j] = cid;  // border claim
      if (visited[j]) continue;
      visited[j] = true;
      region(j);
      if (neighbors.size() + 1 < cfg.min_pts) continue;
      for (const std::size_t k : neighbors) {
        if (!visited[k] || res.labels[k] == kNoise) frontier.push_back(k);
      }
    }
  }
  return res;
}

std::vector<ObjectCluster> extract_clusters(const PointCloud& cloud,
                                            const DbscanResult& result) {
  std::vector<ObjectCluster> clusters(
      static_cast<std::size_t>(result.cluster_count));
  ERPD_REQUIRE(result.labels.size() == cloud.size(),
               "extract_clusters: labels/cloud size mismatch: ",
               result.labels.size(), " vs ", cloud.size());
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    const std::int32_t l = result.labels[i];
    if (l == kNoise) continue;
    ERPD_DCHECK(l >= 0 && l < result.cluster_count,
                "extract_clusters: label ", l, " out of range [0, ",
                result.cluster_count, ")");
    ObjectCluster& c = clusters[static_cast<std::size_t>(l)];
    c.indices.push_back(i);
    c.centroid += cloud[i];
    c.footprint.expand(cloud[i].xy());
  }
  for (ObjectCluster& c : clusters) {
    if (!c.indices.empty()) {
      c.centroid = c.centroid / static_cast<double>(c.indices.size());
    }
  }
  return clusters;
}

}  // namespace erpd::pc
