#pragma once
// The benchmark's own statistics: percentiles, the tail-percentile rule,
// failed-frame counting and the frame ledger. Kept free of erpd types so
// selftest.cpp can pin each rule down on hand-made inputs.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace framebench {

/// Percentile `p` in [0, 1] with linear interpolation between closest ranks
/// (numpy's default "linear" method): rank p*(n-1) of the sorted samples.
/// Empty input gives 0.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Samples strictly beyond the interpolation rank of percentile `p` among
/// `n` samples: those with sorted index > floor(p*(n-1)).
inline std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto lo = static_cast<std::size_t>(std::clamp(p, 0.0, 1.0) *
                                           static_cast<double>(n - 1));
  return n - 1 - lo;
}

/// Highest whole percentile (0..100) that still has at least `min_beyond`
/// samples beyond it, or -1 if even the 0th has fewer. A tail percentile is
/// only reported where this is at least its level, so that p90 always rests
/// on >= 10 samples (which needs about 100 frames).
inline int highest_supported_percentile(std::size_t n,
                                        std::size_t min_beyond = 10) {
  for (int pct = 100; pct >= 0; --pct) {
    if (samples_beyond(n, pct / 100.0) >= min_beyond) return pct;
  }
  return -1;
}

/// Frames that did not complete. A run that throws (a ContractViolation or
/// any other exception) ends early and every frame it did not finish counts
/// as failed.
inline std::size_t failed_frames(std::size_t attempted, std::size_t completed) {
  return completed >= attempted ? 0 : attempted - completed;
}

/// One frame's wall time split into the spans on its blocking path. The
/// remainder — time in the frame that no span covers — is its own line.
struct FrameLedger {
  double wall{0.0};
  std::vector<std::pair<std::string, double>> parts;

  double attributed() const {
    double s = 0.0;
    for (const auto& [name, v] : parts) s += v;
    return s;
  }
  double unattributed() const { return wall - attributed(); }
};

}  // namespace framebench
