#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace framebench {

double probe_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  // Sorting and hashing a few MB: the same mix of branchy compute and
  // cache misses as a frame's point and track bookkeeping.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> v(200000);
  for (double& x : v) x = u(rng);
  std::sort(v.begin(), v.end());
  std::unordered_map<std::int64_t, double> buckets;
  for (const double x : v) buckets[static_cast<std::int64_t>(x * 1e9) % 50000] += x;
  double sum = 0.0;
  for (const auto& [key, x] : buckets) sum += x;
  // Keeps the work observable, so the compiler cannot drop it.
  if (!(sum > 0.0)) throw std::logic_error("probe: empty result");
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace framebench
