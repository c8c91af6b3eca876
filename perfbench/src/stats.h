#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Exact order statistics over the benchmark's own per-op samples. The
// program's MetricsRegistry histograms use quarter-decade buckets, which
// can only return values 1.78x apart, so no reported percentile comes
// from them.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile (0 < p <= 100) among n
/// samples: the smallest rank with at least p% of the samples at or
/// below it. Returns 0 for n == 0.
inline std::size_t NearestRank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps p * n / 100 from rounding up past an exact integer
  // (0.99 * 1000 is 990.0000000000001 in binary floating point).
  const double exact = p * static_cast<double>(n) / 100.0;
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile of `samples`; 0 when there are none.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Samples strictly above the p-th percentile's rank. A percentile is
/// reported only when at least ten samples lie beyond it.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n - NearestRank(n, p);
}

/// Median as Python's statistics.median defines it: the middle value, or
/// the mean of the two middle values for an even count. 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

/// The part of `total` items that falls to slice `i` of `n` (0 <= i < n)
/// when they are spread as evenly as possible: the parts of all slices sum
/// to `total`, and any two differ by at most one.
inline std::size_t Share(std::size_t i, std::size_t n, std::size_t total) {
  return (i + 1) * total / n - i * total / n;
}

/// `total` spread over `ops`; 0 when nothing ran, so a workload that
/// bypasses a layer reports 0 for it instead of failing.
inline double PerOp(double total, double ops) {
  return ops > 0.0 ? total / ops : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
