#include "common/histogram.h"

#include <algorithm>

namespace hermes {

std::uint64_t Histogram::BucketUpperBound(std::size_t b) {
  if (b < kSubBuckets) return b;
  const std::size_t exp = b / kSubBuckets + 1;
  const std::uint64_t width = std::uint64_t{1} << (exp - 2);
  const std::uint64_t lower = (kSubBuckets + b % kSubBuckets) * width;
  return lower + (width - 1);  // the last bucket ends at 2^64 - 1
}

Histogram::Summary Histogram::Summarize() const {
  std::uint64_t counts[kNumBuckets];
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  Summary out;
  if (total == 0) return out;
  const std::uint64_t sum = sum_.load(std::memory_order_relaxed);
  const std::uint64_t min = min_.load(std::memory_order_relaxed);
  const std::uint64_t max = max_.load(std::memory_order_relaxed);
  // The upper bound of the first bucket with at least q * total samples
  // at or below it, kept inside [min, max].
  auto quantile = [&](double q) {
    const double target = std::max(1.0, q * static_cast<double>(total));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      seen += counts[b];
      if (static_cast<double>(seen) >= target) {
        return std::min(std::max(BucketUpperBound(b), min), max);
      }
    }
    return max;
  };
  out.count = total;
  out.sum = static_cast<double>(sum);
  out.mean = out.sum / static_cast<double>(total);
  out.min = static_cast<double>(min);
  out.max = static_cast<double>(max);
  out.p50 = static_cast<double>(quantile(0.50));
  out.p99 = static_cast<double>(quantile(0.99));
  return out;
}

void Histogram::Reset() {
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

}  // namespace hermes
