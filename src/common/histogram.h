#ifndef HERMES_COMMON_HISTOGRAM_H_
#define HERMES_COMMON_HISTOGRAM_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>

/// The repository's one histogram and its one clock. A leaf header: the
/// lock profiler (common/lock_order.h, common/thread_annotations.h)
/// records into the same type the metrics registry hands out, so it may
/// include nothing that includes them.
namespace hermes {

/// Steady-clock microseconds: every duration in the repository is a
/// difference of two of these. Monotonic; the origin is meaningless.
inline std::uint64_t SteadyNowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Lock-free distribution of u64 samples (microseconds, sizes, counts).
/// Record() is a handful of relaxed atomic operations, so dispatch and
/// client threads record concurrently without a lock. Count, sum, min and
/// max are exact over what was recorded; p50/p99 fall on the upper bound
/// of their bucket. A sampler that records one value in N passes weight
/// N, so count and sum estimate the whole population (DESIGN.md §7). Each
/// power of two is split into four linear sub-buckets (values below 4
/// get a bucket each), so a bucket's upper bound is under 1.25x its lower
/// bound and a quantile is at most one sub-bucket above the exact value.
/// A summary taken while other threads record may be slightly torn; one
/// taken after they stop is exact.
class Histogram {
 public:
  /// A snapshot of the distribution; all zero when empty.
  struct Summary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records `value` as `weight` samples: the count grows by `weight`
  /// and the sum by `value * weight`; min and max see `value` once.
  void Record(std::uint64_t value, std::uint64_t weight = 1) {
    buckets_[BucketOf(value)].fetch_add(weight, std::memory_order_relaxed);
    sum_.fetch_add(value * weight, std::memory_order_relaxed);
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  Summary Summarize() const;

  /// Empties the histogram. Callers keep their pointers.
  void Reset();

  /// Bucket `value` falls in, and the largest value bucket `b` holds
  /// (exposed for tests).
  static std::size_t BucketOf(std::uint64_t value) {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int exp = std::bit_width(value) - 1;  // >= 2
    const std::uint64_t sub = (value >> (exp - 2)) & (kSubBuckets - 1);
    return static_cast<std::size_t>(exp - 1) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }
  static std::uint64_t BucketUpperBound(std::size_t b);

  static constexpr std::uint64_t kSubBuckets = 4;
  static constexpr std::size_t kNumBuckets = 63 * kSubBuckets;

 private:
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
};

/// Records the microseconds from construction to scope exit into its
/// histogram, on every exit path. Times coarse phases (a repartition, a
/// migration step), never per-record work.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(hist), start_us_(SteadyNowMicros()) {}
  ~ScopedTimer() { hist_->Record(SteadyNowMicros() - start_us_); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* const hist_;
  const std::uint64_t start_us_;
};

}  // namespace hermes

#endif  // HERMES_COMMON_HISTOGRAM_H_
