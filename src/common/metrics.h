#ifndef HERMES_COMMON_METRICS_H_
#define HERMES_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/thread_annotations.h"

namespace hermes {

/// Monotonically increasing event count. Updates are relaxed atomics, so
/// counters are cheap enough to stay enabled in release builds (one
/// uncontended fetch_add on the hot path) and race-free under TSan.
/// Counters never move once registered; cache the pointer at construction
/// time instead of looking it up per event.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, utilization, resident
/// bytes). Same relaxed-atomic cost model as Counter.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Point-in-time copy of every registered metric, suitable for printing
/// or JSON serialization (bench/bench_common.h's reporter).
struct MetricsSnapshot {
  struct HistogramSummary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;
};

/// Named metric registry. Subsystems register counters/gauges once (at
/// construction) and hold the returned pointer; the registry owns the
/// metric objects, so their addresses are stable for the process
/// lifetime. Latency observations go into the shared Histogram type
/// under the registry mutex — fine for span-granularity timings, not for
/// per-record hot paths (use a Counter there).
///
/// Metric naming scheme (DESIGN.md §7): `<subsystem>.<event>`, with unit
/// suffixes `_bytes` / `_us` where the unit is not a plain count, e.g.
/// `wal.syncs`, `wal.append_bytes`, `cluster.migration.copy_us`.
///
/// Thread-safe; `mu_` is a leaf in the repo lock order (no other mutex is
/// acquired while it is held), so metrics may be touched from any context,
/// including under any of HermesCluster's ranked mutexes.
class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem reports into.
  static MetricsRegistry& Global();

  /// Returns the counter/gauge registered under `name`, creating it on
  /// first use. The pointer stays valid for the registry's lifetime.
  Counter* GetCounter(const std::string& name) EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) EXCLUDES(mu_);

  /// Records one latency/size observation into the histogram `name`.
  void Observe(const std::string& name, double value) EXCLUDES(mu_);

  /// Copies every metric's current value.
  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  /// Zeroes all counters/gauges and clears all histograms. Registered
  /// metric objects survive (cached pointers stay valid) — used by tests
  /// and benches to isolate measurement windows.
  void ResetAll() EXCLUDES(mu_);

 private:
  mutable Mutex mu_{"metrics_registry.mu", lock_order::kRankMetrics};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, Histogram> histograms_ GUARDED_BY(mu_);
};

/// One completed trace span: a named duration on the timeline.
struct TraceEvent {
  const char* name = "";      // static string supplied by the span
  std::uint64_t start_us = 0; // steady-clock microseconds
  std::uint64_t duration_us = 0;
};

/// Fixed-capacity ring buffer of completed spans. Recording overwrites
/// the oldest event once full (dropped count is kept), so tracing never
/// allocates after construction and is safe to leave on in production.
class TraceLog {
 public:
  static constexpr std::size_t kCapacity = 4096;

  static TraceLog& Global();

  void Record(const char* name, std::uint64_t start_us,
              std::uint64_t duration_us) EXCLUDES(mu_);

  /// Events currently in the buffer, oldest first.
  std::vector<TraceEvent> Events() const EXCLUDES(mu_);

  std::uint64_t total_recorded() const EXCLUDES(mu_);
  std::uint64_t dropped() const EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);

 private:
  mutable Mutex mu_{"trace_log.mu", lock_order::kRankTraceLog};
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);
  std::size_t next_ GUARDED_BY(mu_) = 0;      // ring write position
  std::uint64_t recorded_ GUARDED_BY(mu_) = 0;
};

/// Steady-clock microseconds since process start (monotonic).
std::uint64_t SteadyNowMicros();

#ifndef HERMES_NO_TRACING

/// RAII span: records a TraceEvent (and a latency observation into the
/// registry histogram of the same name) when it goes out of scope. The
/// name must be a string literal / static string. Compiles to a no-op
/// when the build defines HERMES_NO_TRACING.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(name), start_us_(SteadyNowMicros()) {}
  ~TraceSpan() {
    const std::uint64_t duration = SteadyNowMicros() - start_us_;
    TraceLog::Global().Record(name_, start_us_, duration);
    MetricsRegistry::Global().Observe(name_, static_cast<double>(duration));
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* const name_;
  const std::uint64_t start_us_;
};

#else  // HERMES_NO_TRACING

class TraceSpan {
 public:
  explicit TraceSpan(const char*) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

#endif  // HERMES_NO_TRACING

}  // namespace hermes

#endif  // HERMES_COMMON_METRICS_H_
