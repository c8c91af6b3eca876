#ifndef HERMES_COMMON_METRICS_H_
#define HERMES_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

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
/// or JSON serialization (bench/bench_common.h's reporter). A histogram
/// appears once it holds a sample.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Summary> histograms;
};

/// Named metric registry. Subsystems register counters, gauges and
/// histograms once (at construction) and hold the returned pointer; the
/// registry owns the metric objects, so their addresses are stable for
/// the process lifetime. Recording through a cached pointer is relaxed
/// atomics only: `mu_` is taken to register a name and to snapshot,
/// never per event.
///
/// Metric naming scheme (DESIGN.md §7): `<subsystem>.<event>`, with unit
/// suffixes `_bytes` / `_us` where the unit is not a plain count, e.g.
/// `wal.syncs`, `wal.append_bytes`, `msg.rtt_us`.
///
/// Thread-safe; `mu_` is a leaf in the repo lock order (no other mutex is
/// acquired while it is held), so metrics may be registered from any
/// context, including under any of HermesCluster's ranked mutexes.
class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem reports into.
  static MetricsRegistry& Global();

  /// Returns the counter/gauge/histogram registered under `name`,
  /// creating it on first use. The pointer stays valid for the registry's
  /// lifetime.
  Counter* GetCounter(const std::string& name) EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) EXCLUDES(mu_);

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
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace hermes

#endif  // HERMES_COMMON_METRICS_H_
