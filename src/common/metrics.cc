#include "common/metrics.h"

namespace hermes {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    const Histogram::Summary summary = hist->Summarize();
    if (summary.count > 0) snap.histograms[name] = summary;
  }
#ifdef HERMES_LOCK_PROFILING
  // Merge the lock profiler's rows (common/lock_order.h) so hold/wait
  // times and contention reach every consumer of the registry snapshot —
  // HermesCluster::MetricsSnapshot() and the BENCH_*.json reports — under
  // stable lock.<name>.* keys. ProfileSnapshot's internal raw mutex is a
  // leaf below mu_ (it never takes an annotated Mutex), so calling it
  // under the registry lock cannot invert.
  for (const lock_order::LockProfileRow& row : lock_order::ProfileSnapshot()) {
    const std::string prefix = "lock." + row.name;
    snap.counters[prefix + ".acquisitions"] = row.acquisitions;
    snap.counters[prefix + ".contention"] = row.contention;
    if (row.hold.count > 0) snap.histograms[prefix + ".hold_us"] = row.hold;
    if (row.wait.count > 0) snap.histograms[prefix + ".wait_us"] = row.wait;
  }
#endif
  return snap;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
#ifdef HERMES_LOCK_PROFILING
  lock_order::ProfileReset();
#endif
}

}  // namespace hermes
