#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Records spans, runs the per-layer probes, and reports per-layer
  /// metrics instead of end-to-end ones.
  bool trace = false;
  /// Test-size inputs and phase lengths, for the benchmark's own tests.
  bool tiny = false;
  /// Directory for durable cluster state; emptied before and after use.
  std::string scratch_dir;
  /// Where the traced run writes its spans as CSV; empty writes nothing.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::string first_failure;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Wall time of the measured loop, whose size is fixed by --seconds.
  double measured_s = 0.0;
  /// End-to-end metrics in an untraced run, per-layer metrics in a traced
  /// one; each name appears once.
  std::vector<Metric> metrics;
  /// Per-op sample counts behind each percentile.
  std::map<std::string, std::uint64_t> samples;
  /// How many times each output check ran.
  std::map<std::string, std::uint64_t> checks;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs `cfg.workload`, which must be one of WorkloadNames().
RunResult RunWorkload(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
