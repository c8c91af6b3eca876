#ifndef HERMES_BENCH_BENCH_COMMON_H_
#define HERMES_BENCH_BENCH_COMMON_H_

// Shared scaffolding for the paper-reproduction benches: flag parsing,
// table printing, the common experiment setup (Metis initial
// partitioning + the Section 5.3.1 workload skew), and the BENCH_*.json
// machine-readable reporter.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "gen/profiles.h"
#include "graph/graph.h"
#include "partition/assignment.h"
#include "partition/multilevel.h"

namespace hermes::bench {

/// Parses "--name=value" or "--name value" flags; returns fallback when
/// absent.
inline double FlagDouble(int argc, char** argv, const char* name,
                         double fallback) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag && i + 1 < argc) return std::atof(argv[i + 1]);
    if (std::strncmp(argv[i], (flag + "=").c_str(), flag.size() + 1) == 0) {
      return std::atof(argv[i] + flag.size() + 1);
    }
  }
  return fallback;
}

inline long FlagInt(int argc, char** argv, const char* name, long fallback) {
  return static_cast<long>(FlagDouble(argc, argv, name,
                                      static_cast<double>(fallback)));
}

/// --trials N (default 1): how many times a wall-clock bench repeats its
/// measured sections. Each repeated row is reported through
/// BenchReport::AddTrial.
inline long Trials(int argc, char** argv) {
  return std::max(1L, FlagInt(argc, argv, "trials", 1));
}

/// The paper's evaluation setup (Section 5.3.1): the graph is initially
/// partitioned by Metis on an unskewed trace; then the workload shifts so
/// that users on one partition are read twice as often, which doubles
/// their popularity weights and creates hotspots.
struct SkewedExperiment {
  DatasetProfile profile;
  Graph graph;                    // weights already reflect the skew
  PartitionAssignment initial;    // Metis placement from before the skew
  PartitionId hot_partition = 0;
};

inline SkewedExperiment MakeSkewedExperiment(const DatasetProfile& profile,
                                             PartitionId alpha,
                                             double skew_factor = 2.0) {
  SkewedExperiment exp;
  exp.profile = profile;
  exp.graph = GenerateDataset(profile);
  MultilevelOptions mopt;
  mopt.seed = 42;
  exp.initial = MultilevelPartitioner(mopt).Partition(exp.graph, alpha);
  for (VertexId v = 0; v < exp.graph.NumVertices(); ++v) {
    if (exp.initial.PartitionOf(v) == exp.hot_partition) {
      exp.graph.AddVertexWeight(v, (skew_factor - 1.0) *
                                       exp.graph.VertexWeight(v));
    }
  }
  return exp;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s of Nicoara et al., EDBT 2015)\n", title,
              paper_ref);
  std::printf("================================================================\n");
}

// --- Machine-readable bench output (BENCH_<name>.json) ---------------------

/// Minimal JSON string escaping (quotes, backslash, control chars).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON has no NaN/inf literals; non-finite values serialize as null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Collects a bench run's parameters, result rows, and simulated time, and
/// writes them — together with a snapshot of the process-wide metrics —
/// to `BENCH_<name>.json` in the working directory. Schema (version 1):
///
///   { "name": str, "schema_version": 1, "wall_time_us": num,
///     "sim_time_us": num, "params": {str: num},
///     "results": [{"label": str, "value": num, "unit": str}],
///     "metrics": { "counters": {str: num}, "gauges": {str: num},
///                  "histograms": {str: {"count","mean","min","max",
///                                       "p50","p99"}} } }
///
/// A row added with AddTrial is written as its median, then `.min` and
/// `.max` rows. Every fig*/micro_* binary writes one of these so runs
/// can be diffed and tracked without scraping stdout;
/// tools/bench_smoke.py validates the schema in CI.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)),
        start_(std::chrono::steady_clock::now()) {}

  void SetParam(const std::string& key, double value) {
    params_.emplace_back(key, value);
  }
  void AddResult(const std::string& label, double value,
                 const std::string& unit = "") {
    results_.push_back(Row{label, value, unit, {}});
  }
  /// Adds one trial of a repeated measurement. Write() reports the
  /// median of the trials as `label`, followed by `<label>.min` and
  /// `<label>.max` rows.
  void AddTrial(const std::string& label, double value,
                const std::string& unit = "") {
    for (Row& row : results_) {
      if (row.label == label) {
        row.trials.push_back(value);
        return;
      }
    }
    results_.push_back(Row{label, value, unit, {value}});
  }
  void AddSimTime(double us) { sim_time_us_ += us; }

  /// Writes BENCH_<name>.json; returns false (and warns) on I/O failure.
  bool Write() const {
    const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();

    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    out << "{\n  \"name\": \"" << JsonEscape(name_) << "\",\n";
    out << "  \"schema_version\": 1,\n";
    out << "  \"wall_time_us\": " << wall << ",\n";
    out << "  \"sim_time_us\": " << JsonNumber(sim_time_us_) << ",\n";
    out << "  \"params\": {";
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (i) out << ", ";
      out << "\"" << JsonEscape(params_[i].first)
          << "\": " << JsonNumber(params_[i].second);
    }
    out << "},\n  \"results\": [";
    bool first = true;
    auto result = [&](const std::string& label, double value,
                      const std::string& unit) {
      if (!first) out << ", ";
      first = false;
      out << "{\"label\": \"" << JsonEscape(label)
          << "\", \"value\": " << JsonNumber(value)
          << ", \"unit\": \"" << JsonEscape(unit) << "\"}";
    };
    for (const Row& row : results_) {
      if (row.trials.empty()) {
        result(row.label, row.value, row.unit);
        continue;
      }
      std::vector<double> sorted = row.trials;
      std::sort(sorted.begin(), sorted.end());
      const std::size_t mid = sorted.size() / 2;
      result(row.label,
             sorted.size() % 2 ? sorted[mid]
                               : (sorted[mid - 1] + sorted[mid]) / 2.0,
             row.unit);
      result(row.label + ".min", sorted.front(), row.unit);
      result(row.label + ".max", sorted.back(), row.unit);
    }
    out << "],\n  \"metrics\": {\n    \"counters\": {";
    first = true;
    for (const auto& [key, value] : snap.counters) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(key) << "\": " << value;
    }
    out << "},\n    \"gauges\": {";
    first = true;
    for (const auto& [key, value] : snap.gauges) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(key) << "\": " << JsonNumber(value);
    }
    out << "},\n    \"histograms\": {";
    first = true;
    for (const auto& [key, h] : snap.histograms) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(key) << "\": {\"count\": " << h.count
          << ", \"mean\": " << JsonNumber(h.mean)
          << ", \"min\": " << JsonNumber(h.min)
          << ", \"max\": " << JsonNumber(h.max)
          << ", \"p50\": " << JsonNumber(h.p50)
          << ", \"p99\": " << JsonNumber(h.p99) << "}";
    }
    out << "}\n  }\n}\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "warning: failed writing %s\n", path.c_str());
      return false;
    }
    std::printf("[bench] wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Row {
    std::string label;
    double value;
    std::string unit;
    std::vector<double> trials;  // AddTrial rows; empty for AddResult
  };
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  double sim_time_us_ = 0.0;
  std::vector<std::pair<std::string, double>> params_;
  std::vector<Row> results_;
};

/// Surfaces the lock profiler's evidence for `lock_name` ("wal.mu",
/// "cluster.dir", ...) as headline result rows — hold-time p99/max plus
/// the contention count — so the committed BENCH_*.json shows at a
/// glance that no lock was held across I/O (the runtime half of the
/// critical_section_audit contract). No-op when HERMES_LOCK_PROFILING
/// is off: the histogram is simply absent from the snapshot. The full
/// lock.<name>.* set still lands in metrics.histograms via Write().
inline void AddLockEvidence(BenchReport* report,
                            const std::string& lock_name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto hold = snap.histograms.find("lock." + lock_name + ".hold_us");
  if (hold == snap.histograms.end()) return;
  report->AddResult("lock." + lock_name + ".hold_p99_us", hold->second.p99,
                    "us");
  report->AddResult("lock." + lock_name + ".hold_max_us", hold->second.max,
                    "us");
  const auto contention =
      snap.counters.find("lock." + lock_name + ".contention");
  if (contention != snap.counters.end()) {
    report->AddResult("lock." + lock_name + ".contention",
                      static_cast<double>(contention->second),
                      "acquisitions");
  }
}

}  // namespace hermes::bench

#endif  // HERMES_BENCH_BENCH_COMMON_H_
