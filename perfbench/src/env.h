#ifndef PERFBENCH_ENV_H_
#define PERFBENCH_ENV_H_

// Process environment the benchmark controls or records: CPU pinning,
// resource usage, host steal time, and the build stamp printed with
// every run so a noisy run can be explained.

#include <cstdint>
#include <string>

namespace perfbench {

/// Pins the calling thread, and every thread it later starts, to the
/// highest-numbered CPU of its allowed set. Must run before any thread
/// exists. Returns the CPU id, or -1 when the affinity calls fail.
int PinToOneCpu();

struct Usage {
  double cpu_s = 0.0;                  // user + system, all threads
  std::uint64_t context_switches = 0;  // voluntary + involuntary
  double max_rss_mb = 0.0;
};
Usage ReadUsage();

/// Host-wide steal time so far, in seconds, from the `cpu` line of
/// /proc/stat; 0 when the file is unreadable.
double StealSeconds();

/// One JSON object describing the build and host: compiler, build type,
/// the program's compile-time switches, and nproc.
std::string BuildStampJson();

/// JSON string literal for `s` (quotes and escapes included).
std::string JsonString(const std::string& s);

/// A finite double with all 17 significant digits, so it round-trips.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_ENV_H_
