// The repository benchmark: runs one workload against the hermes library
// and prints, as the last line of stdout, one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/DESIGN.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--spans-out FILE] [--tiny]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "env.h"
#include "stats.h"
#include "workloads.h"

namespace {

int UsageError(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scratch DIR] [--spans-out FILE] [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // Before any thread exists, so every cluster thread inherits the mask:
  // with one client and three thread handoffs per bus call, cross-CPU
  // wakeups otherwise set the numbers, not the program.
  const int cpu = PinToOneCpu();

  RunConfig cfg;
  cfg.scratch_dir = ".bench_build/scratch";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return UsageError(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && cfg.seconds > 0.0 && cfg.seconds <= 120.0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      cfg.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--scratch") {
      cfg.scratch_dir = value;
    } else if (arg == "--spans-out") {
      cfg.spans_out = value;
    } else {
      return UsageError(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return UsageError("--workload, --seed, --seconds (0-120] and --trace 0|1 are "
                 "required");
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == cfg.workload;
  if (!known) return UsageError(("unknown workload " + cfg.workload).c_str());

  hermes::SetLogLevel(hermes::LogLevel::kWarning);
  const double steal0 = StealSeconds();
  const RunResult result = RunWorkload(cfg);
  const double steal_s = StealSeconds() - steal0;

  std::printf(
      "{\"env\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %s, \"tiny\": %s, \"pinned_cpu\": %d, "
      "\"host_steal_s\": %s, \"build\": %s}}\n",
      JsonString(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed),
      JsonNumber(cfg.seconds).c_str(), cfg.trace ? "true" : "false",
      cfg.tiny ? "true" : "false", cpu, JsonNumber(steal_s).c_str(),
      BuildStampJson().c_str());

  std::string samples, beyond, checks;
  for (const auto& [name, n] : result.samples) {
    samples += (samples.empty() ? "" : ", ") + JsonString(name) + ": " +
               std::to_string(n);
    beyond += (beyond.empty() ? "" : ", ") + JsonString(name) + ": " +
              std::to_string(SamplesBeyond(n, 99));
  }
  for (const auto& [name, n] : result.checks) {
    checks += (checks.empty() ? "" : ", ") + JsonString(name) + ": " +
              std::to_string(n);
  }
  std::printf(
      "{\"measured_s\": %s, \"samples\": {%s}, \"beyond_p99\": {%s}, "
      "\"checks\": {%s}, \"first_failure\": %s}\n",
      JsonNumber(result.measured_s).c_str(), samples.c_str(), beyond.c_str(),
      checks.c_str(), JsonString(result.first_failure).c_str());

  bool correct = result.correct;
  std::string metrics;
  for (const Metric& m : result.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      correct = false;
      value = 0.0;
    }
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
