#include "env.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  return cpu;
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.context_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long fields[8] = {};
  if (!(in >> label) || label != "cpu") return 0.0;
  for (unsigned long long& f : fields) {
    if (!(in >> f)) return 0.0;
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(fields[7]) / static_cast<double>(ticks)
                   : 0.0;
}

std::string BuildStampJson() {
  auto flag = [](bool on) { return on ? "true" : "false"; };
#ifdef HERMES_LOCK_PROFILING
  constexpr bool kLockProfiling = true;
#else
  constexpr bool kLockProfiling = false;
#endif
#ifdef HERMES_FAILPOINTS
  constexpr bool kFailpoints = true;
#else
  constexpr bool kFailpoints = false;
#endif
#ifdef HERMES_NO_TRACING
  constexpr bool kProgramTracing = false;
#else
  constexpr bool kProgramTracing = true;
#endif
#ifdef HERMES_DEBUG_LOCK_ORDER
  constexpr bool kLockOrder = true;
#else
  constexpr bool kLockOrder = false;
#endif
  std::ostringstream out;
  out << "{\"compiler\": " << JsonString(__VERSION__)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"HERMES_LOCK_PROFILING\": " << flag(kLockProfiling)
      << ", \"HERMES_FAILPOINTS\": " << flag(kFailpoints)
      << ", \"HERMES_DEBUG_LOCK_ORDER\": " << flag(kLockOrder)
      << ", \"program_trace_spans\": " << flag(kProgramTracing) << "}";
  return out.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
