#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around each call it makes into the
// program. They stay in memory and are written out when the run ends;
// a disabled tracer records nothing, so the untraced run pays one
// branch per span.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

  struct Record {
    const char* name;  // string literal
    std::uint64_t request_id;
    std::uint32_t parent;  // index into spans(), kNoSpan for a root
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  /// RAII handle: the span ends when the handle goes out of scope.
  class Span {
   public:
    Span(Tracer* tracer, std::uint32_t index) : tracer_(tracer), index_(index) {}
    ~Span() {
      if (index_ != kNoSpan) tracer_->spans_[index_].end_ns = NowNs();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    std::uint32_t index() const { return index_; }

   private:
    Tracer* const tracer_;
    const std::uint32_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const { return enabled_; }

  /// A root span; one per op, keyed by the op's request id.
  [[nodiscard]] Span Root(const char* name, std::uint64_t request_id) {
    return Span(this, Open(name, request_id, kNoSpan));
  }

  /// A span caused by `parent`, sharing its request id.
  [[nodiscard]] Span Child(const Span& parent, const char* name) {
    if (parent.index() == kNoSpan) return Span(this, kNoSpan);
    return Span(this,
                Open(name, spans_[parent.index()].request_id, parent.index()));
  }

  const std::vector<Record>& spans() const { return spans_; }

  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;  // duration minus the time its children cover
  };

  /// Per-name totals. Benchmark spans nest strictly (one thread, one op
  /// at a time), so a span's children never overlap each other.
  std::map<std::string, Totals> TotalsByName() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Record& r : spans_) {
      if (r.parent != kNoSpan) child_us[r.parent] += DurationUs(r);
    }
    std::map<std::string, Totals> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = totals[spans_[i].name];
      ++t.count;
      t.total_us += DurationUs(spans_[i]);
      t.self_us += DurationUs(spans_[i]) - child_us[i];
    }
    return totals;
  }

  /// Writes every span as CSV: name,request_id,parent,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name,request_id,parent,start_ns,end_ns\n");
    for (const Record& r : spans_) {
      std::fprintf(f, "%s,%llu,%lld,%llu,%llu\n", r.name,
                   static_cast<unsigned long long>(r.request_id),
                   r.parent == kNoSpan ? -1LL : static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  static double DurationUs(const Record& r) {
    return static_cast<double>(r.end_ns - r.start_ns) / 1e3;
  }

  std::uint32_t Open(const char* name, std::uint64_t request_id,
                     std::uint32_t parent) {
    if (!enabled_) return kNoSpan;
    spans_.push_back(Record{name, request_id, parent, NowNs(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  const bool enabled_;
  std::vector<Record> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
