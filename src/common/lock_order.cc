#include "common/lock_order.h"

#ifdef HERMES_DEBUG_LOCK_ORDER

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>  // raw std::mutex: the validator cannot use the Mutex it instruments
#include <string>
#include <utility>
#include <vector>

namespace hermes {
namespace lock_order {
namespace {

struct Held {
  const void* mu;
  const char* name;
  int rank;
};

// Per-thread stack of ranked locks currently held (push on acquire, erase
// by address on release). thread_local keeps the hot path allocation-free
// after the first few acquisitions on a thread.
thread_local std::vector<Held> tl_held;

// Global acquired-before graph: (held name, acquired name) -> the held
// stack snapshot when the edge was first observed. Guarded by a raw
// std::mutex because the validator must not recurse into the annotated
// Mutex it instruments.
std::mutex g_graph_mu;
std::map<std::pair<std::string, std::string>, std::string>* g_edges = nullptr;

std::string StackString(const std::vector<Held>& held) {
  std::string out;
  for (const Held& h : held) {
    if (!out.empty()) out += " -> ";
    out += h.name;
    out += "(rank ";
    out += std::to_string(h.rank);
    out += ")";
  }
  return out.empty() ? std::string("<empty>") : out;
}

[[noreturn]] void Die(const char* kind, const char* name, int rank,
                      const std::string& prior_stack) {
  std::fprintf(stderr,
               "lock_order: FATAL %s acquiring %s (rank %d)\n"
               "lock_order:   this thread holds: %s\n",
               kind, name, rank, StackString(tl_held).c_str());
  if (!prior_stack.empty()) {
    std::fprintf(stderr,
                 "lock_order:   opposite order first seen holding: %s\n",
                 prior_stack.c_str());
  }
  std::fflush(stderr);
  std::abort();
}

/// Records held->acquired edges and returns the stored stack for the
/// reverse edge, if that inversion has ever been observed.
std::string RecordEdges(const char* name) {
  std::string reverse_stack;
  std::lock_guard<std::mutex> g(g_graph_mu);
  if (g_edges == nullptr) {
    g_edges = new std::map<std::pair<std::string, std::string>, std::string>();
  }
  for (const Held& h : tl_held) {
    auto key = std::make_pair(std::string(h.name), std::string(name));
    g_edges->emplace(std::move(key), StackString(tl_held));
    auto rev = g_edges->find({std::string(name), std::string(h.name)});
    if (rev != g_edges->end()) reverse_stack = rev->second;
  }
  return reverse_stack;
}

}  // namespace

void OnAcquire(const void* mu, const char* name, int rank) {
  if (rank == kRankUnranked) return;
  for (const Held& h : tl_held) {
    if (h.mu == mu) {
      Die("self-relock (non-recursive mutex)", name, rank, "");
    }
  }
  const std::string reverse_stack =
      tl_held.empty() ? std::string() : RecordEdges(name);
  if (!reverse_stack.empty()) {
    Die("acquired-before inversion", name, rank, reverse_stack);
  }
  for (const Held& h : tl_held) {
    if (h.rank >= rank) {
      Die("rank-order violation", name, rank, reverse_stack);
    }
  }
  tl_held.push_back(Held{mu, name, rank});
}

void OnRelease(const void* mu) {
  for (auto it = tl_held.begin(); it != tl_held.end(); ++it) {
    if (it->mu == mu) {
      tl_held.erase(it);
      return;
    }
  }
}

std::size_t HeldCount() { return tl_held.size(); }

void ResetGraphForTest() {
  std::lock_guard<std::mutex> g(g_graph_mu);
  if (g_edges != nullptr) g_edges->clear();
}

}  // namespace lock_order
}  // namespace hermes

#endif  // HERMES_DEBUG_LOCK_ORDER

#ifdef HERMES_LOCK_PROFILING

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <mutex>  // raw std::mutex: the profiler cannot use the Mutex it instruments
#include <string>
#include <vector>

namespace hermes {
namespace lock_order {

struct LockStats {
  std::string name;
  std::atomic<std::uint64_t> acquisitions{0};
  std::atomic<std::uint64_t> contention{0};
  Histogram hold;
  Histogram wait;
};

namespace {

// Name -> stats, created on first use and leaked on purpose (rows must
// outlive every Mutex, including function-local statics destroyed at
// exit). Guarded by a raw std::mutex: registration and snapshotting are
// cold paths and must not recurse into the instrumented Mutex.
std::mutex g_profile_mu;
std::map<std::string, LockStats*>* g_profile_rows = nullptr;

// Per-thread acquire stamps of the timed holds. Keyed by mutex address
// so nested holds (distinct ranks) resolve correctly.
struct HoldStamp {
  const void* mu;
  LockStats* stats;
  std::uint64_t t0_us;
  std::uint64_t weight;
};
thread_local std::vector<HoldStamp> tl_hold_stamps;

std::atomic<int> g_time_every_hold{0};  // live TimeEveryHoldForTest guards

// True for one call in kHoldSampleEvery: the top bits (its best ones) of
// this thread's next xorshift64* output are zero. A draw, not a stride,
// so locks taken in a fixed cycle (the bus's four per call) are each
// sampled. A thread's first draw seeds it from a process-wide counter.
thread_local std::uint64_t tl_draw = 0;
std::atomic<std::uint64_t> g_draw_seeds{1};
bool DrawHold() {
  std::uint64_t x = tl_draw;
  if (x == 0) x = g_draw_seeds.fetch_add(1) * 0x9E3779B97F4A7C15ULL;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  tl_draw = x;
  constexpr int kBits = std::countr_zero(kHoldSampleEvery);
  return (x * 0x2545F4914F6CDD1DULL) >> (64 - kBits) == 0;
}

}  // namespace

LockStats* ProfileStats(std::atomic<LockStats*>* slot, const char* name,
                        int rank) {
  LockStats* s = slot->load(std::memory_order_acquire);
  if (s != nullptr) return s;
  if (rank == kRankUnranked || name == nullptr) return nullptr;
  std::lock_guard<std::mutex> g(g_profile_mu);
  if (g_profile_rows == nullptr) {
    g_profile_rows = new std::map<std::string, LockStats*>();
  }
  LockStats*& row = (*g_profile_rows)[name];
  if (row == nullptr) {
    row = new LockStats();
    row->name = name;
  }
  slot->store(row, std::memory_order_release);
  return row;
}

void ProfileContention(LockStats* s, std::uint64_t wait_us) {
  if (s == nullptr) return;
  s->contention.fetch_add(1, std::memory_order_relaxed);
  s->wait.Record(wait_us);
}

void ProfileAcquired(LockStats* s, const void* mu) {
  if (s == nullptr) return;
  s->acquisitions.fetch_add(1, std::memory_order_relaxed);
  const bool every = g_time_every_hold.load(std::memory_order_relaxed) > 0;
  if (!DrawHold() && !every) return;
  tl_hold_stamps.push_back(HoldStamp{mu, s, SteadyNowMicros(),
                                     every ? 1 : kHoldSampleEvery});
}

void ProfileReleased(const void* mu) {
  if (tl_hold_stamps.empty()) return;
  for (auto it = tl_hold_stamps.rbegin(); it != tl_hold_stamps.rend(); ++it) {
    if (it->mu == mu) {
      it->stats->hold.Record(SteadyNowMicros() - it->t0_us, it->weight);
      tl_hold_stamps.erase(std::next(it).base());
      return;
    }
  }
}

std::vector<LockProfileRow> ProfileSnapshot() {
  std::vector<LockProfileRow> rows;
  std::lock_guard<std::mutex> g(g_profile_mu);
  if (g_profile_rows == nullptr) return rows;
  for (const auto& [name, stats] : *g_profile_rows) {
    LockProfileRow row;
    row.name = name;
    row.acquisitions = stats->acquisitions.load(std::memory_order_relaxed);
    if (row.acquisitions == 0) continue;
    row.contention = stats->contention.load(std::memory_order_relaxed);
    row.hold = stats->hold.Summarize();
    row.wait = stats->wait.Summarize();
    rows.push_back(std::move(row));
  }
  return rows;
}

void ProfileReset() {
  std::lock_guard<std::mutex> g(g_profile_mu);
  if (g_profile_rows == nullptr) return;
  for (auto& [name, stats] : *g_profile_rows) {
    stats->acquisitions.store(0, std::memory_order_relaxed);
    stats->contention.store(0, std::memory_order_relaxed);
    stats->hold.Reset();
    stats->wait.Reset();
  }
}

TimeEveryHoldForTest::TimeEveryHoldForTest() {
  g_time_every_hold.fetch_add(1, std::memory_order_relaxed);
}

TimeEveryHoldForTest::~TimeEveryHoldForTest() {
  g_time_every_hold.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace lock_order
}  // namespace hermes

#endif  // HERMES_LOCK_PROFILING

#if !defined(HERMES_DEBUG_LOCK_ORDER) && !defined(HERMES_LOCK_PROFILING)

// The hooks are inline no-ops in the header; this TU is intentionally
// empty when both the validator and the profiler are compiled out.
namespace hermes {
namespace lock_order {
namespace {
[[maybe_unused]] const int kTranslationUnitNotEmpty = 0;
}  // namespace
}  // namespace lock_order
}  // namespace hermes

#endif  // !HERMES_DEBUG_LOCK_ORDER && !HERMES_LOCK_PROFILING
