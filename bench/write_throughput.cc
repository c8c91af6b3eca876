// Durable write throughput: per-append fsync vs. group commit.
// Not a paper figure: this guards the PR that gave the WAL a real
// fsync and made the durable hot path fast. Baseline mode opens the
// store with group commit disabled, so every durable mutation pays its
// own write+fsync inside the store's critical section — the behavior a
// correct-but-naive fix of the durability hole would ship. Group-commit
// mode lets concurrent mutators stage under the store lock and share
// one fsync per commit window, so multi-threaded durable throughput
// must rise multiplicatively (the CI gate asserts >= 2x at 4 threads).
// --trials N repeats the sweep and reports each row's median, min and max.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "graphdb/durable_store.h"

namespace {

using namespace hermes;
using namespace hermes::bench;
using Clock = std::chrono::steady_clock;

struct ModeResult {
  double ops_per_sec = 0.0;
  std::uint64_t fsyncs = 0;
};

// One fresh store per measurement: `threads` workers each apply `ops`
// durable CreateNode mutations on disjoint id ranges.
ModeResult MeasureMode(const std::string& dir, bool group_commit,
                       std::size_t threads, long ops) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  DurableGraphStore::Options options;
  options.durable_mutations = true;
  options.group_commit.enabled = group_commit;
  auto opened = DurableGraphStore::Open(0, dir, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  DurableGraphStore* db = opened->get();

  const auto begin = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([db, t, ops] {
      const auto base = static_cast<VertexId>(t) * static_cast<VertexId>(ops);
      for (long i = 0; i < ops; ++i) {
        const Status st = db->CreateNode(base + static_cast<VertexId>(i), 1.0);
        if (!st.ok()) {
          std::fprintf(stderr, "durable write failed: %s\n",
                       st.ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - begin).count();

  ModeResult r;
  r.ops_per_sec =
      static_cast<double>(threads * static_cast<std::size_t>(ops)) / elapsed_s;
  r.fsyncs = db->fsync_count();
  opened->reset();
  std::filesystem::remove_all(dir);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const long ops = FlagInt(argc, argv, "ops", 400);
  const long max_threads = FlagInt(argc, argv, "threads", 4);
  const long trials = Trials(argc, argv);

  PrintHeader("Durable write throughput: group commit vs. per-append fsync",
              "no figure; CI durability-performance gate");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "hermes_write_tput").string();

  BenchReport report("write_throughput");
  report.SetParam("ops_per_thread", static_cast<double>(ops));
  report.SetParam("max_threads", static_cast<double>(max_threads));
  report.SetParam("trials", static_cast<double>(trials));

  for (long trial = 0; trial < trials; ++trial) {
    std::printf("%8s %20s %20s %10s %22s\n", "threads", "per-append ops/s",
                "group-commit ops/s", "speedup", "fsyncs (base/group)");
    for (std::size_t threads = 1;
         threads <= static_cast<std::size_t>(max_threads); threads *= 2) {
      const ModeResult base =
          MeasureMode(dir, /*group_commit=*/false, threads, ops);
      const ModeResult group =
          MeasureMode(dir, /*group_commit=*/true, threads, ops);
      const double speedup = base.ops_per_sec > 0.0
                                 ? group.ops_per_sec / base.ops_per_sec
                                 : 0.0;
      std::printf("%8zu %20.0f %20.0f %9.2fx %11llu / %llu\n", threads,
                  base.ops_per_sec, group.ops_per_sec, speedup,
                  static_cast<unsigned long long>(base.fsyncs),
                  static_cast<unsigned long long>(group.fsyncs));
      const std::string suffix = "_" + std::to_string(threads) + "t";
      report.AddTrial("durable_ops_per_sec.per_append_fsync" + suffix,
                      base.ops_per_sec, "ops/sec");
      report.AddTrial("durable_ops_per_sec.group_commit" + suffix,
                      group.ops_per_sec, "ops/sec");
      report.AddTrial("fsyncs.per_append_fsync" + suffix,
                      static_cast<double>(base.fsyncs), "fsyncs");
      report.AddTrial("fsyncs.group_commit" + suffix,
                      static_cast<double>(group.fsyncs), "fsyncs");
      if (threads == static_cast<std::size_t>(max_threads)) {
        report.AddTrial("speedup_group_commit_vs_per_append", speedup, "x");
        std::printf("\ngroup commit at %ld threads: %.2fx the "
                    "per-append-fsync baseline\n",
                    max_threads, speedup);
      }
    }
  }
  // Runtime evidence for the no-blocking-under-lock contract: with group
  // commit the leader fsyncs outside wal.mu, so the hold-time tail stays
  // microseconds even while fsyncs dominate the wall clock.
  AddLockEvidence(&report, "wal.mu");
  report.Write();
  return 0;
}
