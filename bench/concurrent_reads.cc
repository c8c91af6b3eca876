// Concurrent read throughput under the sharded cluster locking scheme.
// Not a paper figure: this guards the PR that decomposed the old
// whole-cluster mutex. Every remote hop costs a real wait
// (Options::read_hop_latency_us), so a traversal is latency-bound the
// way the paper's distributed deployment is network-bound. Under the
// old global lock those waits serialized and aggregate throughput was
// flat in the thread count; with the shared directory lock they overlap,
// so throughput must scale (the CI gate asserts >= 3x at 8 threads).
// The second phase measures read throughput while a chunked live
// repartition is in flight: it must be nonzero (reads interleave with
// migration instead of blocking behind it), with chunk-window rejections
// surfacing as Unavailable rather than stalls. --trials N repeats both
// phases on a fresh cluster and reports each row's median, min and max.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/hermes_cluster.h"
#include "graphdb/graph_store.h"
#include "gen/social_graph.h"
#include "partition/hash_partitioner.h"

namespace {

using namespace hermes;
using namespace hermes::bench;
using Clock = std::chrono::steady_clock;

struct LoopResult {
  std::uint64_t ok = 0;
  std::uint64_t unavailable = 0;
};

// Two-hop reads from deterministic pseudo-random starts until `deadline`
// (or until `stop`, whichever comes first when stop is non-null).
LoopResult ReadUntil(HermesCluster* cluster, std::uint64_t seed,
                     Clock::time_point deadline,
                     const std::atomic<bool>* stop) {
  const VertexId n = cluster->graph().NumVertices();
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  LoopResult r;
  while (Clock::now() < deadline &&
         (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const VertexId start = static_cast<VertexId>((state >> 33) % n);
    const Status st = cluster->ExecuteRead(start, 2).status();
    if (st.ok()) {
      ++r.ok;
    } else if (st.IsUnavailable()) {
      ++r.unavailable;
    }
  }
  return r;
}

double MeasureThroughput(HermesCluster* cluster, std::size_t threads,
                         std::chrono::milliseconds window) {
  std::vector<LoopResult> results(threads);
  const auto begin = Clock::now();
  const auto deadline = begin + window;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      results[t] = ReadUntil(cluster, 100 + t, deadline, nullptr);
    });
  }
  for (auto& t : pool) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - begin).count();
  std::uint64_t total = 0;
  for (const LoopResult& r : results) total += r.ok;
  return static_cast<double>(total) / elapsed_s;
}

// One trial: throughput at 1, 2, 4 and 8 reader threads, then reads
// while a live repartition runs. A fresh cluster each time, so every
// trial migrates from the same placement.
void Trial(const Graph& graph, PartitionId alpha,
           const HermesCluster::Options& copt,
           std::chrono::milliseconds window, BenchReport* report) {
  HermesCluster cluster(graph, HashPartitioner(1).Partition(graph, alpha),
                        copt);
  std::printf("%8s %18s %10s\n", "threads", "reads/sec", "speedup");
  double base = 0.0;
  double last = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const double tput = MeasureThroughput(&cluster, threads, window);
    if (threads == 1) base = tput;
    last = tput;
    std::printf("%8zu %18.0f %9.2fx\n", threads, tput,
                base > 0.0 ? tput / base : 0.0);
    report->AddTrial("read_throughput_" + std::to_string(threads) + "t",
                     tput, "reads/sec");
  }
  report->AddTrial("speedup_8v1", base > 0.0 ? last / base : 0.0, "x");

  // --- Reads concurrent with a live chunked repartition ------------------
  std::atomic<bool> stop{false};
  std::vector<LoopResult> during(4);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < during.size(); ++t) {
    readers.emplace_back([&, t] {
      during[t] = ReadUntil(&cluster, 900 + t,
                            Clock::now() + std::chrono::seconds(30), &stop);
    });
  }
  const auto mig_begin = Clock::now();
  const auto stats = cluster.RunLightweightRepartition();
  const double mig_us =
      std::chrono::duration<double, std::micro>(Clock::now() - mig_begin)
          .count();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  std::uint64_t reads_during = 0;
  std::uint64_t unavailable_during = 0;
  for (const LoopResult& r : during) {
    reads_during += r.ok;
    unavailable_during += r.unavailable;
  }
  if (stats.ok()) {
    std::printf("\nlive repartition: moved %zu vertices in %zu chunks "
                "(%.0f us wall)\n",
                stats->vertices_moved, stats->chunks, mig_us);
  } else {
    std::printf("\nlive repartition failed: %s\n",
                stats.status().ToString().c_str());
  }
  std::printf("reads completed during migration: %llu "
              "(+%llu unavailable during chunk windows)\n",
              static_cast<unsigned long long>(reads_during),
              static_cast<unsigned long long>(unavailable_during));

  report->AddTrial("vertices_migrated",
                   stats.ok() ? static_cast<double>(stats->vertices_moved)
                              : 0.0,
                   "vertices");
  report->AddTrial("migration_wall_us", mig_us, "us");
  report->AddTrial("reads_during_migration",
                   static_cast<double>(reads_during), "reads");
  report->AddTrial("unavailable_during_migration",
                   static_cast<double>(unavailable_during), "reads");
}

}  // namespace

int main(int argc, char** argv) {
  const long vertices = FlagInt(argc, argv, "vertices", 2000);
  const long alpha = FlagInt(argc, argv, "alpha", 8);
  const double hop_latency_us =
      FlagDouble(argc, argv, "hop_latency_us", 50.0);
  const std::chrono::milliseconds window(
      FlagInt(argc, argv, "window_ms", 250));
  const long trials = Trials(argc, argv);

  PrintHeader("Concurrent reads vs. the sharded cluster lock",
              "no figure; CI scaling gate");

  SocialGraphOptions gopt;
  gopt.num_vertices = static_cast<std::size_t>(vertices);
  gopt.seed = 71;
  const Graph g = GenerateSocialGraph(gopt);

  HermesCluster::Options copt;
  copt.count_reads_in_weights = false;  // keep reads read-only
  copt.read_hop_latency_us = hop_latency_us;
  copt.migration_chunk = 32;

  BenchReport report("concurrent_reads");
  report.SetParam("vertices", static_cast<double>(vertices));
  report.SetParam("alpha", static_cast<double>(alpha));
  report.SetParam("hop_latency_us", hop_latency_us);
  report.SetParam("window_ms", static_cast<double>(window.count()));
  report.SetParam("trials", static_cast<double>(trials));

  for (long trial = 0; trial < trials; ++trial) {
    Trial(g, static_cast<PartitionId>(alpha), copt, window, &report);
  }
  // Lock evidence for the directory: readers hold dir_mu_ *shared*
  // across the simulated network waits by design, so the hold tail is
  // latency-sized — the proof of the locking scheme is that those holds
  // overlap (throughput scales above) and that contention counts only
  // the migration's short exclusive copy windows.
  AddLockEvidence(&report, "cluster.dir");
  report.Write();
  return 0;
}
