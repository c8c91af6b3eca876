// Message-path round-trip microbench (DESIGN.md §12): the cost of one
// typed call through encode → the server's inbox → its dispatch thread
// → server apply → reply frame, which the bus's inline endpoint hands
// to the waiting caller on that same thread (two thread handoffs),
// measured four ways:
//
//   1. ping:       single-threaded HealthRequest RTT against one server
//                  (p50/p99 from the bus's msg.rtt_us histogram);
//   2. mt_calls:   --threads callers issuing probe calls concurrently
//                  (bus + inbox contention);
//   3. read path:  HermesCluster::ExecuteRead end-to-end, i.e. what a
//                  traversal pays now that every neighbor fetch is a
//                  message instead of a shared-memory call;
//   4. lossy mutations: a seeded cadence of dropped replies that the
//                  bus's same-token retries must heal — the price of
//                  the exactly-once contract (DESIGN.md §12), reported
//                  via msg.retries / msg.dedup_hits and the
//                  msg.retry_latency_us histogram.
//
// --trials N repeats the four sections and reports each row's median,
// min and max. Emits BENCH_message_rtt.json (validated by
// tools/bench_smoke.py in CI, including lock-profiler evidence for the
// bus mutex).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/hermes_cluster.h"
#include "gen/social_graph.h"
#include "net/bus.h"
#include "net/inproc_transport.h"
#include "net/message.h"
#include "partition/hash_partitioner.h"
#include "server/partition_server.h"

namespace {

using namespace hermes;
using namespace hermes::bench;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

struct Rig {
  explicit Rig(std::size_t servers) {
    for (std::size_t p = 0; p < servers; ++p) {
      auto opened = PartitionServer::Open(
          static_cast<PartitionId>(p), static_cast<EndpointId>(p), &transport,
          {});
      if (!opened.ok()) {
        std::fprintf(stderr, "server open failed: %s\n",
                     opened.status().ToString().c_str());
        std::exit(1);
      }
      server_pool.push_back(std::move(*opened));
    }
    bus = std::make_unique<MessageBus>(
        &transport, static_cast<EndpointId>(servers), MessageBus::Options{});
    if (const Status st = bus->Start(); !st.ok()) {
      std::fprintf(stderr, "bus start failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  ~Rig() {
    bus->Shutdown();
    transport.Shutdown();
  }

  InProcTransport transport{{}};
  std::vector<std::unique_ptr<PartitionServer>> server_pool;
  std::unique_ptr<MessageBus> bus;
};

Status Ping(MessageBus* bus, EndpointId dst) {
  Envelope req;
  req.payload = HealthRequest{};
  auto reply = bus->Call(dst, std::move(req));
  if (!reply.ok()) return reply.status();
  const auto* rep = std::get_if<HealthReply>(&reply->payload);
  if (rep == nullptr) return Status::Internal("unexpected reply type");
  return rep->status;
}

// --- 1. Single-threaded ping RTT -----------------------------------------
void PingTrial(long calls, BenchReport* report) {
  // The bus observes every matched reply into msg.rtt_us; emptied first
  // so the quantiles cover this trial's pings only.
  Histogram* rtt = MetricsRegistry::Global().GetHistogram("msg.rtt_us");
  rtt->Reset();
  Rig rig(1);
  const auto begin = Clock::now();
  for (long i = 0; i < calls; ++i) {
    if (const Status st = Ping(rig.bus.get(), 0); !st.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  const double secs = SecondsSince(begin);
  const double per_call_us = secs * 1e6 / static_cast<double>(calls);
  report->AddTrial("ping_calls_per_sec", static_cast<double>(calls) / secs,
                   "calls/s");
  report->AddTrial("ping_mean_us", per_call_us, "us");
  const Histogram::Summary summary = rtt->Summarize();
  report->AddTrial("ping_rtt_p50_us", summary.p50, "us");
  report->AddTrial("ping_rtt_p99_us", summary.p99, "us");
  std::printf("ping: %ld calls, %.1f us/call, %.0f calls/s; rtt p50 %.1f us, "
              "p99 %.1f us\n",
              calls, per_call_us, static_cast<double>(calls) / secs,
              summary.p50, summary.p99);
}

// --- 2. Multithreaded call throughput ------------------------------------
void MtTrial(long calls, long threads, BenchReport* report) {
  Rig rig(4);
  const auto begin = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (long t = 0; t < threads; ++t) {
    pool.emplace_back([&rig, t, calls] {
      for (long i = 0; i < calls; ++i) {
        const auto dst = static_cast<EndpointId>((t + i) % 4);
        if (const Status st = Ping(rig.bus.get(), dst); !st.ok()) {
          std::fprintf(stderr, "mt ping failed: %s\n",
                       st.ToString().c_str());
          std::exit(1);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  const double secs = SecondsSince(begin);
  const double total = static_cast<double>(calls) * threads;
  report->AddTrial("mt_calls_per_sec", total / secs, "calls/s");
  std::printf("mt: %ld threads x %ld calls -> %.0f calls/s\n", threads,
              calls, total / secs);
}

// --- 3. Cluster read path through the bus --------------------------------
void ClusterReadTrial(HermesCluster* cluster, long reads,
                      BenchReport* report) {
  const VertexId n = cluster->graph().NumVertices();
  const auto begin = Clock::now();
  for (long i = 0; i < reads; ++i) {
    const auto start =
        static_cast<VertexId>(static_cast<std::uint64_t>(i * 37) % n);
    auto run = cluster->ExecuteRead(start, 1);
    if (!run.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   run.status().ToString().c_str());
      std::exit(1);
    }
  }
  const double secs = SecondsSince(begin);
  report->AddTrial("cluster_read_ops_per_sec",
                   static_cast<double>(reads) / secs, "reads/s");
  std::printf("cluster reads: %ld one-hop -> %.0f reads/s\n", reads,
              static_cast<double>(reads) / secs);
}

// --- 4. Mutations under reply loss ---------------------------------------
// Every 17th frame addressed to the bus endpoint vanishes, so ~6% of
// calls lose their reply AFTER the server applied the mutation. The
// bus heals each loss by retrying the same idempotency token and the
// server replays the cached reply; the scenario prices that healing
// (retry latency is dominated by call_timeout_us, kept short here the
// way a latency-sensitive deployment would).
void LossyTrial(long mutations, BenchReport* report) {
  InProcTransport::Options topt;
  topt.drop_every_n = 17;
  topt.drop_dst = 1;  // the bus endpoint (one server at endpoint 0)
  topt.fault_seed = 3;
  InProcTransport transport{topt};
  auto opened = PartitionServer::Open(0, 0, &transport, {});
  if (!opened.ok()) {
    std::fprintf(stderr, "server open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  auto server = std::move(*opened);
  MessageBus::Options bopt;
  bopt.call_timeout_us = 5'000;
  bopt.retry_backoff_us = 200;
  bopt.max_attempts = 6;
  MessageBus bus(&transport, 1, bopt);
  if (const Status st = bus.Start(); !st.ok()) {
    std::fprintf(stderr, "bus start failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }

  Histogram* retry_latency =
      MetricsRegistry::Global().GetHistogram("msg.retry_latency_us");
  retry_latency->Reset();
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const auto begin = Clock::now();
  for (long i = 0; i < mutations; ++i) {
    const MutateRequest req{
        .entries = {{.op = i == 0 ? MutateRequest::Op::kCreateNode
                                  : MutateRequest::Op::kAddNodeWeight,
                     .vertex = 1,
                     .weight = 1.0}}};
    Envelope env;
    env.payload = req;
    auto reply = bus.Call(0, std::move(env));
    if (!reply.ok()) {
      std::fprintf(stderr, "lossy mutation failed: %s\n",
                   reply.status().ToString().c_str());
      std::exit(1);
    }
  }
  const double secs = SecondsSince(begin);
  bus.Shutdown();
  transport.Shutdown();

  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  const auto delta = [&](const char* name) {
    const auto b = before.counters.find(name);
    const auto a = after.counters.find(name);
    const std::uint64_t was = b == before.counters.end() ? 0 : b->second;
    return static_cast<double>(
        (a == after.counters.end() ? 0 : a->second) - was);
  };
  report->AddTrial("lossy_mutations_per_sec",
                   static_cast<double>(mutations) / secs, "calls/s");
  report->AddTrial("lossy_retries", delta("msg.retries"), "retries");
  report->AddTrial("lossy_dedup_hits", delta("msg.dedup_hits"), "hits");
  const Histogram::Summary rl = retry_latency->Summarize();
  report->AddTrial("lossy_retry_latency_p50_us", rl.p50, "us");
  report->AddTrial("lossy_retry_latency_p99_us", rl.p99, "us");
  std::printf(
      "lossy mutations: %ld calls (1/17 replies dropped) -> %.0f calls/s, "
      "%.0f retries, %.0f dedup hits; retry latency p50 %.1f us, "
      "p99 %.1f us\n",
      mutations, static_cast<double>(mutations) / secs,
      delta("msg.retries"), delta("msg.dedup_hits"), rl.p50, rl.p99);
}

}  // namespace

int main(int argc, char** argv) {
  const long calls = FlagInt(argc, argv, "calls", 20000);
  const long threads = FlagInt(argc, argv, "threads", 4);
  const long trials = Trials(argc, argv);

  PrintHeader("Typed message bus round-trip cost",
              "the Section 3.1 message-passing system model");
  BenchReport report("message_rtt");
  report.SetParam("calls", static_cast<double>(calls));
  report.SetParam("threads", static_cast<double>(threads));
  report.SetParam("trials", static_cast<double>(trials));

  SocialGraphOptions gopt;
  gopt.num_vertices = 400;
  gopt.seed = 7;
  const Graph g = GenerateSocialGraph(gopt);
  HermesCluster cluster(g, HashPartitioner(1).Partition(g, 4));

  for (long trial = 0; trial < trials; ++trial) {
    PingTrial(calls, &report);
    MtTrial(calls, threads, &report);
    ClusterReadTrial(&cluster, calls, &report);
    LossyTrial(std::max(500L, calls / 10), &report);
  }

  AddLockEvidence(&report, "msg.bus");
  AddLockEvidence(&report, "msg.transport");
  report.Write();
  return 0;
}
