// Micro-benchmarks backing Section 3.3's analysis:
//   * Theorem 3: one repartitioner iteration is O(alpha * n) — time per
//     vertex should stay flat as n grows.
//   * Theorem 2: auxiliary data is n*alpha counters + alpha weights —
//     reported as bytes, next to the multilevel partitioner's peak memory
//     (which scales with edges and coarsening levels, Section 5.3).
//   * Storage-path costs: B+Tree point ops and link-index reads, the
//     building blocks of every query.
//   * Wire codec costs: EncodeFrame/DecodeFrame over the frame shapes
//     the cluster's traffic sends.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "gen/social_graph.h"
#include "graphdb/durable_store.h"
#include "graphdb/graph_store.h"
#include "net/message.h"
#include "partition/aux_data.h"
#include "partition/hash_partitioner.h"
#include "partition/lightweight.h"
#include "partition/multilevel.h"
#include "storage/bptree.h"
#include "storage/wal.h"

namespace {

using namespace hermes;

Graph MakeGraph(std::size_t n, std::uint64_t seed = 5) {
  SocialGraphOptions opt;
  opt.num_vertices = n;
  opt.community_mixing = 0.2;
  opt.seed = seed;
  return GenerateSocialGraph(opt);
}

void BM_RepartitionerIteration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto alpha = static_cast<PartitionId>(state.range(1));
  Graph g = MakeGraph(n);
  const auto initial = HashPartitioner(1).Partition(g, alpha);
  RepartitionerOptions opt;
  opt.k_fraction = 0.01;
  LightweightRepartitioner rp(opt);
  for (auto _ : state) {
    state.PauseTiming();
    PartitionAssignment asg = initial;
    AuxiliaryData aux(g, asg);
    state.ResumeTiming();
    benchmark::DoNotOptimize(rp.RunIteration(g, &asg, &aux));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RepartitionerIteration)
    ->Args({2000, 16})
    ->Args({8000, 16})
    ->Args({32000, 16})
    ->Args({8000, 4})
    ->Args({8000, 64});

void BM_AuxDataBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Graph g = MakeGraph(n);
  const auto asg = HashPartitioner(1).Partition(g, 16);
  for (auto _ : state) {
    AuxiliaryData aux(g, asg);
    benchmark::DoNotOptimize(aux.MemoryBytes());
  }
  // Report Theorem 2's footprint next to the timing.
  const AuxiliaryData aux(g, asg);
  state.counters["aux_bytes"] = static_cast<double>(aux.MemoryBytes());
  MultilevelStats stats;
  MultilevelPartitioner().Partition(g, 16, &stats);
  state.counters["metis_peak_bytes"] =
      static_cast<double>(stats.peak_memory_bytes);
}
BENCHMARK(BM_AuxDataBuild)->Arg(4000)->Arg(16000)->Iterations(3);

void BM_AuxDataEdgeUpdate(benchmark::State& state) {
  Graph g = MakeGraph(4000);
  const auto asg = HashPartitioner(1).Partition(g, 16);
  AuxiliaryData aux(g, asg);
  VertexId u = 0;
  for (auto _ : state) {
    const VertexId v = (u + 1) % g.NumVertices();
    aux.OnEdgeAdded(u, v, asg);
    aux.OnEdgeRemoved(u, v, asg);
    u = (u + 7) % g.NumVertices();
  }
}
BENCHMARK(BM_AuxDataEdgeUpdate);

void BM_BPTreeInsertSequential(benchmark::State& state) {
  constexpr std::uint64_t kEntries = 10000;
  for (auto _ : state) {
    BPlusTree<std::uint64_t, std::uint64_t> tree;
    for (std::uint64_t i = 0; i < kEntries; ++i) tree.Insert(i, i);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * kEntries);
  // Heap per 16-byte entry: sequential appends should fill their leaves.
  BPlusTree<std::uint64_t, std::uint64_t> tree;
  for (std::uint64_t i = 0; i < kEntries; ++i) tree.Insert(i, i);
  state.counters["bytes_per_entry"] =
      static_cast<double>(tree.AllocatedBytes()) / kEntries;
}
BENCHMARK(BM_BPTreeInsertSequential);

void BM_BPTreeFind(benchmark::State& state) {
  BPlusTree<std::uint64_t, std::uint64_t> tree;
  for (std::uint64_t i = 0; i < 100000; ++i) tree.Insert(i * 2, i);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(key % 200000));
    key += 12347;
  }
}
BENCHMARK(BM_BPTreeFind);

void BM_GraphStoreNeighbors(benchmark::State& state) {
  Graph g = MakeGraph(4000);
  GraphStore store(0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    HERMES_CHECK_OK(store.CreateNode(v));
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      if (w > v) HERMES_CHECK_OK(store.AddEdge(v, w, 0, true).status());
    }
  }
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Neighbors(v));
    v = (v + 13) % g.NumVertices();
  }
}
BENCHMARK(BM_GraphStoreNeighbors);

// One hub gaining N local edges. Every AddEdge first looks the pair up in
// the hub's chain, so items/s stays flat in N only when that lookup does
// not walk the chain.
void BM_GraphStoreAddEdgeHub(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    GraphStore store(0);
    for (VertexId v = 0; v <= n; ++v) HERMES_CHECK_OK(store.CreateNode(v));
    state.ResumeTiming();
    for (VertexId v = 1; v <= n; ++v) {
      HERMES_CHECK_OK(store.AddEdge(0, v, 0, /*other_is_local=*/true).status());
    }
    benchmark::DoNotOptimize(store.NumRelationships());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GraphStoreAddEdgeHub)->Arg(1000)->Arg(10000);

// The migration remove step on a hub with N local neighbours: each of
// its full records degrades to the neighbour's half record. The store is
// rebuilt, and the previous one freed, outside the timed region.
void BM_GraphStoreRemoveNode(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  std::optional<GraphStore> store;
  for (auto _ : state) {
    state.PauseTiming();
    store.emplace(0);
    for (VertexId v = 0; v <= n; ++v) HERMES_CHECK_OK(store->CreateNode(v));
    for (VertexId v = 1; v <= n; ++v) {
      HERMES_CHECK_OK(store->AddEdge(0, v, 0, /*other_is_local=*/true).status());
    }
    state.ResumeTiming();
    HERMES_CHECK_OK(store->RemoveNode(0));
    benchmark::DoNotOptimize(store->NumRelationships());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GraphStoreRemoveNode)->Arg(1000)->Arg(10000);

void BM_WalAppend(benchmark::State& state) {
  const std::string path = "/tmp/hermes_bench_wal.log";
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path);
  if (!wal.ok()) {
    state.SkipWithError("cannot open WAL");
    return;
  }
  WalEntry entry;
  entry.type = WalOpType::kAddEdge;
  entry.a = 1;
  entry.b = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal->Append(entry));
  }
  HERMES_CHECK_OK(wal->Sync());
  std::remove(path.c_str());
}
BENCHMARK(BM_WalAppend);

void BM_SnapshotRoundTrip(benchmark::State& state) {
  Graph g = MakeGraph(static_cast<std::size_t>(state.range(0)));
  GraphStore store(0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    HERMES_CHECK_OK(store.CreateNode(v));
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      if (w > v) HERMES_CHECK_OK(store.AddEdge(v, w, 0, true).status());
    }
  }
  const std::string path = "/tmp/hermes_bench_snapshot.bin";
  for (auto _ : state) {
    if (!DurableGraphStore::WriteSnapshot(store, path).ok()) {
      state.SkipWithError("snapshot write failed");
      return;
    }
    GraphStore restored(0);
    if (!DurableGraphStore::LoadSnapshot(path, &restored).ok()) {
      state.SkipWithError("snapshot load failed");
      return;
    }
    benchmark::DoNotOptimize(restored.NumRelationships());
  }
  std::remove(path.c_str());
  state.counters["relationships"] =
      static_cast<double>(store.NumRelationships());
}
BENCHMARK(BM_SnapshotRoundTrip)->Arg(2000)->Iterations(3);

/// The frame shapes the cluster's traffic sends, one per operation.
enum class FrameShape {
  kRead1Request,    // a 1-hop read: NeighborsRequest for one vertex
  kRead1Reply,      // its NeighborsReply: one 12-id list
  kRead2Reply,      // a 2-hop level's reply: 40 lists of 60 ids
  kInsertRequest,   // an insert: one-entry MutateRequest
  kInsertReply,     // its MutateReply
  kMigrationChunk,  // ExtractReply: 64 snapshots of 12 relationships
  kLoadChunk,       // InstallChunkRequest: 8,192 edges
  kRecoveryDump,    // DumpReply: 2,000 nodes and 20,000 relationships
};

Envelope MakeFrame(FrameShape shape) {
  Envelope env;
  env.request_id = 42;
  env.src = 8;
  env.dst = 3;
  switch (shape) {
    case FrameShape::kRead1Request:
      env.payload = NeighborsRequest{.vertices = {7}, .count_reads = true};
      break;
    case FrameShape::kRead1Reply:
    case FrameShape::kRead2Reply: {
      const bool two_hop = shape == FrameShape::kRead2Reply;
      NeighborsReply reply;
      reply.results.resize(two_hop ? 40 : 1);
      VertexId next = 1000;
      for (NeighborsReply::Adjacency& adj : reply.results) {
        for (int i = 0; i < (two_hop ? 60 : 12); ++i) {
          adj.neighbors.push_back(next++);
        }
      }
      env.payload = std::move(reply);
      break;
    }
    case FrameShape::kInsertRequest:
      env.payload = MutateRequest{
          .entries = {{.op = MutateRequest::Op::kAddEdge,
                       .vertex = 7,
                       .other = 9,
                       .other_is_local = true}}};
      break;
    case FrameShape::kInsertReply:
      env.payload = MutateReply{
          .status = Status::OK(), .record_id = 123, .applied = 1};
      break;
    case FrameShape::kMigrationChunk: {
      ExtractReply reply;
      for (VertexId v = 0; v < 64; ++v) {
        ExtractReply::Snapshot& snap = reply.snapshots.emplace_back();
        snap.id = v;
        snap.wire_bytes = 250;
        for (VertexId r = 0; r < 12; ++r) {
          snap.relationships.push_back({.other = 1000 + v * 12 + r,
                                        .properties_included = true,
                                        .properties = {}});
        }
      }
      env.payload = std::move(reply);
      break;
    }
    case FrameShape::kLoadChunk: {
      InstallChunkRequest chunk;
      for (VertexId e = 0; e < 8192; ++e) {
        chunk.edges.push_back({.v = e / 8,
                               .other = 5000 + e,
                               .other_is_local = e % 2 == 0,
                               .properties_included = true,
                               .properties = {}});
      }
      env.payload = std::move(chunk);
      break;
    }
    case FrameShape::kRecoveryDump: {
      DumpReply dump;
      for (VertexId v = 0; v < 2000; ++v) dump.nodes.push_back({.id = v});
      for (VertexId e = 0; e < 20000; ++e) {
        dump.rels.push_back({.src = e / 10, .dst = e, .ghost = e % 3 == 0});
      }
      env.payload = std::move(dump);
      break;
    }
  }
  return env;
}

void BM_EncodeFrame(benchmark::State& state, FrameShape shape) {
  const Envelope env = MakeFrame(shape);
  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    Result<std::string> frame = EncodeFrame(env);
    HERMES_CHECK_OK(frame.status());
    frame_bytes = frame->size();
    benchmark::DoNotOptimize(frame);
  }
  state.counters["frame_bytes"] = static_cast<double>(frame_bytes);
}

void BM_DecodeFrame(benchmark::State& state, FrameShape shape) {
  const Result<std::string> frame = EncodeFrame(MakeFrame(shape));
  HERMES_CHECK_OK(frame.status());
  for (auto _ : state) {
    Result<Envelope> env = DecodeFrame(*frame);
    HERMES_CHECK_OK(env.status());
    benchmark::DoNotOptimize(env);
  }
  // The decoded frame re-encodes to the bytes it came from.
  const Result<Envelope> env = DecodeFrame(*frame);
  HERMES_CHECK_OK(env.status());
  const Result<std::string> again = EncodeFrame(*env);
  HERMES_CHECK_OK(again.status());
  HERMES_CHECK(*again == *frame);
  state.counters["frame_bytes"] = static_cast<double>(frame->size());
}

#define HERMES_CODEC_BENCHMARKS(name, shape)       \
  BENCHMARK_CAPTURE(BM_EncodeFrame, name, shape);  \
  BENCHMARK_CAPTURE(BM_DecodeFrame, name, shape)
HERMES_CODEC_BENCHMARKS(read1_request, FrameShape::kRead1Request);
HERMES_CODEC_BENCHMARKS(read1_reply, FrameShape::kRead1Reply);
HERMES_CODEC_BENCHMARKS(read2_reply, FrameShape::kRead2Reply);
HERMES_CODEC_BENCHMARKS(insert_request, FrameShape::kInsertRequest);
HERMES_CODEC_BENCHMARKS(insert_reply, FrameShape::kInsertReply);
HERMES_CODEC_BENCHMARKS(migration_chunk, FrameShape::kMigrationChunk);
HERMES_CODEC_BENCHMARKS(load_chunk, FrameShape::kLoadChunk);
HERMES_CODEC_BENCHMARKS(recovery_dump, FrameShape::kRecoveryDump);
#undef HERMES_CODEC_BENCHMARKS

void BM_MultilevelPartition(benchmark::State& state) {
  Graph g = MakeGraph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultilevelPartitioner().Partition(g, 16));
  }
}
BENCHMARK(BM_MultilevelPartition)->Arg(4000)->Arg(16000)->Iterations(2);

void BM_FullRepartitionConvergence(benchmark::State& state) {
  Graph g = MakeGraph(static_cast<std::size_t>(state.range(0)));
  const auto initial = HashPartitioner(1).Partition(g, 16);
  RepartitionerOptions opt;
  opt.k_fraction = 0.01;
  for (auto _ : state) {
    PartitionAssignment asg = initial;
    AuxiliaryData aux(g, asg);
    const auto r = LightweightRepartitioner(opt).Run(g, &asg, &aux);
    state.counters["iterations"] = static_cast<double>(r.iterations);
  }
}
BENCHMARK(BM_FullRepartitionConvergence)->Arg(8000)->Iterations(2);

/// Console output plus a row per run for BENCH_micro_repartitioner.json.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      rows_.push_back(Row{run.benchmark_name(), run.GetAdjustedRealTime(),
                          benchmark::GetTimeUnitString(run.time_unit)});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  hermes::SetLogLevel(hermes::LogLevel::kWarning);
  hermes::bench::BenchReport report("micro_repartitioner");
  ::benchmark::Initialize(&argc, argv);
  CollectingReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  for (const auto& row : reporter.rows()) {
    report.AddResult(row.name, row.value, row.unit);
  }
  report.Write();
  return 0;
}
