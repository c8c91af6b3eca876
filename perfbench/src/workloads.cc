#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>
#include <utility>

#include "cluster/hermes_cluster.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "gen/profiles.h"
#include "graph/graph.h"
#include "graphdb/durable_store.h"
#include "graphdb/graph_store.h"
#include "net/bus.h"
#include "net/inproc_transport.h"
#include "net/message.h"
#include "partition/aux_data.h"
#include "partition/lightweight.h"
#include "partition/multilevel.h"
#include "server/partition_server.h"

#include "env.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using hermes::Graph;
using hermes::HermesCluster;
using hermes::PartitionAssignment;
using hermes::PartitionId;
using hermes::Status;
using hermes::VertexId;

constexpr PartitionId kAlpha = 8;
constexpr PartitionId kHotPartition = 0;
/// Section 5.3.1: the hot partition's users are read twice as often,
/// which doubles their popularity weight.
constexpr double kSkew = 2.0;
constexpr std::uint64_t kMetisSeed = 42;
/// RepartitionerOptions' default beta, which the cluster uses.
constexpr double kBeta = 1.1;
/// One read in this many is checked against a BFS over the benchmark's
/// own copy of the graph.
constexpr std::uint64_t kCheckEvery = 64;

// Random-stream ids of the phases (UsePhaseRng).
constexpr int kWarmupPhase = 1;
constexpr int kCountPhase = 2;
constexpr int kLoopPhase = 3;
constexpr int kDurabilityPhase = 4;
constexpr int kProbePhase = 5;

/// The ops of the traffic cluster.
enum Kind { kRead1, kRead2, kInsertEdge, kInsertVertex, kKinds };

/// Every workload runs on the same input (perfbench/DESIGN.md).
constexpr const char* kDataset = "twitter";
constexpr double kScale = 0.25;
constexpr double kTinyScale = 0.02;

struct Spec {
  const char* name;
  bool durable;  // the traffic cluster's
  /// Relative frequency of each traffic op kind in the measured loop.
  int mix[kKinds];
  /// The kinds that are the workload's own ops, which ops_per_s counts.
  bool focus[kKinds];
  /// Traffic ops per second of --seconds: a fixed count, so the state a
  /// run reaches does not depend on its speed.
  double traffic_per_s;
};

// Why each workload exists is recorded in perfbench/DESIGN.md.
constexpr Spec kSpecs[] = {
    {"read_hotspot", false, {88, 22, 9, 1}, {true, true, false, false}, 2200},
    {"durable_write", true, {10, 1, 18, 2}, {true, false, true, true}, 4000},
};

struct Sizes {
  int setup_repeats = 3;
  /// The measured loop is cut into this many slices per second; each
  /// slice runs its share of every kind of op, so a burst of host load
  /// falls on every metric alike.
  double slices_per_s = 2.0;
  double rounds_per_s = 0.3;  // repartition rounds per second of --seconds
  std::size_t warmup_ops = 2000;  // unrecorded traffic ops
  std::size_t warmup_rounds = 1;
  std::size_t counted_ops = 5000;  // focus ops behind counter ratios
  std::size_t side_counted_ops = 1000;  // inserts, where not own ops
  int batch_writes = 2000;  // durable clusters; every 10th is InsertVertex
  int tail_writes = 300;    // the WAL tail left for recovery
  std::size_t checkpoints = 5;
  std::size_t recoveries = 5;
  int degree_checks = 100;  // per recovered cluster
  int validate_sample = 48;
  int probe_calls = 2000;
  int probe_repeats = 3;
  /// Fixed loop sizes instead of ones derived from --seconds (tiny runs).
  std::size_t slices = 0, traffic_ops = 0, rounds = 0;
};

Sizes TinySizes() {
  Sizes s;
  s.warmup_ops = 10;
  s.warmup_rounds = 0;
  s.counted_ops = 50;
  s.side_counted_ops = 20;
  s.batch_writes = 40;
  s.tail_writes = 10;
  s.checkpoints = 3;
  s.recoveries = 3;
  s.degree_checks = 20;
  s.validate_sample = 16;
  s.probe_calls = 50;
  s.slices = 2;
  s.traffic_ops = 200;
  s.rounds = 2;
  return s;
}

/// Program counters at one instant.
struct Counters {
  std::map<std::string, std::uint64_t> counts;
  /// Busy time under every partition server's mutex (sum of the lock
  /// profiler's exact hold-time sums, not a bucketed quantile).
  double server_hold_us = 0.0;
};

Counters TakeCounters() {
  const hermes::MetricsSnapshot snap =
      hermes::MetricsRegistry::Global().Snapshot();
  Counters c;
  c.counts = snap.counters;
  for (const auto& [name, hist] : snap.histograms) {
    if (name.starts_with("lock.server.p") && name.ends_with(".hold_us")) {
      c.server_hold_us += hist.sum;
    }
  }
  return c;
}

/// Growth of counter `key` from `a` to `b`; a counter the program no
/// longer has reads as 0.
double Delta(const Counters& a, const Counters& b, const std::string& key) {
  auto get = [&key](const Counters& c) {
    const auto it = c.counts.find(key);
    return it == c.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  return get(b) - get(a);
}

/// The program's counters and the process's resource usage around a
/// block of a fixed number of ops; for a fixed seed the counter ratios
/// repeat exactly.
struct Window {
  Counters c0, c1;
  Usage u0, u1;
  double counted = 0.0;
  double writes = 0.0;  // inserts among the counted ops

  double PerOp(const std::string& key) const {
    return perfbench::PerOp(Delta(c0, c1, key), counted);
  }
};

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

double DirBytes(const std::string& dir) {
  double total = 0.0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<double>(entry.file_size(ec));
    }
  }
  return total;
}

double SecondsSince(std::uint64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

bool IsRead(Kind k) { return k == kRead1 || k == kRead2; }
bool IsInsert(Kind k) { return k == kInsertEdge || k == kInsertVertex; }
bool AnyKind(Kind) { return true; }

class Bench {
 public:
  Bench(const RunConfig& cfg, const Spec& spec, RunResult* out)
      : cfg_(cfg),
        spec_(spec),
        sizes_(cfg.tiny ? TinySizes() : Sizes{}),
        out_(out),
        tracer_(cfg.trace),
        rng_(cfg.seed) {}

  void Run() {
    ResetDir(cfg_.scratch_dir);
    run_start_ = TakeCounters();
    BuildInput();
    traffic_ = Setup();
    // Rounds run on a cluster of their own that no traffic touches, so
    // every round starts from the same state whatever the traffic did.
    rounds_ = std::make_unique<HermesCluster>(
        Graph(skewed_), initial_, ClusterOptions("", /*count_reads=*/false));
    PrepareDurability();
    Warmup();
    CountedBlocks();
    MeasuredLoop();
    Check("validate", traffic_->Validate(sizes_.validate_sample, cfg_.seed),
          "Validate failed on the traffic cluster after the loop");
    traffic_.reset();
    rounds_.reset();
    checkpointed_.reset();
    if (cfg_.trace) LayerProbes();
    Report();
    std::error_code ec;
    fs::remove_all(cfg_.scratch_dir, ec);
    if (cfg_.trace) WriteSpans();
  }

 private:
  // --- Inputs and set-up ---------------------------------------------------

  void BuildInput() {
    const hermes::Result<hermes::DatasetProfile> profile =
        hermes::ProfileByName(kDataset, cfg_.tiny ? kTinyScale : kScale);
    if (!profile.ok()) {
      Incorrect("unknown dataset profile");
      return;
    }
    // The dataset is fixed (its generator seed is part of the profile);
    // --seed drives the traffic. Repartitioning outcomes on
    // Twitter-like graphs vary by 10-25% between generator seeds, which
    // would drown every comparison between two runs.
    graph_ = hermes::GenerateDataset(*profile);
    n0_ = graph_.NumVertices();
    mark_.assign(n0_, 0);
  }

  HermesCluster::Options ClusterOptions(const std::string& durability_dir,
                                        bool count_reads) const {
    HermesCluster::Options o;
    o.durability_dir = durability_dir;
    o.count_reads_in_weights = count_reads;
    return o;
  }

  std::string Dir(const char* name) const {
    return cfg_.scratch_dir + "/" + name;
  }

  /// Initial placement + skew + construction of the traffic cluster,
  /// timed several times on identical input; the last cluster is kept.
  std::unique_ptr<HermesCluster> Setup() {
    const std::string dir = spec_.durable ? Dir("traffic") : "";
    std::unique_ptr<HermesCluster> cluster;
    for (int i = 0; i < sizes_.setup_repeats; ++i) {
      cluster.reset();
      if (!dir.empty()) ResetDir(dir);
      Tracer::Span root = tracer_.Root("op.setup", next_id_++);
      const std::uint64_t t0 = NowNs();
      {
        Tracer::Span span =
            tracer_.Child(root, "partition.MultilevelPartitioner::Partition");
        hermes::MultilevelOptions mopt;
        mopt.seed = kMetisSeed;
        initial_ = hermes::MultilevelPartitioner(mopt).Partition(graph_, kAlpha);
      }
      const std::uint64_t t1 = NowNs();
      skewed_ = graph_;
      hot_.clear();
      for (VertexId v = 0; v < n0_; ++v) {
        if (initial_.PartitionOf(v) != kHotPartition) continue;
        hot_.push_back(v);
        skewed_.AddVertexWeight(v, (kSkew - 1.0) * skewed_.VertexWeight(v));
      }
      const std::uint64_t t2 = NowNs();
      {
        Tracer::Span span = tracer_.Child(root, "cluster.HermesCluster");
        cluster = std::make_unique<HermesCluster>(
            Graph(skewed_), initial_, ClusterOptions(dir, /*count_reads=*/true));
      }
      const std::uint64_t t3 = NowNs();
      setup_s_.push_back(static_cast<double>(t3 - t0) / 1e9);
      metis_s_.push_back(static_cast<double>(t1 - t0) / 1e9);
      load_s_.push_back(static_cast<double>(t3 - t2) / 1e9);
    }
    truth_ = graph_;
    return cluster;
  }

  /// A durable cluster of the input under `dir` after a seeded batch of
  /// writes (every tenth InsertVertex), recorded in `truth`. The batch is
  /// the same for every call in a run.
  std::unique_ptr<HermesCluster> DurableCopy(const std::string& dir,
                                             Graph* truth) {
    ResetDir(dir);
    UsePhaseRng(kDurabilityPhase);
    auto cluster = std::make_unique<HermesCluster>(
        Graph(skewed_), initial_, ClusterOptions(dir, /*count_reads=*/true));
    for (int i = 0; i < sizes_.batch_writes; ++i) {
      if (i % 10 == 9) {
        InsertVertexOp(cluster.get(), truth, nullptr);
      } else {
        InsertEdgeOp(cluster.get(), truth, nullptr);
      }
    }
    Check("validate", cluster->Validate(sizes_.validate_sample, cfg_.seed),
          "Validate failed after the write batch");
    return cluster;
  }

  /// Two durable copies for the loop's checkpoints and recoveries. The
  /// first stays open, and each checkpoint rewrites its identical data.
  /// The second is checkpointed, given a WAL tail and shut down; the loop
  /// recovers its directory again and again. Neither depends on how far
  /// the traffic got.
  void PrepareDurability() {
    Graph truth = graph_;
    checkpointed_ = DurableCopy(Dir("checkpoint"), &truth);
    CheckpointOp(checkpointed_.get(), /*record=*/false);

    recovered_truth_ = graph_;
    auto cluster = DurableCopy(Dir("recovery"), &recovered_truth_);
    CheckpointOp(cluster.get(), /*record=*/false);
    for (int i = 0; i < sizes_.tail_writes; ++i) {
      InsertEdgeOp(cluster.get(), &recovered_truth_, nullptr);
    }
    disk_bytes_per_edge_ =
        PerOp(DirBytes(Dir("recovery")),
              static_cast<double>(recovered_truth_.NumEdges()));
  }

  // --- Traffic -------------------------------------------------------------

  /// A start vertex: uniform over the input's users, except that the hot
  /// partition's users are picked twice as often (Section 5.3.1).
  VertexId PickStart() {
    const std::uint64_t k = rng_.Uniform(n0_ + hot_.size());
    return k < n0_ ? static_cast<VertexId>(k) : hot_[k - n0_];
  }

  /// A start-skewed, other-uniform pair that `truth` has no edge for, so
  /// an insert can never hit AlreadyExists.
  std::pair<VertexId, VertexId> PickNewEdge(const Graph& truth) {
    for (;;) {
      const VertexId u = PickStart();
      const auto v = static_cast<VertexId>(rng_.Uniform(truth.NumVertices()));
      if (u != v && !truth.HasEdge(u, v)) return {u, v};
    }
  }

  /// A traffic op kind drawn from the workload's mix, among the kinds
  /// `use` admits.
  template <typename Use>
  Kind DrawKind(Use use) {
    int total = 0;
    for (int k = 0; k < kKinds; ++k) {
      if (use(Kind(k))) total += spec_.mix[k];
    }
    auto x = static_cast<int>(rng_.Uniform(static_cast<std::uint64_t>(total)));
    for (int k = 0; k < kKinds; ++k) {
      if (!use(Kind(k))) continue;
      if (x < spec_.mix[k]) return Kind(k);
      x -= spec_.mix[k];
    }
    return kRead1;  // not reached: x < total
  }

  /// Distinct vertices within `hops` of `start` in `g`, start included —
  /// what ExecuteRead reports as unique_vertices.
  std::uint64_t ReachCount(const Graph& g, VertexId start, int hops) {
    if (mark_.size() < g.NumVertices()) mark_.resize(g.NumVertices(), 0);
    ++epoch_;
    std::vector<VertexId> level{start};
    mark_[start] = epoch_;
    std::uint64_t count = 1;
    for (int d = 0; d < hops; ++d) {
      std::vector<VertexId> next;
      for (VertexId v : level) {
        for (VertexId w : g.Neighbors(v)) {
          if (mark_[w] == epoch_) continue;
          mark_[w] = epoch_;
          ++count;
          next.push_back(w);
        }
      }
      level = std::move(next);
    }
    return count;
  }

  template <typename F>
  auto Timed(const Tracer::Span& root, const char* call, double* us, F&& f) {
    Tracer::Span span = tracer_.Child(root, call);
    const std::uint64_t t0 = NowNs();
    auto result = f();
    *us = static_cast<double>(NowNs() - t0) / 1e3;
    return result;
  }

  bool ReadOp(HermesCluster* cluster, const Graph& truth, VertexId start,
              int hops, std::vector<double>* samples) {
    const std::uint64_t id = next_id_++;
    Tracer::Span root = tracer_.Root(hops == 1 ? "op.read1" : "op.read2", id);
    double us = 0.0;
    const auto run = Timed(root, "cluster.ExecuteRead", &us,
                           [&] { return cluster->ExecuteRead(start, hops); });
    ++out_->attempted;
    if (!run.ok()) return Failed("ExecuteRead", run.status());
    if (samples != nullptr) samples->push_back(us);
    if (reads_seen_++ % kCheckEvery == 0) {
      Check("read_reach", run->unique_vertices == ReachCount(truth, start, hops),
            "ExecuteRead unique_vertices differs from a BFS of the input");
    }
    return true;
  }

  bool InsertEdgeOp(HermesCluster* cluster, Graph* truth,
                    std::vector<double>* samples) {
    const auto [u, v] = PickNewEdge(*truth);
    ++writes_sent_;
    Tracer::Span root = tracer_.Root("op.insert_edge", next_id_++);
    double us = 0.0;
    const Status st = Timed(root, "cluster.InsertEdge", &us,
                            [&] { return cluster->InsertEdge(u, v); });
    ++out_->attempted;
    if (!st.ok()) return Failed("InsertEdge", st);
    if (samples != nullptr) samples->push_back(us);
    Check("edge_bookkeeping", truth->AddEdge(u, v).ok(),
          "InsertEdge accepted an edge the benchmark already recorded");
    return true;
  }

  bool InsertVertexOp(HermesCluster* cluster, Graph* truth,
                      std::vector<double>* samples) {
    ++writes_sent_;
    Tracer::Span root = tracer_.Root("op.insert_vertex", next_id_++);
    double us = 0.0;
    const auto id = Timed(root, "cluster.InsertVertex", &us,
                          [&] { return cluster->InsertVertex(1.0); });
    ++out_->attempted;
    if (!id.ok()) return Failed("InsertVertex", id.status());
    if (samples != nullptr) samples->push_back(us);
    Check("vertex_ids", *id == truth->NumVertices(),
          "InsertVertex returned a non-dense vertex id");
    truth->AddVertex(1.0);
    return true;
  }

  /// One op of `kind` on the traffic cluster; its latency goes to the
  /// kind's samples when `record`.
  bool TrafficOp(Kind kind, bool record) {
    std::vector<double>* samples = record ? &samples_[kind] : nullptr;
    if (IsRead(kind)) {
      return ReadOp(traffic_.get(), truth_, PickStart(),
                    kind == kRead1 ? 1 : 2, samples);
    }
    if (kind == kInsertEdge) {
      return InsertEdgeOp(traffic_.get(), &truth_, samples);
    }
    return InsertVertexOp(traffic_.get(), &truth_, samples);
  }

  /// One repartition round on the rounds cluster:
  /// RunLightweightRepartition, then MigrateToAssignment(initial) restores
  /// the placement, so every round starts from identical state and must
  /// make identical moves.
  bool RoundOp(bool record) {
    HermesCluster* cluster = rounds_.get();
    Tracer::Span root = tracer_.Root("op.round", next_id_++);
    const bool first = rounds_seen_++ == 0;
    Counters c0;
    if (first) c0 = TakeCounters();
    double repartition_us = 0.0;
    const auto stats = Timed(root, "cluster.RunLightweightRepartition",
                             &repartition_us,
                             [&] { return cluster->RunLightweightRepartition(); });
    ++out_->attempted;
    if (!stats.ok()) return Failed("RunLightweightRepartition", stats.status());
    Counters c1;
    if (first) c1 = TakeCounters();
    double migrate_us = 0.0;
    const auto back = Timed(root, "cluster.MigrateToAssignment", &migrate_us,
                            [&] { return cluster->MigrateToAssignment(initial_); });
    ++out_->attempted;
    if (!back.ok()) return Failed("MigrateToAssignment", back.status());
    double validate_us = 0.0;
    const bool valid = Timed(root, "cluster.Validate", &validate_us, [&] {
      return cluster->Validate(sizes_.validate_sample, cfg_.seed);
    });
    Check("round_validate", valid, "Validate failed after restoring a round");
    Check("round_restore", back->vertices_moved == stats->vertices_moved,
          "restoring a round moved a different number of vertices");
    Check("round_balance", stats->imbalance_after <= kBeta + 1e-9,
          "repartition left the imbalance above beta");
    if (first) {
      vertices_moved_ = static_cast<double>(stats->vertices_moved);
      edge_cut_after_ = stats->edge_cut_fraction_after;
      imbalance_after_ = stats->imbalance_after;
      const double moved = std::max(1.0, vertices_moved_);
      calls_per_moved_ = Delta(c0, c1, "msg.calls") / moved;
      bytes_per_moved_ = Delta(c0, c1, "msg.bytes") / moved;
    } else {
      Check("round_repeat",
            static_cast<double>(stats->vertices_moved) == vertices_moved_ &&
                stats->edge_cut_fraction_after == edge_cut_after_,
            "a repartition round differs from the first one");
    }
    if (record) {
      repartition_s_.push_back(repartition_us / 1e6);
      migrate_s_.push_back(migrate_us / 1e6);
    }
    return true;
  }

  /// Checkpoint() of `cluster`; recorded ones give checkpoint_s and the
  /// storage counters per checkpoint.
  void CheckpointOp(HermesCluster* cluster, bool record) {
    Tracer::Span root = tracer_.Root("op.checkpoint", next_id_++);
    const Counters c0 = TakeCounters();
    double us = 0.0;
    const Status st = Timed(root, "cluster.Checkpoint", &us,
                            [&] { return cluster->Checkpoint(); });
    const Counters c1 = TakeCounters();
    ++out_->attempted;
    if (!st.ok()) {
      Failed("Checkpoint", st);
      return;
    }
    if (!record) return;
    checkpoint_s_.push_back(us / 1e6);
    wal_syncs_ += Delta(c0, c1, "wal.syncs");
    page_cache_misses_ += Delta(c0, c1, "page_cache.misses");
  }

  /// Recover() of the recovery directory, then checks on the recovered
  /// cluster. It counts no reads, so the checks write nothing and every
  /// Recover() sees the same files.
  void RecoverOp() {
    const std::uint64_t i = recoveries_++;
    const std::unique_ptr<HermesCluster> rc = TimedRecover();
    if (rc == nullptr) return;
    Check("recovered_validate",
          rc->Validate(sizes_.validate_sample, cfg_.seed + i),
          "Validate failed on a recovered cluster");
    for (int j = 0; j < sizes_.degree_checks; ++j) {
      const auto v =
          static_cast<VertexId>(rng_.Uniform(recovered_truth_.NumVertices()));
      Tracer::Span root = tracer_.Root("op.read1", next_id_++);
      double us = 0.0;
      const auto run = Timed(root, "cluster.ExecuteRead", &us,
                             [&] { return rc->ExecuteRead(v, 1); });
      ++out_->attempted;
      if (!run.ok()) {
        Failed("ExecuteRead", run.status());
        continue;
      }
      Check("recovered_degree",
            run->unique_vertices == 1 + recovered_truth_.Degree(v),
            "a recovered vertex's degree differs from the edges inserted");
    }
  }

  std::unique_ptr<HermesCluster> TimedRecover() {
    const double open_s = cfg_.trace ? OpenProbe() : 0.0;
    const HermesCluster::Options options =
        ClusterOptions(Dir("recovery"), /*count_reads=*/false);
    Tracer::Span root = tracer_.Root("op.recover", next_id_++);
    const Counters c0 = TakeCounters();
    double us = 0.0;
    auto recovered = Timed(root, "cluster.Recover", &us, [&] {
      return HermesCluster::Recover(kAlpha, options);
    });
    const Counters c1 = TakeCounters();
    ++out_->attempted;
    if (!recovered.ok()) {
      Failed("Recover", recovered.status());
      return nullptr;
    }
    recovery_s_.push_back(us / 1e6);
    page_cache_misses_ += Delta(c0, c1, "page_cache.misses");
    if (cfg_.trace) {
      open_s_.push_back(open_s);
      rebuild_s_.push_back(us / 1e6 - open_s);
    }
    return std::move(*recovered);
  }

  /// Traced runs only: DurableGraphStore::Open of every p<i>/ store in
  /// the recovery directory, the store-opening share of the Recover()
  /// that follows on the same files. Open writes nothing.
  double OpenProbe() {
    Tracer::Span root = tracer_.Root("probe.graphdb.open", next_id_++);
    double total_us = 0.0;
    for (PartitionId p = 0; p < kAlpha; ++p) {
      double us = 0.0;
      auto store = Timed(root, "graphdb.DurableGraphStore::Open", &us, [&] {
        return hermes::DurableGraphStore::Open(
            p, Dir("recovery") + "/p" + std::to_string(p));
      });
      if (!store.ok()) Incorrect("DurableGraphStore::Open failed");
      total_us += us;
    }
    return total_us / 1e6;
  }

  // --- Phases --------------------------------------------------------------

  /// Each phase draws from its own random stream, so the traced run's
  /// extra work cannot shift a later phase's op sequence.
  void UsePhaseRng(int phase) {
    rng_ = hermes::Rng(cfg_.seed * 0x9E3779B97F4A7C15ULL + phase);
  }

  void Warmup() {
    UsePhaseRng(kWarmupPhase);
    for (std::size_t i = 0; i < sizes_.warmup_ops; ++i) {
      TrafficOp(DrawKind(AnyKind), false);
    }
    for (std::size_t i = 0; i < sizes_.warmup_rounds; ++i) RoundOp(false);
  }

  /// Runs `op` `n` times with the counters and resource usage read
  /// around the block.
  template <typename Op>
  void Count(std::size_t n, Window* w, Op&& op) {
    const std::uint64_t writes0 = writes_sent_;
    w->u0 = ReadUsage();
    w->c0 = TakeCounters();
    for (std::size_t i = 0; i < n; ++i) op();
    w->c1 = TakeCounters();
    w->u1 = ReadUsage();
    w->counted = static_cast<double>(n);
    w->writes = static_cast<double>(writes_sent_ - writes0);
  }

  bool InsertsAreOwnOps() const {
    return spec_.focus[kInsertEdge] || spec_.focus[kInsertVertex];
  }

  /// Unrecorded blocks of a fixed number of ops behind the per-layer
  /// counter ratios: the workload's own ops, and inserts where those are
  /// not among them.
  void CountedBlocks() {
    UsePhaseRng(kCountPhase);
    const auto is_focus = [this](Kind k) { return spec_.focus[k]; };
    Count(sizes_.counted_ops, &focus_,
          [&] { TrafficOp(DrawKind(is_focus), false); });
    if (!InsertsAreOwnOps()) {
      Count(sizes_.side_counted_ops, &side_writes_,
            [&] { TrafficOp(DrawKind(IsInsert), false); });
    }
  }

  void CountFocusOp(std::uint64_t t0, bool ok) {
    focus_s_ += SecondsSince(t0);
    if (ok) focus_done_ += 1.0;
  }

  /// The measured loop: fixed numbers of traffic ops, rounds, checkpoints
  /// and recoveries, each spread evenly over the slices, so every metric
  /// samples the whole run and the state it ends in depends only on the
  /// seed and --seconds.
  void MeasuredLoop() {
    auto scaled = [&](std::size_t fixed, double per_s) {
      return fixed > 0 ? fixed
                       : static_cast<std::size_t>(std::llround(per_s * cfg_.seconds));
    };
    const std::size_t slices =
        std::max<std::size_t>(2, scaled(sizes_.slices, sizes_.slices_per_s));
    const std::size_t traffic = scaled(sizes_.traffic_ops, spec_.traffic_per_s);
    const std::size_t rounds =
        std::max<std::size_t>(3, scaled(sizes_.rounds, sizes_.rounds_per_s));
    UsePhaseRng(kLoopPhase);
    const std::uint64_t start = NowNs();
    for (std::size_t s = 0; s < slices; ++s) {
      for (std::size_t i = Share(s, slices, traffic); i > 0; --i) {
        const Kind kind = DrawKind(AnyKind);
        const std::uint64_t t0 = NowNs();
        const bool ok = TrafficOp(kind, true);
        if (spec_.focus[kind]) CountFocusOp(t0, ok);
      }
      for (std::size_t i = Share(s, slices, rounds); i > 0; --i) {
        RoundOp(true);
      }
      for (std::size_t i = Share(s, slices, sizes_.checkpoints); i > 0; --i) {
        CheckpointOp(checkpointed_.get(), true);
      }
      for (std::size_t i = Share(s, slices, sizes_.recoveries); i > 0; --i) {
        RecoverOp();
      }
    }
    out_->measured_s = SecondsSince(start);
  }

  // --- Per-layer probes (traced run only) ------------------------------------

  void LayerProbes() {
    UsePhaseRng(kProbePhase);
    ping_us_ = PingProbe();
    WireProbe();
    StoreProbes();
    RepartitionerProbe();
  }

  /// MessageBus::Call(HealthRequest) round trip on a standalone
  /// transport + server + bus in this (pinned) process.
  double PingProbe() {
    hermes::InProcTransport transport(hermes::InProcTransport::Options{});
    auto server = hermes::PartitionServer::Open(
        0, 0, &transport, hermes::PartitionServer::Options{});
    if (!server.ok()) {
      Incorrect("PartitionServer::Open failed");
      transport.Shutdown();
      return 0.0;
    }
    hermes::MessageBus bus(&transport, 1, hermes::MessageBus::Options{});
    std::vector<double> samples;
    if (bus.Start().ok()) {
      Tracer::Span root = tracer_.Root("probe.net.ping", next_id_++);
      const int warmup = sizes_.probe_calls / 10;
      for (int i = 0; i < warmup + sizes_.probe_calls; ++i) {
        hermes::Envelope request;
        request.payload = hermes::HealthRequest{};
        double us = 0.0;
        const auto reply = Timed(root, "net.MessageBus::Call", &us, [&] {
          return bus.Call(0, std::move(request));
        });
        if (!reply.ok()) Incorrect("health ping failed");
        if (i >= warmup) samples.push_back(us);
      }
    } else {
      Incorrect("MessageBus::Start failed");
    }
    bus.Shutdown();
    transport.Shutdown();
    return Median(samples);
  }

  /// EncodeFrame / DecodeFrame of a NeighborsReply as large as the
  /// median second level of this workload's 2-hop reads.
  void WireProbe() {
    std::vector<std::pair<std::uint64_t, VertexId>> levels;
    for (int i = 0; i < 301; ++i) {
      const VertexId s = PickStart();
      std::uint64_t size = 0;
      for (VertexId u : graph_.Neighbors(s)) size += graph_.Degree(u);
      levels.emplace_back(size, s);
    }
    std::nth_element(levels.begin(), levels.begin() + levels.size() / 2,
                     levels.end());
    const VertexId start = levels[levels.size() / 2].second;
    hermes::NeighborsReply reply;
    for (VertexId u : graph_.Neighbors(start)) {
      const auto adj = graph_.Neighbors(u);
      hermes::NeighborsReply::Adjacency entry;
      entry.status = Status::OK();
      entry.neighbors.assign(adj.begin(), adj.end());
      reply.results.push_back(std::move(entry));
    }
    hermes::Envelope env;
    env.request_id = 1;
    env.dst = kAlpha;
    env.payload = std::move(reply);

    Tracer::Span root = tracer_.Root("probe.net.wire", next_id_++);
    std::vector<double> encode, decode;
    std::string frame;
    for (int i = 0; i < sizes_.probe_calls; ++i) {
      double us = 0.0;
      auto encoded = Timed(root, "net.EncodeFrame", &us,
                           [&] { return hermes::EncodeFrame(env); });
      if (!encoded.ok()) {
        Incorrect("EncodeFrame failed");
        return;
      }
      encode.push_back(us);
      frame = std::move(*encoded);
    }
    for (int i = 0; i < sizes_.probe_calls; ++i) {
      double us = 0.0;
      const auto decoded = Timed(root, "net.DecodeFrame", &us,
                                 [&] { return hermes::DecodeFrame(frame); });
      if (!decoded.ok()) Incorrect("DecodeFrame failed");
      decode.push_back(us);
    }
    encode_us_ = Median(encode);
    decode_us_ = Median(decode);
  }

  /// A standalone GraphStore holding the hot partition's shard, built
  /// from the benchmark's own copy of the input the way the cluster
  /// loads its servers (full records inside, half records across).
  void StoreProbes() {
    hermes::GraphStore store(kHotPartition);
    bool ok = true;
    for (VertexId v : hot_) ok &= store.CreateNode(v, skewed_.VertexWeight(v)).ok();
    for (VertexId v : hot_) {
      for (VertexId w : graph_.Neighbors(v)) {
        const bool local = initial_.PartitionOf(w) == kHotPartition;
        if (local && w < v) continue;  // one full record per local edge
        ok &= store.AddEdge(v, w, 0, local).ok();
      }
    }
    if (!ok || hot_.empty()) {
      Incorrect("building the hot partition's store failed");
      return;
    }
    Tracer::Span root = tracer_.Root("probe.graphdb.neighbors", next_id_++);
    std::vector<double> samples;
    for (int i = 0; i < sizes_.probe_calls; ++i) {
      const VertexId v = hot_[rng_.Uniform(hot_.size())];
      double us = 0.0;
      const auto adj = Timed(root, "graphdb.GraphStore::Neighbors", &us,
                             [&] { return store.Neighbors(v); });
      if (!adj.ok() || adj->size() != graph_.Degree(v)) {
        Incorrect("GraphStore::Neighbors differs from the input");
      }
      samples.push_back(us);
    }
    neighbors_us_ = Median(samples);

    const std::string path = cfg_.scratch_dir + "/probe-snapshot.bin";
    Tracer::Span snap_root = tracer_.Root("probe.graphdb.snapshot", next_id_++);
    std::vector<double> writes;
    for (int i = 0; i < sizes_.probe_repeats; ++i) {
      double us = 0.0;
      const Status st = Timed(snap_root, "graphdb.DurableGraphStore::WriteSnapshot",
                              &us, [&] {
                                return hermes::DurableGraphStore::WriteSnapshot(
                                    store, path);
                              });
      if (!st.ok()) Incorrect("WriteSnapshot failed");
      writes.push_back(us / 1e6);
    }
    snapshot_write_s_ = Median(writes);
  }

  /// LightweightRepartitioner::Run on the benchmark's own copy of the
  /// skewed input and Metis placement.
  void RepartitionerProbe() {
    Tracer::Span root = tracer_.Root("probe.partition.run", next_id_++);
    std::vector<double> runs;
    hermes::RepartitionResult result;
    for (int i = 0; i < sizes_.probe_repeats; ++i) {
      PartitionAssignment assignment = initial_;
      hermes::AuxiliaryData aux(skewed_, assignment);
      double us = 0.0;
      result = Timed(root, "partition.LightweightRepartitioner::Run", &us, [&] {
        return hermes::LightweightRepartitioner().Run(skewed_, &assignment, &aux);
      });
      runs.push_back(us / 1e6);
    }
    partition_run_s_ = Median(runs);
    partition_iterations_ = static_cast<double>(result.iterations);
    partition_logical_moves_ = static_cast<double>(result.total_logical_moves);
    partition_aux_bytes_ = static_cast<double>(result.aux_bytes_exchanged);
  }

  // --- Results -------------------------------------------------------------

  void Report() {
    out_->samples = {{"read1", samples_[kRead1].size()},
                     {"read2", samples_[kRead2].size()},
                     {"insert_edge", samples_[kInsertEdge].size()},
                     {"insert_vertex", samples_[kInsertVertex].size()},
                     {"repartition", repartition_s_.size()},
                     {"checkpoint", checkpoint_s_.size()},
                     {"recovery", recovery_s_.size()},
                     {"setup", setup_s_.size()}};
    if (cfg_.trace) {
      ReportPerLayer();
    } else {
      ReportEndToEnd();
    }
  }

  void Add(const char* name, double value, const char* unit) {
    out_->metrics.push_back(Metric{name, value, unit});
  }

  void ReportEndToEnd() {
    Add("read1_p50_us", Percentile(samples_[kRead1], 50), "us");
    Add("read1_p99_us", Percentile(samples_[kRead1], 99), "us");
    Add("read2_p50_us", Percentile(samples_[kRead2], 50), "us");
    Add("read2_p99_us", Percentile(samples_[kRead2], 99), "us");
    Add("insert_edge_p50_us", Percentile(samples_[kInsertEdge], 50), "us");
    Add("insert_edge_p99_us", Percentile(samples_[kInsertEdge], 99), "us");
    Add("insert_vertex_p50_us", Percentile(samples_[kInsertVertex], 50), "us");
    Add("ops_per_s", perfbench::PerOp(focus_done_, focus_s_), "ops/s");
    Add("checkpoint_s", Median(checkpoint_s_), "s");
    Add("recovery_s", Median(recovery_s_), "s");
    Add("repartition_s", Median(repartition_s_), "s");
    Add("vertices_moved", vertices_moved_, "count");
    Add("edge_cut_after", edge_cut_after_, "fraction");
    Add("imbalance_after", imbalance_after_, "ratio");
    Add("setup_s", Median(setup_s_), "s");
    Add("peak_rss_mb", ReadUsage().max_rss_mb, "MB");
  }

  void ReportPerLayer() {
    const Window& writes = InsertsAreOwnOps() ? focus_ : side_writes_;
    const double ops = focus_.counted;
    const Counters run_end = TakeCounters();

    Add("proc.cpu_us_per_op",
        perfbench::PerOp((focus_.u1.cpu_s - focus_.u0.cpu_s) * 1e6, ops),
        "us/op");
    Add("proc.ctx_switches_per_op",
        perfbench::PerOp(static_cast<double>(focus_.u1.context_switches -
                                             focus_.u0.context_switches),
                         ops),
        "switches/op");
    Add("cluster.load_s", Median(load_s_), "s");
    Add("partition.metis_s", Median(metis_s_), "s");
    Add("cluster.remote_hops_per_read",
        perfbench::PerOp(Delta(focus_.c0, focus_.c1, "cluster.read_remote_hops"),
                         Delta(focus_.c0, focus_.c1, "cluster.reads")),
        "hops/read");
    Add("cluster.dir_locks_per_op",
        focus_.PerOp("lock.cluster.dir.acquisitions"), "locks/op");
    Add("cluster.topo_locks_per_op",
        focus_.PerOp("lock.cluster.topo.acquisitions"), "locks/op");
    Add("cluster.migrate_s", Median(migrate_s_), "s");
    Add("cluster.recover_rebuild_s", Median(rebuild_s_), "s");
    Add("partition.run_s", partition_run_s_, "s");
    Add("partition.iterations", partition_iterations_, "count");
    Add("partition.logical_moves", partition_logical_moves_, "count");
    Add("partition.aux_bytes", partition_aux_bytes_, "B");
    Add("net.calls_per_op", focus_.PerOp("msg.calls"), "calls/op");
    Add("net.bytes_per_op", focus_.PerOp("msg.bytes"), "B/op");
    Add("net.calls_per_moved_vertex", calls_per_moved_, "calls/vertex");
    Add("net.bytes_per_moved_vertex", bytes_per_moved_, "B/vertex");
    Add("net.ping_us", ping_us_, "us");
    Add("net.encode_us", encode_us_, "us");
    Add("net.decode_us", decode_us_, "us");
    Add("server.apply_us_per_op",
        perfbench::PerOp(focus_.c1.server_hold_us - focus_.c0.server_hold_us,
                         focus_.counted),
        "us/op");
    Add("graphdb.neighbors_us", neighbors_us_, "us");
    Add("graphdb.snapshot_write_s", snapshot_write_s_, "s");
    Add("graphdb.open_s", Median(open_s_), "s");
    Add("storage.wal_appends_per_op", focus_.PerOp("wal.appends"),
        "appends/op");
    Add("storage.wal_bytes_per_op", focus_.PerOp("wal.append_bytes"), "B/op");
    Add("storage.wal_syncs_per_checkpoint",
        perfbench::PerOp(wal_syncs_,
                         static_cast<double>(checkpoint_s_.size())),
        "syncs/ckpt");
    Add("storage.disk_bytes_per_edge", disk_bytes_per_edge_, "B/edge");
    Add("storage.page_cache_misses", page_cache_misses_, "count");
    Add("txn.locks_per_write",
        perfbench::PerOp(
            Delta(writes.c0, writes.c1, "lock_manager.acquired_exclusive"),
            writes.writes),
        "locks/write");
    Add("txn.lock_timeouts", Delta(run_start_, run_end, "lock_manager.timeouts"),
        "count");
    Add("common.registry_locks_per_op",
        focus_.PerOp("lock.metrics_registry.mu.acquisitions"), "locks/op");
    Add("common.trace_locks_per_op",
        focus_.PerOp("lock.trace_log.mu.acquisitions"), "locks/op");
    Add("net.retries", Delta(run_start_, run_end, "msg.retries"), "count");
    Add("net.timeouts", Delta(run_start_, run_end, "msg.timeouts"), "count");
    Add("server.dedup_hits", Delta(run_start_, run_end, "msg.dedup_hits"),
        "count");
    Add("trace.ops_per_s", perfbench::PerOp(focus_done_, focus_s_), "ops/s");
    double op_self_us = 0.0;
    double op_spans = 0.0;
    for (const auto& [name, totals] : tracer_.TotalsByName()) {
      if (!name.starts_with("op.")) continue;
      op_self_us += totals.self_us;
      op_spans += static_cast<double>(totals.count);
    }
    Add("trace.bench_self_us_per_op", perfbench::PerOp(op_self_us, op_spans),
        "us/op");
  }

  /// Writes the spans out and prints each span name's total and self
  /// time to stderr.
  void WriteSpans() const {
    if (!cfg_.spans_out.empty()) {
      std::error_code ec;
      fs::create_directories(fs::path(cfg_.spans_out).parent_path(), ec);
      if (!tracer_.WriteCsv(cfg_.spans_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     cfg_.spans_out.c_str());
      }
    }
    std::fprintf(stderr, "%-44s %10s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms");
    for (const auto& [name, t] : tracer_.TotalsByName()) {
      std::fprintf(stderr, "%-44s %10llu %12.3f %12.3f\n", name.c_str(),
                   static_cast<unsigned long long>(t.count), t.total_us / 1e3,
                   t.self_us / 1e3);
    }
  }

  bool Failed(const char* what, const Status& st) {
    ++out_->failed;
    if (out_->failed <= 5) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                   st.ToString().c_str());
    }
    return false;
  }

  void Incorrect(const std::string& why) {
    if (out_->correct) {
      out_->correct = false;
      out_->first_failure = why;
      std::fprintf(stderr, "perfbench: output check failed: %s\n", why.c_str());
    }
  }

  void Check(const char* name, bool ok, const char* why) {
    ++out_->checks[name];
    if (!ok) Incorrect(why);
  }

  const RunConfig& cfg_;
  const Spec& spec_;
  const Sizes sizes_;
  RunResult* const out_;
  Tracer tracer_;
  hermes::Rng rng_;
  std::uint64_t next_id_ = 0;

  Graph graph_;   // the generated input, unskewed
  Graph skewed_;  // the input with the hot partition's weights doubled
  PartitionAssignment initial_;
  std::vector<VertexId> hot_;
  std::size_t n0_ = 0;
  std::unique_ptr<HermesCluster> traffic_, rounds_, checkpointed_;
  /// The benchmark's own records of the traffic cluster's graph and of
  /// the recovery directory's.
  Graph truth_, recovered_truth_;
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;

  std::vector<double> samples_[kKinds];  // latencies of recorded ops, us
  double focus_done_ = 0.0, focus_s_ = 0.0;  // recorded focus ops, time
  std::vector<double> setup_s_, metis_s_, load_s_;
  std::vector<double> repartition_s_, migrate_s_;
  std::vector<double> checkpoint_s_, recovery_s_;
  std::vector<double> open_s_, rebuild_s_;  // traced runs, per Recover()
  std::uint64_t reads_seen_ = 0;
  std::size_t rounds_seen_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t writes_sent_ = 0;
  double vertices_moved_ = 0.0, edge_cut_after_ = 0.0, imbalance_after_ = 0.0;
  double calls_per_moved_ = 0.0, bytes_per_moved_ = 0.0;
  Window focus_, side_writes_;
  Counters run_start_;
  double wal_syncs_ = 0.0, disk_bytes_per_edge_ = 0.0;
  double page_cache_misses_ = 0.0;
  double ping_us_ = 0.0, encode_us_ = 0.0, decode_us_ = 0.0;
  double neighbors_us_ = 0.0, snapshot_write_s_ = 0.0;
  double partition_run_s_ = 0.0, partition_iterations_ = 0.0;
  double partition_logical_moves_ = 0.0, partition_aux_bytes_ = 0.0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Spec& s : kSpecs) out.emplace_back(s.name);
    return out;
  }();
  return names;
}

RunResult RunWorkload(const RunConfig& cfg) {
  RunResult out;
  for (const Spec& spec : kSpecs) {
    if (cfg.workload != spec.name) continue;
    Bench(cfg, spec, &out).Run();
    return out;
  }
  out.correct = false;
  out.first_failure = "unknown workload";
  return out;
}

}  // namespace perfbench
