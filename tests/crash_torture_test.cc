// Crash-recovery torture harness (DESIGN.md §9): seeded random op
// sequences run against a DurableGraphStore and an in-memory reference
// GraphStore in lockstep, with failpoints (common/failpoint.h) armed at
// the storage stack's I/O boundaries. When an injected crash latches, the
// live store is abandoned, the registry is reset (the "new process" has
// no faults), and the partition is re-opened from disk. The recovered
// state must equal a *prefix-consistent cut* of the reference: all ops
// accepted up to some k, where k is at least the last synced op and at
// most the last accepted op — every synced op durable, every unsynced
// tail op fully applied or fully absent, never partial.
//
// Every failure message carries the seed, round, and armed failpoint
// schedule; re-run a single schedule with
//   HERMES_TORTURE_SEED=<seed> ./crash_torture_test
// or the equivalent ctest -R filter printed alongside it. Set
// HERMES_TORTURE_DEBUG=1 to trace every op, sync, and checkpoint with
// its status and LSN while reproducing.
//
// The whole file skips under the default preset (HERMES_FAILPOINTS off);
// the asan-ubsan/tsan presets compile the failpoints in.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "canonical_state.h"
#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "gen/social_graph.h"
#include "graphdb/durable_store.h"
#include "graphdb/graph_store.h"
#include "partition/hash_partitioner.h"
#include "storage/wal.h"

namespace hermes {
namespace {

using test::CanonicalState;
using test::Canonicalize;
using test::DiffStates;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Logical ops, applied identically to the durable store and the model.

struct Op {
  WalOpType type = WalOpType::kCheckpoint;
  VertexId a = 0;
  VertexId b = 0;
  double weight = 0.0;
  std::uint32_t key = 0;
  std::uint8_t flag = 0;
  std::string payload;
};

Status ApplyToDurable(DurableGraphStore* db, const Op& op) {
  switch (op.type) {
    case WalOpType::kCreateNode:
      return db->CreateNode(op.a, op.weight);
    case WalOpType::kRemoveNode:
      return db->RemoveNode(op.a);
    case WalOpType::kSetNodeState:
      return db->SetNodeState(op.a, static_cast<NodeState>(op.flag));
    case WalOpType::kAddNodeWeight:
      return db->AddNodeWeight(op.a, op.weight);
    case WalOpType::kAddEdge:
      return db->AddEdge(op.a, op.b, op.key, op.flag != 0).status();
    case WalOpType::kRemoveEdge:
      return db->RemoveEdge(op.a, op.b);
    case WalOpType::kSetNodeProperty:
      return db->SetNodeProperty(op.a, op.key, op.payload);
    case WalOpType::kSetEdgeProperty:
      return db->SetEdgeProperty(op.a, op.b, op.key, op.payload);
    case WalOpType::kCheckpoint:
      return Status::Internal("checkpoint is not an Op");
  }
  return Status::Internal("unknown op");
}

Status ApplyToModel(GraphStore* store, const Op& op) {
  switch (op.type) {
    case WalOpType::kCreateNode:
      return store->CreateNode(op.a, op.weight);
    case WalOpType::kRemoveNode:
      return store->RemoveNode(op.a);
    case WalOpType::kSetNodeState:
      return store->SetNodeState(op.a, static_cast<NodeState>(op.flag));
    case WalOpType::kAddNodeWeight:
      return store->AddNodeWeight(op.a, op.weight);
    case WalOpType::kAddEdge:
      return store->AddEdge(op.a, op.b, op.key, op.flag != 0).status();
    case WalOpType::kRemoveEdge:
      return store->RemoveEdge(op.a, op.b);
    case WalOpType::kSetNodeProperty:
      return store->SetNodeProperty(op.a, op.key, op.payload);
    case WalOpType::kSetEdgeProperty:
      return store->SetEdgeProperty(op.a, op.b, op.key, op.payload);
    case WalOpType::kCheckpoint:
      return Status::Internal("checkpoint is not an Op");
  }
  return Status::Internal("unknown op");
}

Op GenerateOp(Rng* rng, int step) {
  constexpr VertexId kLocalSpace = 32;
  constexpr VertexId kRemoteBase = 1000;
  Op op;
  const std::uint64_t roll = rng->Uniform(100);
  if (roll < 22) {
    op.type = WalOpType::kCreateNode;
    op.a = rng->Uniform(kLocalSpace);
    op.weight = 1.0 + static_cast<double>(rng->Uniform(5));
  } else if (roll < 42) {
    op.type = WalOpType::kAddEdge;
    op.a = rng->Uniform(kLocalSpace);
    op.b = rng->Uniform(kLocalSpace);
    op.key = static_cast<std::uint32_t>(rng->Uniform(4));
    op.flag = 1;
  } else if (roll < 50) {
    op.type = WalOpType::kAddEdge;  // half edge toward a remote id
    op.a = rng->Uniform(kLocalSpace);
    op.b = kRemoteBase + rng->Uniform(12);
    op.key = static_cast<std::uint32_t>(rng->Uniform(4));
    op.flag = 0;
  } else if (roll < 58) {
    op.type = WalOpType::kRemoveEdge;
    op.a = rng->Uniform(kLocalSpace);
    op.b = rng->Bernoulli(0.8) ? rng->Uniform(kLocalSpace)
                               : kRemoteBase + rng->Uniform(12);
  } else if (roll < 64) {
    op.type = WalOpType::kRemoveNode;
    op.a = rng->Uniform(kLocalSpace);
  } else if (roll < 78) {
    op.type = WalOpType::kSetNodeProperty;
    op.a = rng->Uniform(kLocalSpace);
    op.key = static_cast<std::uint32_t>(rng->Uniform(4));
    // Lengths straddle the dynamic store's 24-byte block payload.
    op.payload = std::string(rng->Uniform(60), 'a' + step % 26);
  } else if (roll < 88) {
    op.type = WalOpType::kSetEdgeProperty;
    op.a = rng->Uniform(kLocalSpace);
    op.b = rng->Uniform(kLocalSpace);
    op.key = static_cast<std::uint32_t>(rng->Uniform(4));
    op.payload = "e" + std::to_string(step);
  } else if (roll < 96) {
    op.type = WalOpType::kAddNodeWeight;
    op.a = rng->Uniform(kLocalSpace);
    op.weight = 0.5;
  } else {
    op.type = WalOpType::kSetNodeState;
    op.a = rng->Uniform(kLocalSpace);
    op.flag = rng->Bernoulli(0.5) ? 1 : 0;
  }
  return op;
}

// ---------------------------------------------------------------------------
// Failpoint schedules.

struct ArmedPoint {
  std::string name;
  FailpointConfig config;
};

std::string DescribeSchedule(const std::vector<ArmedPoint>& schedule) {
  std::ostringstream out;
  for (const auto& p : schedule) {
    if (out.tellp() > 0) out << " ";
    out << p.name << "(";
    switch (p.config.policy) {
      case FailpointConfig::Policy::kNthHit:
        out << "nth=" << p.config.n;
        break;
      case FailpointConfig::Policy::kEveryK:
        out << "every=" << p.config.n;
        break;
      case FailpointConfig::Policy::kProbability:
        out << "p=" << p.config.probability << ",seed=" << p.config.seed;
        break;
    }
    if (p.config.arg != 0) out << ",arg=" << p.config.arg;
    out << ")";
  }
  return out.str();
}

// Crash-mode sites latch the registry when they fire; transient sites
// fail the one call and let the run continue.
constexpr const char* kCrashSites[] = {
    "wal.append.crash",
    "wal.append.short_write",
    "wal.os_buffer.drop",  // power loss: un-fsynced bytes and entries
    "snapshot.write.short_write",
    "durable_store.checkpoint.crash",
    "durable_store.checkpoint.after_snapshot.crash",
    "durable_store.checkpoint.before_reset.crash",
    "durable_store.snapshot.rename.crash",
};
constexpr const char* kTransientSites[] = {
    "wal.append.io_error",   "wal.sync.io_error",
    "wal.flush.io_error",
    "snapshot.read.io_error", "snapshot.write.io_error",
    "snapshot.sync.io_error",
};

std::vector<ArmedPoint> ArmRandomSchedule(Rng* rng) {
  std::vector<ArmedPoint> schedule;

  ArmedPoint crash;
  crash.name = kCrashSites[rng->Uniform(std::size(kCrashSites))];
  crash.config.policy = FailpointConfig::Policy::kNthHit;
  // Checkpoint-path sites (the snapshot's included) are evaluated once
  // per checkpoint, a handful of times per round; WAL sites on nearly
  // every op.
  const bool checkpoint_site = crash.name.rfind("durable_store.", 0) == 0 ||
                               crash.name.rfind("snapshot.", 0) == 0;
  crash.config.n = 1 + rng->Uniform(checkpoint_site ? 3 : 80);
  if (crash.name.find("short_write") != std::string::npos) {
    crash.config.arg = 1 + rng->Uniform(40);  // torn-frame prefix bytes
  }
  schedule.push_back(crash);

  if (rng->Bernoulli(0.5)) {
    ArmedPoint transient;
    transient.name = kTransientSites[rng->Uniform(std::size(kTransientSites))];
    if (rng->Bernoulli(0.5)) {
      transient.config.policy = FailpointConfig::Policy::kEveryK;
      transient.config.n = 3 + rng->Uniform(27);
    } else {
      transient.config.policy = FailpointConfig::Policy::kProbability;
      transient.config.probability = 0.02 + 0.1 * rng->NextDouble();
      transient.config.seed = rng->Next();
    }
    schedule.push_back(transient);
  }

  for (const auto& p : schedule) {
    FailpointRegistry::Global().Arm(p.name, p.config);
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// One seed: several crash-recovery rounds against the same directory.

constexpr int kRoundsPerSeed = 3;
constexpr int kMaxStepsPerRound = 220;

void RunTortureSeed(std::uint64_t seed) {
  const std::string dir =
      FreshDir("crash_torture_seed" + std::to_string(seed));
  FailpointRegistry::Global().Reset();

  auto opened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(opened);
  std::unique_ptr<DurableGraphStore> db = std::move(*opened);

  Rng rng(0x7087u ^ (seed * 0x9e3779b97f4a7c15ULL));
  std::vector<Op> accepted;   // every op the live store applied, in order
  std::size_t synced_floor = 0;  // accepted count at the last durable point

  for (int round = 0; round < kRoundsPerSeed; ++round) {
    const std::vector<ArmedPoint> schedule = ArmRandomSchedule(&rng);
    const std::string context = [&] {
      std::ostringstream out;
      out << "seed=" << seed << " round=" << round << " schedule=["
          << DescribeSchedule(schedule) << "]"
          << " repro: HERMES_TORTURE_SEED=" << seed
          << " ./crash_torture_test";
      return out.str();
    }();
    SCOPED_TRACE(context);

    GraphStore model(0);
    for (const Op& op : accepted) {
      ASSERT_OK(ApplyToModel(&model, op)) << context;
    }

    const bool debug = std::getenv("HERMES_TORTURE_DEBUG") != nullptr;
    for (int step = 0; step < kMaxStepsPerRound; ++step) {
      if (FailpointRegistry::Global().crashed()) break;
      const std::uint64_t ctl = rng.Uniform(100);
      if (ctl < 8) {
        const Status st = db->Sync();
        if (st.ok()) synced_floor = accepted.size();
        if (debug) {
          std::fprintf(stderr, "[r%d s%d] sync -> %s floor=%zu\n", round,
                       step, st.ToString().c_str(), synced_floor);
        }
        continue;
      }
      if (ctl < 12) {
        const Status st = db->Checkpoint();
        if (st.ok()) synced_floor = accepted.size();
        if (debug) {
          std::fprintf(stderr, "[r%d s%d] checkpoint -> %s floor=%zu\n",
                       round, step, st.ToString().c_str(), synced_floor);
        }
        continue;
      }
      const Op op = GenerateOp(&rng, step);
      const Status st = ApplyToDurable(db.get(), op);
      if (debug) {
        std::fprintf(stderr,
                     "[r%d s%d] op type=%d a=%llu b=%llu key=%u -> %s "
                     "(accepted=%zu next_lsn=%llu)\n",
                     round, step, static_cast<int>(op.type),
                     static_cast<unsigned long long>(op.a),
                     static_cast<unsigned long long>(op.b), op.key,
                     st.ToString().c_str(), accepted.size(),
                     static_cast<unsigned long long>(
                         FailpointRegistry::Global().crashed()
                             ? 0
                             : db->next_lsn()));
      }
      if (st.IsIOError()) continue;  // injected failure: op not applied
      const Status model_st = ApplyToModel(&model, op);
      ASSERT_EQ(st.code(), model_st.code())
          << context << "\nstep " << step << ": durable="
          << st.ToString() << " model=" << model_st.ToString();
      if (st.ok()) accepted.push_back(op);
    }

    // Crash: abandon the live store (its destructor may flush cleanly
    // buffered appends — that only raises the durable cut, which the
    // invariant allows), clear all injected faults, and recover.
    db.reset();
    FailpointRegistry::Global().Reset();
    auto reopened = DurableGraphStore::Open(0, dir);
    ASSERT_OK(reopened)
        << context << "\nrecovery failed: " << reopened.status().ToString();
    db = std::move(*reopened);
    ASSERT_TRUE(db->store().CheckLinks()) << context;

    // Prefix-consistency: recovered state == model after the first k
    // accepted ops, for some k in [synced_floor, accepted.size()].
    const CanonicalState recovered = Canonicalize(db->store());
    std::size_t matched = accepted.size() + 1;
    GraphStore prefix(0);
    CanonicalState prefix_state = Canonicalize(prefix);
    for (std::size_t k = 0; k <= accepted.size(); ++k) {
      if (k > 0) {
        ASSERT_OK(ApplyToModel(&prefix, accepted[k - 1])) << context;
        prefix_state = Canonicalize(prefix);
      }
      if (k >= synced_floor && prefix_state == recovered) matched = k;
      // Keep scanning: prefer the longest matching cut so the next
      // round's baseline stays maximal when several prefixes coincide.
    }
    ASSERT_LE(matched, accepted.size())
        << context << "\nrecovered state matches no accepted-op prefix in ["
        << synced_floor << ", " << accepted.size()
        << "]\ndiff vs the full prefix (got=recovered, want=model):\n"
        << DiffStates(recovered, prefix_state);

    // The recovered cut is on disk, so it is the new durable baseline.
    accepted.resize(matched);
    synced_floor = matched;
  }
}

// ---------------------------------------------------------------------------
// Seed sweep, sharded so ctest parallelism spreads the work.

constexpr int kShards = 8;
constexpr int kSeedsPerShard = 10;

class CrashTortureTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!kFailpointsEnabled) {
      GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset); run the "
                      "asan-ubsan or tsan preset for fault injection";
    }
    FailpointRegistry::Global().Reset();
  }
  void TearDown() override { FailpointRegistry::Global().Reset(); }
};

TEST_P(CrashTortureTest, ShardedSeedSweep) {
  if (const char* pinned = std::getenv("HERMES_TORTURE_SEED")) {
    // Single-seed repro mode: shard 0 runs exactly the pinned seed.
    if (GetParam() != 0) GTEST_SKIP() << "pinned-seed repro runs on shard 0";
    RunTortureSeed(std::strtoull(pinned, nullptr, 10));
    return;
  }
  for (int i = 0; i < kSeedsPerShard; ++i) {
    RunTortureSeed(static_cast<std::uint64_t>(GetParam() * kSeedsPerShard + i));
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CrashTortureTest,
                         ::testing::Range(0, kShards));

// ---------------------------------------------------------------------------
// Deterministic failpoint-subsystem tests.

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFailpointsEnabled) {
      GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset)";
    }
    FailpointRegistry::Global().Reset();
  }
  void TearDown() override { FailpointRegistry::Global().Reset(); }
};

TEST_F(FailpointTest, NthHitFiresExactlyOnce) {
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 3;
  FailpointRegistry::Global().Arm("test.nth", cfg);
  for (int i = 1; i <= 6; ++i) {
    const bool fired = FailpointRegistry::Global().Evaluate("test.nth").fired;
    EXPECT_EQ(fired, i == 3) << "evaluation " << i;
  }
  EXPECT_EQ(FailpointRegistry::Global().FiredCount("test.nth"), 1u);
}

TEST_F(FailpointTest, EveryKFiresPeriodically) {
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kEveryK;
  cfg.n = 2;
  FailpointRegistry::Global().Arm("test.everyk", cfg);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    fired += FailpointRegistry::Global().Evaluate("test.everyk").fired;
  }
  EXPECT_EQ(fired, 5);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kProbability;
  cfg.probability = 0.5;
  cfg.seed = 42;
  auto run = [&] {
    FailpointRegistry::Global().Arm("test.prob", cfg);
    std::vector<bool> fires;
    for (int i = 0; i < 32; ++i) {
      fires.push_back(FailpointRegistry::Global().Evaluate("test.prob").fired);
    }
    return fires;
  };
  const auto first = run();
  const auto second = run();  // re-arm resets the site's rng
  EXPECT_EQ(first, second);
  EXPECT_TRUE(std::find(first.begin(), first.end(), true) != first.end());
  EXPECT_TRUE(std::find(first.begin(), first.end(), false) != first.end());
}

TEST_F(FailpointTest, CrashLatchMakesEverySiteFire) {
  EXPECT_FALSE(FailpointRegistry::Global().Evaluate("test.unarmed").fired);
  FailpointRegistry::Global().LatchCrash("test.latcher");
  EXPECT_TRUE(FailpointRegistry::Global().crashed());
  EXPECT_TRUE(FailpointRegistry::Global().Evaluate("test.unarmed").fired);
  EXPECT_TRUE(FailpointRegistry::Global().Evaluate("test.other").fired);
  FailpointRegistry::Global().Reset();
  EXPECT_FALSE(FailpointRegistry::Global().crashed());
  EXPECT_FALSE(FailpointRegistry::Global().Evaluate("test.unarmed").fired);
}

TEST_F(FailpointTest, HitCountersReachMetricsRegistry) {
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("test.metrics", cfg);
  FailpointRegistry::Global().Evaluate("test.metrics");
  FailpointRegistry::Global().Evaluate("test.metrics");
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(snap.counters.count("failpoint.test.metrics.hits"));
  ASSERT_TRUE(snap.counters.count("failpoint.test.metrics.fired"));
  EXPECT_GE(snap.counters.at("failpoint.test.metrics.hits"), 2u);
  EXPECT_GE(snap.counters.at("failpoint.test.metrics.fired"), 1u);
}

// ---------------------------------------------------------------------------
// Deterministic end-to-end crash scenarios.

TEST_F(FailpointTest, TornWalAppendLosesOnlyTheTornOp) {
  const std::string dir = FreshDir("torture_torn_append");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));
    ASSERT_OK(db->get()->CreateNode(2, 1.0));
    ASSERT_OK(db->get()->Sync());

    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kNthHit;
    cfg.n = 1;
    cfg.arg = 9;  // tear mid-frame, past the length prefix
    FailpointRegistry::Global().Arm("wal.append.short_write", cfg);
    EXPECT_TRUE(db->get()->CreateNode(3, 1.0).IsIOError());
    EXPECT_TRUE(FailpointRegistry::Global().crashed());
    // The dead process can do no further I/O.
    EXPECT_TRUE(db->get()->CreateNode(4, 1.0).IsIOError());
  }
  FailpointRegistry::Global().Reset();
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  EXPECT_TRUE(reopened->get()->store().NodeExists(1));
  EXPECT_TRUE(reopened->get()->store().NodeExists(2));
  EXPECT_FALSE(reopened->get()->store().NodeExists(3));
  EXPECT_FALSE(reopened->get()->store().NodeExists(4));
}

// The durability-hole regression at the store level: ops synced before a
// power loss survive; ops that only reached the OS page cache are gone —
// and recovery sees EXACTLY the fsynced prefix, nothing in between.
TEST_F(FailpointTest, OsBufferDropRecoversExactlyTheFsyncedPrefix) {
  const std::string dir = FreshDir("torture_os_drop");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));
    ASSERT_OK(db->get()->CreateNode(2, 1.0));
    ASSERT_OK(db->get()->Sync());  // nodes 1,2 fsynced
    ASSERT_OK(db->get()->CreateNode(3, 1.0));  // staged + OS-buffered only

    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kNthHit;
    cfg.n = 1;
    FailpointRegistry::Global().Arm("wal.os_buffer.drop", cfg);
    // Power loss strikes during the commit window: the write()s for node
    // 3 are in flight in OS buffers and never reach the platter.
    EXPECT_FALSE(db->get()->Sync().ok());
    EXPECT_TRUE(FailpointRegistry::Global().crashed());
  }
  FailpointRegistry::Global().Reset();
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  EXPECT_TRUE(reopened->get()->store().NodeExists(1));
  EXPECT_TRUE(reopened->get()->store().NodeExists(2));
  EXPECT_FALSE(reopened->get()->store().NodeExists(3));
}

// With durable_mutations on, a mutation that returned OK is durable,
// full stop: a power loss immediately after must not lose it.
TEST_F(FailpointTest, DurableMutationSurvivesImmediatePowerLoss) {
  const std::string dir = FreshDir("torture_durable_mutation");
  {
    DurableGraphStore::Options options;
    options.durable_mutations = true;
    auto db = DurableGraphStore::Open(0, dir, options);
    ASSERT_OK(db);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));  // returns => fsynced
    // Simulated power loss with nothing staged: the latch kills all
    // later I/O, and the destructor must not flush anything.
    FailpointRegistry::Global().LatchCrash("test.power_loss");
  }
  FailpointRegistry::Global().Reset();
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  EXPECT_TRUE(reopened->get()->store().NodeExists(1));
}

TEST_F(FailpointTest, CrashBetweenSnapshotAndTruncateDoesNotDoubleApply) {
  const std::string dir = FreshDir("torture_checkpoint_window");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));
    ASSERT_OK(db->get()->AddNodeWeight(1, 2.5));

    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kNthHit;
    cfg.n = 1;
    FailpointRegistry::Global().Arm(
        "durable_store.checkpoint.after_snapshot.crash", cfg);
    // Snapshot renamed (weight 3.5, covered LSN 2) but the stale WAL
    // still holds both entries.
    EXPECT_TRUE(db->get()->Checkpoint().IsIOError());
  }
  FailpointRegistry::Global().Reset();
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  // Replaying the stale kAddNodeWeight entry over the new snapshot would
  // yield 6.0; the snapshot's covered LSN must prevent that.
  EXPECT_DOUBLE_EQ(*reopened->get()->store().NodeWeight(1), 3.5);
}

TEST_F(FailpointTest, LsnsDoNotRestartAfterCheckpointAndReopen) {
  const std::string dir = FreshDir("torture_lsn_floor");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));
    ASSERT_OK(db->get()->CreateNode(2, 1.0));
    ASSERT_OK(db->get()->Checkpoint());  // truncates the log
  }
  {
    // A fresh process scans an empty log; without the snapshot's covered
    // LSN as a floor it would hand out LSN 1 again, and the next
    // recovery would wrongly skip the new entries as already covered.
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    EXPECT_GT(db->get()->next_lsn(), 2u);
    ASSERT_OK(db->get()->AddNodeWeight(1, 1.0));
    ASSERT_OK(db->get()->Sync());
  }
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  EXPECT_DOUBLE_EQ(*reopened->get()->store().NodeWeight(1), 2.0);
}

TEST_F(FailpointTest, RecoveryReadErrorFailsCleanly) {
  const std::string dir = FreshDir("torture_recovery_read");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));
    ASSERT_OK(db->get()->Checkpoint());
  }
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("snapshot.read.io_error", cfg);
  auto failed = DurableGraphStore::Open(0, dir);
  EXPECT_FALSE(failed.ok());  // surfaced, not swallowed or crashed

  FailpointRegistry::Global().Reset();
  auto recovered = DurableGraphStore::Open(0, dir);
  ASSERT_OK(recovered);
  EXPECT_TRUE(recovered->get()->store().NodeExists(1));
}

// Directory-entry durability: a create or rename is on disk only once its
// directory is fsynced, and the `wal.os_buffer.drop` power loss undoes
// every entry that was not.

void ArmPowerLossOnNextCommit() {
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("wal.os_buffer.drop", cfg);
}

TEST_F(FailpointTest, CheckpointRenameSurvivesPowerLoss) {
  const std::string dir = FreshDir("torture_rename_power_loss");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));
    ASSERT_OK(db->get()->Checkpoint());
  }
  // A clean restart: whatever the first process left is on disk.
  FailpointRegistry::Global().Reset();
  {
    DurableGraphStore::Options options;
    options.durable_mutations = true;
    auto db = DurableGraphStore::Open(0, dir, options);
    ASSERT_OK(db);
    ASSERT_OK(db->get()->CreateNode(2, 1.0));
    ASSERT_OK(db->get()->AddEdge(1, 2, 0, true));
    // Renames the new snapshot over the old one, then truncates the log.
    ASSERT_OK(db->get()->Checkpoint());
    ArmPowerLossOnNextCommit();
    EXPECT_TRUE(db->get()->CreateNode(3, 1.0).IsIOError());
    EXPECT_TRUE(FailpointRegistry::Global().crashed());
  }
  FailpointRegistry::Global().Reset();
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  // Without the directory fsync the old snapshot comes back next to the
  // truncated log, and node 2 and the edge are gone.
  const GraphStore& store = reopened->get()->store();
  EXPECT_TRUE(store.NodeExists(1));
  EXPECT_TRUE(store.NodeExists(2));
  EXPECT_OK(store.FindEdge(1, 2));
  EXPECT_FALSE(store.NodeExists(3));
}

TEST_F(FailpointTest, FreshLogSurvivesPowerLoss) {
  const std::string dir = FreshDir("torture_fresh_log_power_loss");
  {
    DurableGraphStore::Options options;
    options.durable_mutations = true;
    auto db = DurableGraphStore::Open(0, dir, options);
    ASSERT_OK(db);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));  // returns => fsynced
    ArmPowerLossOnNextCommit();
    EXPECT_TRUE(db->get()->CreateNode(2, 1.0).IsIOError());
  }
  FailpointRegistry::Global().Reset();
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  // Without the directory fsync the log's own name is lost with node 1.
  EXPECT_TRUE(reopened->get()->store().NodeExists(1));
  EXPECT_FALSE(reopened->get()->store().NodeExists(2));
}

TEST_F(FailpointTest, FreshPartitionDirectorySurvivesPowerLoss) {
  const std::string dir = FreshDir("torture_partition_dir_power_loss");
  HermesCluster::Options options;
  options.durability_dir = dir;
  VertexId inserted = 0;
  {
    HermesCluster::Options dying = options;
    dying.bus.call_timeout_us = 200'000;  // the crashed server never replies
    dying.bus.max_attempts = 1;
    const Graph g(4);
    HermesCluster cluster(g, HashPartitioner(1).Partition(g, 2), dying);
    auto vertex = cluster.InsertVertex(1.0);
    ASSERT_OK(vertex);
    inserted = *vertex;
    ASSERT_OK(cluster.Checkpoint());  // every p<i>/ file is synced now
    ArmPowerLossOnNextCommit();
    EXPECT_FALSE(cluster.Checkpoint().ok());
    EXPECT_TRUE(FailpointRegistry::Global().crashed());
  }
  FailpointRegistry::Global().Reset();
  auto recovered = HermesCluster::Recover(2, options);
  ASSERT_OK(recovered);
  // Without the fsync of the cluster directory, the power loss takes the
  // fresh p<i>/ entries with it, synced snapshots and logs included.
  EXPECT_EQ((*recovered)->graph().NumVertices(), inserted + 1);
  EXPECT_TRUE((*recovered)->Validate());
}

// One deterministic case per snapshot failpoint; the sweep reaches them
// only by chance.

TEST_F(FailpointTest, TornSnapshotWriteKeepsPreviousSnapshot) {
  const std::string dir = FreshDir("torture_torn_snapshot");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));
    ASSERT_OK(db->get()->Checkpoint());
    ASSERT_OK(db->get()->CreateNode(2, 2.0));
    ASSERT_OK(db->get()->AddNodeWeight(1, 0.5));
    ASSERT_OK(db->get()->Sync());

    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kNthHit;
    cfg.n = 1;
    cfg.arg = 20;  // the tear ends inside the header
    FailpointRegistry::Global().Arm("snapshot.write.short_write", cfg);
    EXPECT_TRUE(db->get()->Checkpoint().IsIOError());
    EXPECT_TRUE(FailpointRegistry::Global().crashed());
  }
  EXPECT_EQ(std::filesystem::file_size(dir + "/snapshot.bin.tmp"), 20u);
  FailpointRegistry::Global().Reset();
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  const GraphStore& store = reopened->get()->store();
  EXPECT_DOUBLE_EQ(*store.NodeWeight(1), 1.5);
  EXPECT_DOUBLE_EQ(*store.NodeWeight(2), 2.0);
}

// A transient snapshot failure fails the checkpoint before the log is
// touched; the store keeps taking writes and the next checkpoint works.
void ExpectSnapshotErrorLeavesLogIntact(const char* site) {
  SCOPED_TRACE(site);
  const std::string dir = FreshDir(std::string("torture_") + site);
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    ASSERT_OK(db->get()->CreateNode(1, 1.0));
    ASSERT_OK(db->get()->CreateNode(2, 1.0));
    ASSERT_OK(db->get()->Sync());

    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kNthHit;
    cfg.n = 1;
    FailpointRegistry::Global().Arm(site, cfg);
    EXPECT_TRUE(db->get()->Checkpoint().IsIOError());
    EXPECT_FALSE(FailpointRegistry::Global().crashed());
    EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot.bin"));
    auto log = WriteAheadLog::ReadAll(dir + "/wal.log", false);
    ASSERT_OK(log);
    EXPECT_EQ(log->size(), 2u);  // no checkpoint marker, no truncation

    ASSERT_OK(db->get()->CreateNode(3, 1.0));
    ASSERT_OK(db->get()->Checkpoint());
  }
  FailpointRegistry::Global().Reset();
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  EXPECT_EQ(reopened->get()->store().NumNodes(), 3u);
}

TEST_F(FailpointTest, SnapshotWriteErrorLeavesLogIntact) {
  ExpectSnapshotErrorLeavesLogIntact("snapshot.write.io_error");
}

TEST_F(FailpointTest, SnapshotSyncErrorLeavesLogIntact) {
  ExpectSnapshotErrorLeavesLogIntact("snapshot.sync.io_error");
}

// ---------------------------------------------------------------------------
// Message-delivery fault sweep (DESIGN.md §12): the same seeded-schedule
// style as the storage torture above, but the armed sites sit at the
// cluster's send/receive boundary (`msg.send.io_error`, `msg.recv.drop`)
// while live reads AND MUTATIONS run against a message-passing cluster.
// Contract under test: with the bus's idempotent retries on, every
// mutation under fault still succeeds exactly once (the exactly-once
// contract), reads heal transparently, and the cluster Validate()s at
// every quiesce point — no hang, no crash, no directory/store drift.
//
// The fault cadence is pinned to k >= 3. Each delivery needs two clean
// consecutive failpoint hits (request send + reply send), and after any
// fault the next k-1 hits are clean — so for k >= 3 the attempt after a
// faulted one always completes, and bounded retries provably converge.
// k = 2 is the one adversary bounded retries cannot beat: it alternates
// the fault onto every reply of a same-token resend chain, which is
// unbounded loss, not a realistic lossy link. That regime (single
// injected faults, exhausted-retry behavior, recovery of the
// applied-but-unacknowledged window) is pinned deterministically in
// tests/net_transport_test.cc instead.

Graph MessageFaultGraph(std::uint64_t seed) {
  SocialGraphOptions opt;
  opt.num_vertices = 120;
  opt.seed = seed;
  return GenerateSocialGraph(opt);
}

void RunMessageFaultSeed(std::uint64_t seed) {
  FailpointRegistry::Global().Reset();
  Rng rng(0x5157u ^ (seed * 0x9e3779b97f4a7c15ULL));

  HermesCluster::Options options;
  options.bus.call_timeout_us = 200'000;  // dropped frames fail fast
  options.bus.retry_backoff_us = 500;     // and heal fast
  const Graph g = MessageFaultGraph(seed);
  HermesCluster cluster(g, HashPartitioner(1).Partition(g, 3), options);
  ASSERT_TRUE(cluster.Validate());

  for (int round = 0; round < 2; ++round) {
    const bool drop_round = rng.Bernoulli(0.5);
    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kEveryK;
    // k in [3, 10]: see the convergence argument in the header comment —
    // k >= 3 guarantees the attempt after a faulted one completes, so
    // every retried op below MUST succeed, not just fail politely.
    cfg.n = 3 + rng.Uniform(8);
    const char* site = drop_round ? "msg.recv.drop" : "msg.send.io_error";
    FailpointRegistry::Global().Arm(site, cfg);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " round=" +
                 std::to_string(round) + " site=" + site +
                 " k=" + std::to_string(cfg.n));

    // Faulted phase: LIVE MUTATIONS interleaved with reads while every
    // k-th frame is lost or errors. The bus's same-token retries must
    // make each op exactly-once: an edge inserted under a lost reply
    // and then re-applied would double its half records and fail
    // Validate(); one reported-failed-but-applied would drift the
    // directory from the stores.
    const VertexId id_space = cluster.graph().NumVertices();
    for (int step = 0; step < 50; ++step) {
      const std::uint64_t ctl = rng.Uniform(100);
      if (ctl < 10) {
        (void)cluster.TotalStoreBytes();  // best-effort health probe
      } else if (ctl < 35) {
        const VertexId u = rng.Uniform(id_space);
        const VertexId v = rng.Uniform(id_space);
        if (u == v) continue;
        Status st = cluster.InsertEdge(u, v);
        if (st.IsAlreadyExists()) st = Status::OK();  // duplicate edge
        EXPECT_OK(st);
      } else if (ctl < 45) {
        EXPECT_OK(cluster.InsertVertex(1.0).status());
      } else {
        const VertexId start = rng.Uniform(id_space);
        EXPECT_OK(cluster.ExecuteRead(start, 1 + rng.Uniform(2)).status());
      }
      if (::testing::Test::HasFailure()) break;
    }
    FailpointRegistry::Global().Reset();
    EXPECT_TRUE(cluster.Validate());

    // Fault-free phase: more churn between rounds, so the next faulted
    // phase runs against a cluster the bus itself mutated.
    for (int step = 0; step < 12; ++step) {
      const std::uint64_t ctl = rng.Uniform(100);
      Status st = Status::OK();
      if (ctl < 70) {
        const VertexId u = rng.Uniform(id_space);
        const VertexId v = rng.Uniform(id_space);
        if (u == v) continue;
        st = cluster.InsertEdge(u, v);
        if (st.IsAlreadyExists()) st = Status::OK();  // duplicate edge
      } else {
        st = cluster.InsertVertex(1.0).status();
      }
      EXPECT_OK(st);
    }
    EXPECT_TRUE(cluster.Validate());
    if (::testing::Test::HasFailure()) return;
  }
}

class CrashTortureMessageFaultTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!kFailpointsEnabled) {
      GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset); run the "
                      "asan-ubsan or tsan preset for fault injection";
    }
    FailpointRegistry::Global().Reset();
  }
  void TearDown() override { FailpointRegistry::Global().Reset(); }
};

TEST_P(CrashTortureMessageFaultTest, ShardedSeedSweep) {
  constexpr int kSeedsPerMessageShard = 3;
  for (int i = 0; i < kSeedsPerMessageShard; ++i) {
    RunMessageFaultSeed(
        static_cast<std::uint64_t>(GetParam() * kSeedsPerMessageShard + i));
    if (HasFatalFailure() || HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, CrashTortureMessageFaultTest,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace hermes
