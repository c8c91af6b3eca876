// Multi-threaded stress tests for every internally synchronized class,
// sized to finish quickly under ThreadSanitizer on a small CI machine
// (build with the `tsan` or `asan-ubsan` CMake preset to run them under
// the sanitizers; see DESIGN.md "Concurrency invariants").

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "graphdb/durable_store.h"
#include "graphdb/graph_store.h"
#include "common/failpoint.h"
#include "common/lock_order.h"
#include "common/metrics.h"
#include "graph/graph.h"
#include "partition/assignment.h"
#include "storage/id_generator.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace hermes {
namespace {

std::string TempFile(const char* name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

// Bounded wait for a flag set by another thread; returns whether it was
// set within `timeout_ms`. The no-blocking-under-lock regressions below
// use it so that a reintroduced lock hold fails the test instead of
// hanging the suite.
bool AwaitTrue(const std::atomic<bool>& flag, int timeout_ms) {
  for (int i = 0; i < timeout_ms && !flag.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return flag.load();
}

// --- LockManager -----------------------------------------------------------

// Real multi-threaded contention for the timeout-based deadlock scheme:
// half the threads lock key pairs in ascending order, half descending, so
// genuine deadlock cycles form constantly. Every acquisition must either
// succeed or abort with kTimedOut — and the run must terminate.
TEST(ConcurrencyStressTest, LockManagerResolvesDeadlocksByTimeout) {
  LockManager locks(std::chrono::milliseconds(10));
  constexpr int kThreads = 4;
  constexpr int kRounds = 30;
  std::atomic<int> committed{0};
  std::atomic<int> timed_out{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto txn = static_cast<LockManager::TxnId>(t * kRounds + r + 1);
        const LockManager::LockKey first = (t % 2 == 0) ? 1 : 2;
        const LockManager::LockKey second = (t % 2 == 0) ? 2 : 1;
        const Status a = locks.AcquireExclusive(txn, first);
        if (!a.ok()) {
          ASSERT_TRUE(a.IsTimedOut()) << a.ToString();
          ++timed_out;
          continue;
        }
        const Status b = locks.AcquireExclusive(txn, second);
        if (b.ok()) {
          ++committed;
          locks.Release(txn, second);
        } else {
          ASSERT_TRUE(b.IsTimedOut()) << b.ToString();
          ++timed_out;
        }
        locks.Release(txn, first);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(committed.load(), 0);        // the scheme makes progress...
  EXPECT_EQ(locks.NumLockedKeys(), 0u);  // ...and everything drains
}

// With a consistent acquisition order and retry-on-timeout, every
// transaction eventually commits (timeouts are false-positive aborts, not
// lost work).
TEST(ConcurrencyStressTest, LockManagerOrderedAcquisitionAllCommit) {
  LockManager locks(std::chrono::milliseconds(20));
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 25;
  std::atomic<int> committed{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kTxnsPerThread; ++r) {
        const auto txn =
            static_cast<LockManager::TxnId>(t * kTxnsPerThread + r + 1);
        for (;;) {  // retry the whole transaction on timeout
          if (!locks.AcquireExclusive(txn, 7).ok()) continue;
          if (!locks.AcquireExclusive(txn, 9).ok()) {
            locks.Release(txn, 7);
            continue;
          }
          ++committed;
          locks.Release(txn, 9);
          locks.Release(txn, 7);
          break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(committed.load(), kThreads * kTxnsPerThread);
  EXPECT_EQ(locks.NumLockedKeys(), 0u);
}

// Shared/exclusive interaction under contention: readers overlap freely,
// writers exclude everyone, upgrades either succeed or time out cleanly.
TEST(ConcurrencyStressTest, LockManagerSharedExclusiveContention) {
  LockManager locks(std::chrono::milliseconds(10));
  std::atomic<int> write_epoch{0};
  std::atomic<bool> writer_active{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < 40; ++r) {
        const auto txn = static_cast<LockManager::TxnId>(100 * (t + 1) + r);
        if (t == 0) {  // writer
          if (locks.AcquireExclusive(txn, 5).ok()) {
            EXPECT_FALSE(writer_active.exchange(true));
            ++write_epoch;
            EXPECT_TRUE(writer_active.exchange(false));
            locks.Release(txn, 5);
          }
        } else {  // readers, occasionally upgrading
          if (!locks.AcquireShared(txn, 5).ok()) continue;
          EXPECT_FALSE(writer_active.load());
          if (r % 8 == 0) {
            const Status up = locks.AcquireExclusive(txn, 5);
            if (!up.ok()) {
              EXPECT_TRUE(up.IsTimedOut());
            }
          }
          locks.Release(txn, 5);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(locks.NumLockedKeys(), 0u);
}

// Transaction RAII + manager under contention (the txn_test coverage is
// single-threaded; this is the real interleaving).
TEST(ConcurrencyStressTest, TransactionsUnderContentionReleaseEverything) {
  TransactionManager manager(std::chrono::milliseconds(10));
  std::atomic<int> aborted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < 30; ++r) {
        Transaction txn = manager.Begin();
        const LockManager::LockKey a = (t % 2 == 0) ? 11 : 13;
        const LockManager::LockKey b = (t % 2 == 0) ? 13 : 11;
        if (!txn.LockExclusive(a).ok() || !txn.LockExclusive(b).ok()) {
          ++aborted;
          txn.Abort();
          continue;
        }
        txn.Commit();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(manager.lock_manager()->NumLockedKeys(), 0u);
}

// --- WriteAheadLog ---------------------------------------------------------

// Concurrent appenders: LSNs must come out dense and unique, and every
// frame must be intact on disk (no interleaved torn writes).
TEST(ConcurrencyStressTest, WalConcurrentAppendsKeepFramesIntact) {
  const std::string path = TempFile("cc_wal.log");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          WalEntry e;
          e.type = WalOpType::kSetNodeProperty;
          e.a = static_cast<VertexId>(t);
          e.key = static_cast<std::uint32_t>(i);
          e.payload = std::string(17 + (i % 5), static_cast<char>('a' + t));
          auto lsn = wal->Append(e);
          ASSERT_OK(lsn);
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_OK(wal->Sync());
    EXPECT_EQ(wal->next_lsn(), 1u + kThreads * kPerThread);
  }

  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::uint64_t> lsns;
  std::array<int, kThreads> per_thread{};
  for (const WalEntry& e : *entries) {
    lsns.insert(e.lsn);
    ASSERT_LT(e.a, static_cast<VertexId>(kThreads));
    const auto t = static_cast<std::size_t>(e.a);
    ++per_thread[t];
    EXPECT_EQ(e.payload, std::string(17 + (e.key % 5),
                                     static_cast<char>('a' + e.a)));
  }
  EXPECT_EQ(lsns.size(), entries->size());       // unique
  EXPECT_EQ(*lsns.begin(), 1u);                  // dense from 1
  EXPECT_EQ(*lsns.rbegin(), entries->size());
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[t], kPerThread);
}

// Concurrent DURABLE appenders: every Append(durable=true) that returns
// OK must be fsynced, and the leader/follower protocol must batch the
// callers into shared commit windows instead of one fsync per append.
TEST(ConcurrencyStressTest, WalConcurrentDurableAppendsShareFsyncWindows) {
  const std::string path = TempFile("cc_wal_durable.log");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          WalEntry e;
          e.type = WalOpType::kSetNodeProperty;
          e.a = static_cast<VertexId>(t);
          e.key = static_cast<std::uint32_t>(i);
          e.payload = std::string(9 + (i % 3), static_cast<char>('a' + t));
          auto lsn = wal->Append(e, /*durable=*/true);
          ASSERT_OK(lsn);
          // The durable contract: returning means fsynced through my LSN.
          ASSERT_GE(wal->durable_lsn(), *lsn);
        }
      });
    }
    for (auto& t : threads) t.join();
    const std::uint64_t total = kThreads * kPerThread;
    EXPECT_EQ(wal->next_lsn(), total + 1);
    EXPECT_EQ(wal->durable_lsn(), total);
    // Group commit can only merge windows, never add fsyncs beyond one
    // per durable append (the scheduling-dependent lower bound is proven
    // deterministically in wal_test.cc).
    EXPECT_GE(wal->fsync_count(), 1u);
    EXPECT_LE(wal->fsync_count(), total);
  }
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::uint64_t> lsns;
  for (const WalEntry& e : *entries) {
    lsns.insert(e.lsn);
    EXPECT_EQ(e.payload, std::string(9 + (e.key % 3),
                                     static_cast<char>('a' + e.a)));
  }
  EXPECT_EQ(lsns.size(), entries->size());
  EXPECT_EQ(*lsns.begin(), 1u);
  EXPECT_EQ(*lsns.rbegin(), entries->size());
}

// Concurrent Sync() callers racing concurrent appenders: each Sync must
// cover everything appended before it was called, and none may deadlock
// with the appenders' arrival notifications.
TEST(ConcurrencyStressTest, WalSyncersRaceAppenders) {
  const std::string path = TempFile("cc_wal_syncers.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  constexpr int kAppenders = 3;
  constexpr int kPerThread = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&wal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WalEntry e;
        e.type = WalOpType::kCreateNode;
        e.a = static_cast<VertexId>(t * kPerThread + i);
        ASSERT_OK(wal->Append(e));
      }
    });
  }
  threads.emplace_back([&wal] {
    for (int i = 0; i < 20; ++i) ASSERT_OK(wal->Sync());
  });
  for (auto& t : threads) t.join();
  ASSERT_OK(wal->Sync());
  EXPECT_EQ(wal->durable_lsn(), kAppenders * kPerThread);
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  EXPECT_EQ(entries->size(),
            static_cast<std::size_t>(kAppenders * kPerThread));
}

// Regression (pre-fix this test fails: the stager never gets through):
// Reset() used to hold wal.mu across the ftruncate + fsync, so every
// concurrent Append() stalled for the whole truncate. Reset now takes the
// group-commit leader token and truncates off-lock; stagers must keep
// completing while the truncate is parked in the test hook.
TEST(ConcurrencyStressTest, WalResetDoesNotBlockStagers) {
  const std::string path = TempFile("cc_wal_reset_stagers.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  for (int i = 0; i < 3; ++i) {
    WalEntry e;
    e.type = WalOpType::kCreateNode;
    e.a = static_cast<VertexId>(i);
    ASSERT_OK(wal->Append(e));
  }
  ASSERT_OK(wal->Sync());

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  wal->SetCommitIoHookForTest([&parked, &release] {
    parked.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread resetter([&wal] { ASSERT_OK(wal->Reset()); });
  ASSERT_TRUE(AwaitTrue(parked, 5000));

  // The truncate is in flight with the leader token held and wal.mu
  // free: a stager must complete while it is parked.
  std::atomic<bool> staged{false};
  std::thread stager([&wal, &staged] {
    WalEntry e;
    e.type = WalOpType::kAddEdge;
    e.a = 7;
    e.b = 8;
    ASSERT_OK(wal->Append(e));
    staged.store(true);
  });
  EXPECT_TRUE(AwaitTrue(staged, 5000));
  release.store(true);
  stager.join();
  resetter.join();
  wal->SetCommitIoHookForTest(nullptr);

  // The frame staged during the truncate window kept its LSN and stayed
  // pending (it is *not* covered by the snapshot the Reset served): the
  // next sync writes it after the truncated tail.
  ASSERT_OK(wal->Sync());
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].lsn, 4u);
  EXPECT_EQ((*entries)[0].type, WalOpType::kAddEdge);
}

// The same invariant aimed at the group-commit leader: a leader stalled
// inside its fsync window — even one whose fsync then *fails* (the
// wal.sync.io_error failpoint, when the build has failpoints) — must not
// hold wal.mu. Concurrent stagers keep completing, and the lock
// profiler's hold-time histogram stays bounded by microseconds rather
// than by the stall (the runtime half of the critical_section_audit
// contract).
TEST(ConcurrencyStressTest, WalStalledCommitLeaderDoesNotBlockStagers) {
  // Time every wal.mu hold, on every thread: a sampled max could miss
  // the one hold that spans the stall.
  const lock_order::TimeEveryHoldForTest time_every_hold;
  MetricsRegistry::Global().ResetAll();
  const std::string path = TempFile("cc_wal_stalled_leader.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::atomic<int> hook_calls{0};
  wal->SetCommitIoHookForTest([&parked, &release, &hook_calls] {
    if (hook_calls.fetch_add(1) != 0) return;  // only the first window parks
    parked.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  if (kFailpointsEnabled) {
    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kNthHit;
    cfg.n = 1;
    FailpointRegistry::Global().Arm("wal.sync.io_error", cfg);
  }

  std::thread leader([&wal] {
    WalEntry e;
    e.type = WalOpType::kCreateNode;
    e.a = 1;
    auto lsn = wal->Append(e, /*durable=*/true);
    if (kFailpointsEnabled) {
      // The window's fsync failed; the failure is transient (not poison)
      // and was reported to the waiter that depended on it.
      EXPECT_FALSE(lsn.ok());
    } else {
      EXPECT_TRUE(lsn.ok());
    }
  });
  ASSERT_TRUE(AwaitTrue(parked, 5000));

  constexpr int kStagers = 4;
  std::atomic<int> staged{0};
  std::atomic<bool> all_staged{false};
  std::vector<std::thread> stagers;
  for (int t = 0; t < kStagers; ++t) {
    stagers.emplace_back([&wal, &staged, &all_staged, t] {
      WalEntry e;
      e.type = WalOpType::kSetNodeState;
      e.a = static_cast<VertexId>(t + 10);
      ASSERT_OK(wal->Append(e));
      if (staged.fetch_add(1) + 1 == kStagers) all_staged.store(true);
    });
  }
  EXPECT_TRUE(AwaitTrue(all_staged, 5000));
  // Keep the leader parked long enough that a reintroduced
  // fsync-under-mu_ would be unmissable in the hold histogram below.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  release.store(true);
  for (auto& t : stagers) t.join();
  leader.join();
  if (kFailpointsEnabled) FailpointRegistry::Global().Reset();

  // A later window retries the fsync and covers everything staged.
  ASSERT_OK(wal->Sync());
  EXPECT_EQ(wal->durable_lsn(), 1u + kStagers);
  wal->SetCommitIoHookForTest(nullptr);

#ifdef HERMES_LOCK_PROFILING
  // The 150 ms stall must not appear as wal.mu hold time: the leader
  // parks holding only the leader token.
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto it = snap.histograms.find("lock.wal.mu.hold_us");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_LT(it->second.max, 100'000.0);
#endif
}

// --- DurableGraphStore -----------------------------------------------------

// Concurrent logged mutations on one partition store, then recovery from
// the log: nothing may be lost or torn.
TEST(ConcurrencyStressTest, DurableStoreConcurrentMutationsRecover) {
  const std::string dir = ::testing::TempDir() + "/cc_durable_store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr int kThreads = 4;
  constexpr int kNodesPerThread = 40;
  {
    auto store = DurableGraphStore::Open(0, dir);
    ASSERT_OK(store);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < kNodesPerThread; ++i) {
          const auto id =
              static_cast<VertexId>(t * kNodesPerThread + i);
          ASSERT_OK((*store)->CreateNode(id, 1.0));
          ASSERT_TRUE(
              (*store)->SetNodeProperty(id, 0, "n" + std::to_string(id)).ok());
          if (i > 0) {
            ASSERT_TRUE(
                (*store)->AddEdge(id, id - 1, 0, /*other_is_local=*/true)
                    .ok());
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_OK((*store)->Sync());
  }
  // Crash-reopen: replay the log from scratch.
  auto recovered = DurableGraphStore::Open(0, dir);
  ASSERT_OK(recovered);
  EXPECT_EQ((*recovered)->store().NumNodes(),
            static_cast<std::size_t>(kThreads * kNodesPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 1; i < kNodesPerThread; ++i) {
      const auto id = static_cast<VertexId>(t * kNodesPerThread + i);
      auto neighbors = (*recovered)->store().Neighbors(id);
      ASSERT_OK(neighbors);
      EXPECT_TRUE(std::find(neighbors->begin(), neighbors->end(),
                            id - 1) != neighbors->end());
    }
  }
  std::filesystem::remove_all(dir);
}

// durable_mutations mode under contention: every mutation that returned
// OK must survive an immediate reopen WITHOUT any explicit Sync — the
// whole point of the per-mutation durability contract.
TEST(ConcurrencyStressTest, DurableStoreDurableMutationsSurviveReopen) {
  const std::string dir = ::testing::TempDir() + "/cc_durable_mutations";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  constexpr int kThreads = 4;
  constexpr int kNodesPerThread = 25;
  {
    DurableGraphStore::Options options;
    options.durable_mutations = true;
    auto store = DurableGraphStore::Open(0, dir, options);
    ASSERT_OK(store);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < kNodesPerThread; ++i) {
          const auto id = static_cast<VertexId>(t * kNodesPerThread + i);
          ASSERT_OK((*store)->CreateNode(id, 1.0));
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ((*store)->durable_lsn(),
              static_cast<std::uint64_t>(kThreads * kNodesPerThread));
    // No Sync() here — the mutations must already be on the platter.
  }
  auto recovered = DurableGraphStore::Open(0, dir);
  ASSERT_OK(recovered);
  EXPECT_EQ((*recovered)->store().NumNodes(),
            static_cast<std::size_t>(kThreads * kNodesPerThread));
  std::filesystem::remove_all(dir);
}

// --- IdGenerator -----------------------------------------------------------

TEST(ConcurrencyStressTest, IdGeneratorMintsUniqueIdsAcrossThreads) {
  IdGenerator gen(3);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<RecordId>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gen, &minted, t] {
      minted[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        minted[static_cast<std::size_t>(t)].push_back(gen.Next());
      }
      // Concurrent external observations must never wind the counter back.
      gen.ObserveExternal((3ULL << 48) | 123);
    });
  }
  for (auto& t : threads) t.join();
  std::set<RecordId> unique;
  for (const auto& ids : minted) {
    for (RecordId id : ids) {
      EXPECT_EQ(IdGenerator::OriginOf(id), 3u);
      EXPECT_TRUE(unique.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// --- HermesCluster ---------------------------------------------------------

Graph RingWithChords(std::size_t n) {
  Graph g(n);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_OK(g.AddEdge(v, (v + 1) % n));
    // Chords only from the first half so no {v, v + n/2} pair repeats
    // (AddEdge rejects duplicates).
    if (v % 3 == 0 && v < n / 2) {
      EXPECT_OK(g.AddEdge(v, v + n / 2));
    }
  }
  return g;
}

// Repartitioner iterations racing against reads and edge inserts. The cluster's
// coarse lock must keep the directory, stores, graph view, and auxiliary
// data mutually consistent throughout.
TEST(ConcurrencyStressTest, ClusterReadsWritesAndRepartitionInParallel) {
  const std::size_t n = 240;
  Graph g = RingWithChords(n);
  PartitionAssignment asg(n, 4);
  for (VertexId v = 0; v < n; ++v) asg.Assign(v, v % 4);  // poor locality
  HermesCluster::Options options;
  options.repartitioner.max_iterations = 4;
  HermesCluster cluster(std::move(g), std::move(asg), options);

  std::atomic<int> reads_ok{0};
  std::atomic<int> edges_added{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {  // readers
    threads.emplace_back([&cluster, &reads_ok, t] {
      for (int i = 0; i < 60; ++i) {
        const auto start = static_cast<VertexId>((i * 13 + t * 7) % 240);
        auto run = cluster.ExecuteRead(start, 1 + i % 2);
        if (run.ok()) ++reads_ok;
      }
    });
  }
  threads.emplace_back([&cluster, &edges_added] {  // writer
    for (int i = 0; i < 40; ++i) {
      const auto u = static_cast<VertexId>((i * 17) % 240);
      const auto v = static_cast<VertexId>((i * 17 + 29) % 240);
      const Status st = cluster.InsertEdge(u, v);
      if (st.ok()) ++edges_added;
      // AlreadyExists / TimedOut are legitimate under contention.
    }
  });
  threads.emplace_back([&cluster] {  // repartitioner
    for (int i = 0; i < 2; ++i) {
      auto stats = cluster.RunLightweightRepartition();
      ASSERT_OK(stats);
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_GT(reads_ok.load(), 0);
  EXPECT_GT(edges_added.load(), 0);
  EXPECT_TRUE(cluster.Validate());
}

// Regression (pre-fix the reader and writer never complete): the logical
// phase of RunLightweightRepartition() used to hold the directory write
// lock across the entire multi-iteration computation, despite the
// documented claim that it runs on copies. It now snapshots the
// (assignment, graph, aux) triple under the locks and releases them
// before the algorithm iterates; reads and edge inserts must complete
// while the repartitioner is parked mid-computation.
TEST(ConcurrencyStressTest, RepartitionDoesNotBlockReaders) {
  const std::size_t n = 120;
  Graph g = RingWithChords(n);
  PartitionAssignment asg(n, 4);
  for (VertexId v = 0; v < n; ++v) asg.Assign(v, v % 4);

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::atomic<int> iterations{0};
  HermesCluster::Options options;
  options.repartitioner.max_iterations = 4;
  options.repartitioner.iteration_hook_for_test =
      [&parked, &release, &iterations] {
        if (iterations.fetch_add(1) != 0) return;  // park only once
        parked.store(true);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
  HermesCluster cluster(std::move(g), std::move(asg), options);

  std::thread repartitioner([&cluster] {
    auto stats = cluster.RunLightweightRepartition();
    ASSERT_OK(stats);
  });
  ASSERT_TRUE(AwaitTrue(parked, 5000));

  std::atomic<bool> read_done{false};
  std::atomic<bool> write_done{false};
  std::thread reader([&cluster, &read_done] {
    auto run = cluster.ExecuteRead(3, 2);
    EXPECT_TRUE(run.ok());
    read_done.store(true);
  });
  std::thread writer([&cluster, &write_done] {
    EXPECT_OK(cluster.InsertEdge(5, 40));
    write_done.store(true);
  });
  EXPECT_TRUE(AwaitTrue(read_done, 5000));
  EXPECT_TRUE(AwaitTrue(write_done, 5000));
  release.store(true);
  reader.join();
  writer.join();
  repartitioner.join();
  EXPECT_TRUE(cluster.Validate());
}

}  // namespace
}  // namespace hermes
