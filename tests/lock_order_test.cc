// Tests for the runtime lock-order validator (src/common/lock_order.*).
//
// The validator is compiled in only under HERMES_DEBUG_LOCK_ORDER (the
// asan-ubsan and tsan presets enable it); in release builds the hooks
// are no-ops and the death tests GTEST_SKIP so the suite stays green in
// every preset. The deliberate-inversion test checks the acceptance
// criterion verbatim: the abort message names both lock stacks — the
// acquiring thread's held stack and the stack recorded when the
// opposite acquisition order was first observed.
//
// CondVar waits release and reacquire the mutex inside
// std::condition_variable, outside Mutex::Lock/Unlock; the CondVar
// tests pin that the validator's held stack and the lock profiler's
// rows still see every wait as an unlock and a relock.

#include "common/lock_order.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "txn/lock_manager.h"

namespace hermes {
namespace {

using std::chrono::milliseconds;

TEST(LockOrderTest, MutexCarriesNameAndRank) {
  Mutex mu("test.named.mu", lock_order::kRankWal);
  EXPECT_STREQ(mu.name(), "test.named.mu");
  EXPECT_EQ(mu.rank(), lock_order::kRankWal);

  Mutex plain;
  EXPECT_STREQ(plain.name(), "<unranked>");
  EXPECT_EQ(plain.rank(), lock_order::kRankUnranked);
}

TEST(LockOrderTest, RankedAcquisitionInDeclaredOrderSucceeds) {
  lock_order::ResetGraphForTest();
  Mutex outer("test.order.outer", 11);
  Mutex middle("test.order.middle", 21);
  Mutex inner("test.order.inner", 31);

  outer.Lock();
  middle.Lock();
  inner.Lock();
#ifdef HERMES_DEBUG_LOCK_ORDER
  EXPECT_EQ(lock_order::HeldCount(), 3u);
#else
  EXPECT_EQ(lock_order::HeldCount(), 0u);
#endif
  // Out-of-LIFO release order is legal; only acquisition order is ranked.
  middle.Unlock();
  outer.Unlock();
  inner.Unlock();
  EXPECT_EQ(lock_order::HeldCount(), 0u);
}

TEST(LockOrderTest, UnrankedMutexIsInvisibleToTheValidator) {
  Mutex plain;
  plain.Lock();
  EXPECT_EQ(lock_order::HeldCount(), 0u);
  plain.Unlock();
}

TEST(LockOrderTest, CondVarWaitsKeepTheHeldStackBalanced) {
  lock_order::ResetGraphForTest();
  Mutex outer("test.cv.outer", 18);
  Mutex mu("test.cv.mu", 28);
  CondVar cv;
  bool ready = false;  // guarded by mu

  outer.Lock();
  mu.Lock();
  const std::size_t held = lock_order::HeldCount();
#ifdef HERMES_DEBUG_LOCK_ORDER
  EXPECT_EQ(held, 2u);
#endif
  // WaitUntil, timeout path.
  while (cv.WaitUntil(&mu, std::chrono::steady_clock::now() +
                               milliseconds(2)) !=
         std::cv_status::timeout) {
  }
  EXPECT_EQ(lock_order::HeldCount(), held);

  // WaitUntil, notified path: the notifier can only publish once this
  // thread has released mu inside the wait.
  std::thread notifier([&] {
    {
      MutexLock lock(&mu);
      ready = true;
    }
    cv.NotifyAll();
  });
  std::cv_status status = std::cv_status::timeout;
  while (!ready) {
    status = cv.WaitUntil(&mu, std::chrono::steady_clock::now() +
                                   std::chrono::seconds(30));
  }
  notifier.join();
  EXPECT_EQ(status, std::cv_status::no_timeout);
  EXPECT_EQ(lock_order::HeldCount(), held);

  // Wait.
  ready = false;
  std::thread waker([&] {
    {
      MutexLock lock(&mu);
      ready = true;
    }
    cv.NotifyOne();
  });
  while (!ready) cv.Wait(&mu);
  waker.join();
  EXPECT_EQ(lock_order::HeldCount(), held);

  mu.Unlock();
  outer.Unlock();
  EXPECT_EQ(lock_order::HeldCount(), 0u);
}

#ifdef HERMES_LOCK_PROFILING
// A thread parked in a wait does not hold the mutex: the ~20 ms it spends
// parked must not show up as hold time, and every return from the wait
// counts as one acquisition with its own hold. The guard times every
// hold, so the hold count is exact here rather than a weighted sample.
TEST(LockProfileTest, CondVarWaitIsNotHoldTime) {
  const lock_order::TimeEveryHoldForTest time_every_hold;
  Mutex mu("test.cv.profiled", 27);
  CondVar cv;
  const auto start = std::chrono::steady_clock::now();
  {
    MutexLock lock(&mu);
    const auto deadline = start + milliseconds(20);
    while (cv.WaitUntil(&mu, deadline) != std::cv_status::timeout) {
    }
  }
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(20));
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto hold = snap.histograms.find("lock.test.cv.profiled.hold_us");
  ASSERT_NE(hold, snap.histograms.end());
  // Far below the 20 ms parked; the slack absorbs a preemption while
  // the mutex is really held.
  EXPECT_LT(hold->second.sum, 10'000.0);
  const auto acquisitions =
      snap.counters.find("lock.test.cv.profiled.acquisitions");
  ASSERT_NE(acquisitions, snap.counters.end());
  EXPECT_GE(acquisitions->second, 2u);  // the Lock plus each wait's return
  EXPECT_EQ(hold->second.count, acquisitions->second);
}

std::uint64_t CounterOrZero(const MetricsSnapshot& snap,
                            const std::string& key) {
  const auto it = snap.counters.find(key);
  return it == snap.counters.end() ? 0 : it->second;
}

std::uint64_t HistogramCountOrZero(const MetricsSnapshot& snap,
                                   const std::string& key) {
  const auto it = snap.histograms.find(key);
  return it == snap.histograms.end() ? 0 : it->second.count;
}

// Only hold times are sampled: every acquisition is counted, and every
// contended wait is timed, under real contention from four threads.
TEST(LockProfileTest, AcquisitionsAndContentionStayExact) {
  MetricsRegistry::Global().ResetAll();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  Mutex mu("test.sample.exact", 27);
  std::uint64_t shared = 0;  // guarded by mu
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(&mu);
        for (int spin = 0; spin < 50; ++spin) {
          shared = shared * 31 + static_cast<std::uint64_t>(spin);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterOrZero(snap, "lock.test.sample.exact.acquisitions"),
            std::uint64_t{kThreads * kPerThread});
  const std::uint64_t contention =
      CounterOrZero(snap, "lock.test.sample.exact.contention");
  EXPECT_GT(contention, 0u);
  EXPECT_EQ(HistogramCountOrZero(snap, "lock.test.sample.exact.wait_us"),
            contention);
}

// One hold in kHoldSampleEvery is timed with that weight, so the weighted
// count estimates the acquisitions: ~4096 timed holds put +-10% at about
// six standard deviations.
TEST(LockProfileTest, HoldCountIsAnUnbiasedEstimate) {
  MetricsRegistry::Global().ResetAll();
  constexpr std::uint64_t kAcquisitions = 64 * 1024;
  Mutex mu("test.sample.unbiased", 27);
  for (std::uint64_t i = 0; i < kAcquisitions; ++i) {
    MutexLock lock(&mu);
  }
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterOrZero(snap, "lock.test.sample.unbiased.acquisitions"),
            kAcquisitions);
  const double held = static_cast<double>(
      HistogramCountOrZero(snap, "lock.test.sample.unbiased.hold_us"));
  EXPECT_NEAR(held, static_cast<double>(kAcquisitions), 0.10 * kAcquisitions);
}

// Four locks taken in a fixed cycle, the shape of the bus's four
// acquisitions per call: a per-thread stride of 16 would time only one
// of them, while the random draw samples each.
TEST(LockProfileTest, InterleavedLocksAreEachSampled) {
  MetricsRegistry::Global().ResetAll();
  constexpr std::uint64_t kCycles = 16 * 1024;
  Mutex a("test.sample.cycle.a", 27);
  Mutex b("test.sample.cycle.b", 27);
  Mutex c("test.sample.cycle.c", 27);
  Mutex d("test.sample.cycle.d", 27);
  for (std::uint64_t i = 0; i < kCycles; ++i) {
    for (Mutex* mu : {&a, &b, &c, &d}) {
      MutexLock lock(mu);
    }
  }
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  for (const char* name : {"a", "b", "c", "d"}) {
    const std::string prefix = std::string("lock.test.sample.cycle.") + name;
    EXPECT_EQ(CounterOrZero(snap, prefix + ".acquisitions"), kCycles);
    const double held =
        static_cast<double>(HistogramCountOrZero(snap, prefix + ".hold_us"));
    EXPECT_NEAR(held, static_cast<double>(kCycles), 0.15 * kCycles) << name;
  }
}
#endif  // HERMES_LOCK_PROFILING

#ifdef HERMES_DEBUG_LOCK_ORDER

using LockOrderDeathTest = ::testing::Test;

TEST(LockOrderDeathTest, DeliberateInversionAbortsWithBothStacks) {
  lock_order::ResetGraphForTest();
  Mutex outer("test.death.outer", 13);
  Mutex inner("test.death.inner", 23);

  // Seed the acquired-before graph with the legal order outer -> inner.
  outer.Lock();
  inner.Lock();
  inner.Unlock();
  outer.Unlock();

  // The reverse order must abort, printing the acquiring thread's held
  // stack (inner) and the recorded stack of the first observation
  // (outer). Matched in two death assertions because the message spans
  // lines.
  EXPECT_DEATH(
      {
        inner.Lock();
        outer.Lock();
      },
      "inversion acquiring test\\.death\\.outer");
  EXPECT_DEATH(
      {
        inner.Lock();
        outer.Lock();
      },
      "this thread holds: test\\.death\\.inner\\(rank 23\\)");
  EXPECT_DEATH(
      {
        inner.Lock();
        outer.Lock();
      },
      "opposite order first seen holding: test\\.death\\.outer\\(rank 13\\)");
}

TEST(LockOrderDeathTest, RankOrderViolationAbortsWithHeldStack) {
  lock_order::ResetGraphForTest();
  Mutex low("test.rank.low", 14);
  Mutex high("test.rank.high", 24);
  EXPECT_DEATH(
      {
        high.Lock();
        low.Lock();
      },
      "rank-order violation acquiring test\\.rank\\.low \\(rank 14\\)");
}

TEST(LockOrderDeathTest, EqualRankPairAborts) {
  lock_order::ResetGraphForTest();
  Mutex a("test.equal.a", 16);
  Mutex b("test.equal.b", 16);
  EXPECT_DEATH(
      {
        a.Lock();
        b.Lock();
      },
      "rank-order violation acquiring test\\.equal\\.b");
}

TEST(LockOrderDeathTest, InversionRightAfterCondVarWaitAborts) {
  lock_order::ResetGraphForTest();
  Mutex low("test.cvdeath.low", 15);
  Mutex high("test.cvdeath.high", 25);
  CondVar cv;
  // The wait's return puts `high` back on the held stack, so taking a
  // lower rank right after it is still an inversion.
  EXPECT_DEATH(
      {
        high.Lock();
        while (cv.WaitUntil(&high, std::chrono::steady_clock::now() +
                                       milliseconds(1)) !=
               std::cv_status::timeout) {
        }
        low.Lock();
      },
      "rank-order violation acquiring test\\.cvdeath\\.low \\(rank 15\\)");
}

TEST(LockOrderDeathTest, SelfRelockAborts) {
  lock_order::ResetGraphForTest();
  Mutex mu("test.relock.mu", 17);
  EXPECT_DEATH(
      {
        mu.Lock();
        mu.Lock();
      },
      "self-relock \\(non-recursive mutex\\) acquiring test\\.relock\\.mu");
}

#else  // !HERMES_DEBUG_LOCK_ORDER

TEST(LockOrderDeathTest, SkippedWithoutValidator) {
  GTEST_SKIP() << "HERMES_DEBUG_LOCK_ORDER is off in this preset; the "
                  "asan-ubsan and tsan presets exercise the death tests";
}

#endif  // HERMES_DEBUG_LOCK_ORDER

// --- LockManager timeout paths under the validator -----------------------
// LockManager::mu_ is ranked (kRankLockManager); its CondVar::WaitUntil
// releases and reacquires the annotated mutex through the instrumented
// lock()/unlock() path, so every timeout and handoff below runs through
// the validator's push/pop. These run in every preset; under the
// sanitizer presets they double as validator soak tests.

TEST(LockOrderLockManagerTest, TimeoutPathBalancesHeldStack) {
  LockManager locks(milliseconds(30));
  ASSERT_OK(locks.AcquireExclusive(1, 0xA));
  Status s;
  std::thread blocked([&] {
    s = locks.AcquireExclusive(2, 0xA);
    EXPECT_EQ(lock_order::HeldCount(), 0u);  // wait churn must balance
  });
  blocked.join();
  EXPECT_TRUE(s.IsTimedOut());
  locks.Release(1, 0xA);
  EXPECT_EQ(lock_order::HeldCount(), 0u);
}

TEST(LockOrderLockManagerTest, TimeoutUnderOuterClusterRankLock) {
  // HermesCluster acquires record locks while holding the directory lock
  // (shared); the declared order cluster.dir (kRankCluster) ->
  // lock_manager (kRankLockManager) must hold through both the success
  // and the timeout path.
  lock_order::ResetGraphForTest();
  Mutex outer("test.cluster_like.mu", lock_order::kRankCluster);
  LockManager locks(milliseconds(25));
  ASSERT_OK(locks.AcquireExclusive(7, 42));

  outer.Lock();
  Status s = locks.AcquireExclusive(8, 42);  // waits under outer, times out
  EXPECT_TRUE(s.IsTimedOut());
  EXPECT_OK(locks.AcquireShared(7, 42));  // re-entrant success path
  outer.Unlock();
  EXPECT_EQ(lock_order::HeldCount(), 0u);
}

TEST(LockOrderLockManagerTest, HandoffBeforeTimeoutReacquiresCleanly) {
  LockManager locks(milliseconds(500));
  ASSERT_OK(locks.AcquireExclusive(1, 0xF));
  Status s;
  std::thread waiter([&] { s = locks.AcquireExclusive(2, 0xF); });
  std::this_thread::sleep_for(milliseconds(30));
  locks.Release(1, 0xF);
  waiter.join();
  EXPECT_OK(s);
  locks.Release(2, 0xF);
  EXPECT_EQ(locks.NumLockedKeys(), 0u);
  EXPECT_EQ(lock_order::HeldCount(), 0u);
}

}  // namespace
}  // namespace hermes
