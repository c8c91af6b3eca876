#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/crc32.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace hermes {
namespace {

// --- CRC-32 -------------------------------------------------------------

/// One bit at a time, straight from the definition: the reference the
/// slice-by-8 tables must reproduce.
std::uint32_t BitwiseCrc(std::uint32_t poly, const unsigned char* p,
                         std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (poly & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownVectors) {
  // The catalogued check values over "123456789"; CRC-32C's is the
  // RFC 3720 test vector.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32Test, SliceBy8MatchesBitwiseReference) {
  // Every length 0-64 from every start offset 0-7: no, one or several
  // 8-byte steps, every byte tail, and unaligned loads.
  Rng rng(3);
  std::vector<unsigned char> buf(64 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Uniform(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + offset;
      EXPECT_EQ(Crc32(p, len), BitwiseCrc(0xEDB88320u, p, len))
          << "offset " << offset << " length " << len;
      EXPECT_EQ(Crc32c(p, len), BitwiseCrc(0x82F63B78u, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// --- Status -------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_OK(st);
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing record 42");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing record 42");
  EXPECT_EQ(st.ToString(), "NotFound: missing record 42");
}

TEST(StatusTest, AllFactoryFunctionsSetMatchingCode) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::Aborted("abc");
  Status b = a;  // shared state
  EXPECT_TRUE(b.IsAborted());
  EXPECT_EQ(b.message(), "abc");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    HERMES_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

// --- Result -------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_OK(r);
  EXPECT_EQ(*r, 7);
  EXPECT_OK(r.status());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = []() -> Result<int> { return 5; };
  auto fail = []() -> Result<int> { return Status::Aborted("x"); };
  auto chain = [&](bool ok_path) -> Result<int> {
    HERMES_ASSIGN_OR_RETURN(int v, ok_path ? produce() : fail());
    return v * 2;
  };
  EXPECT_EQ(*chain(true), 10);
  EXPECT_TRUE(chain(false).status().IsAborted());
}

// --- Rng ----------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleIsInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, PowerLawRespectsMinimum) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.PowerLaw(2.5, 3.0), 3.0);
  }
}

TEST(RngTest, PowerLawMeanMatchesTheory) {
  // For exponent a > 2, mean = x_min * (a-1)/(a-2).
  Rng rng(19);
  double sum = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) sum += rng.PowerLaw(3.0, 1.0);
  EXPECT_NEAR(sum / trials, 2.0, 0.1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleFromCumulativeRespectsWeights) {
  Rng rng(29);
  // Weights 1, 3 -> second picked ~75%.
  std::vector<double> cum{1.0, 4.0};
  int second = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (SampleFromCumulative(cum, &rng) == 1) ++second;
  }
  EXPECT_NEAR(static_cast<double>(second) / trials, 0.75, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// --- Histogram ------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(HistogramTest, TracksMinMaxMean) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

// A value recorded with weight w counts as w samples; min and max still
// see it once. The lock profiler records each timed hold this way.
TEST(HistogramTest, WeightedRecordScalesCountAndSum) {
  Histogram h;
  h.Record(10, 16);
  h.Record(2);
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 17u);
  EXPECT_DOUBLE_EQ(s.sum, 162.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.p50, 10.0);
}

TEST(HistogramTest, QuantileIsMonotone) {
  Histogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.Record(i);
  const Histogram::Summary s = h.Summarize();
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

// A latency-like shape: 990 fast samples and 10 slow outliers. The
// outliers move max, not the median.
TEST(HistogramTest, QuantileApproximatesMedian) {
  Histogram h;
  for (int i = 0; i < 990; ++i) h.Record(100);
  for (int i = 0; i < 10; ++i) h.Record(50'000);
  const Histogram::Summary s = h.Summarize();
  EXPECT_GE(s.p50, 100.0);
  EXPECT_LT(s.p50, 125.0);
  EXPECT_DOUBLE_EQ(s.max, 50'000.0);
}

// p50 and p99 of 1..10000 land in the sub-bucket holding the exact
// value: at most one sub-bucket width above it, never below.
TEST(HistogramTest, QuantilesWithinOneSubBucket) {
  Histogram h;
  for (std::uint64_t i = 1; i <= 10000; ++i) h.Record(i);
  const Histogram::Summary s = h.Summarize();
  for (const auto& [estimate, exact] :
       {std::pair{s.p50, std::uint64_t{5000}},
        std::pair{s.p99, std::uint64_t{9900}}}) {
    const std::size_t b = Histogram::BucketOf(exact);
    const std::uint64_t width =
        Histogram::BucketUpperBound(b) - Histogram::BucketUpperBound(b - 1);
    EXPECT_GE(estimate, static_cast<double>(exact));
    EXPECT_LE(estimate, static_cast<double>(exact + width));
  }
}

// Buckets tile the u64 range without gaps, each no wider than a quarter
// of its lower bound, so adjacent bounds are far closer than the 1.78x of
// quarter-decade buckets.
TEST(HistogramTest, BucketsTileTheRangeFinely) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  for (std::size_t b = 1; b < Histogram::kNumBuckets; ++b) {
    const std::uint64_t lower = Histogram::BucketUpperBound(b - 1) + 1;
    const std::uint64_t upper = Histogram::BucketUpperBound(b);
    ASSERT_LE(lower, upper) << "bucket " << b;
    EXPECT_EQ(Histogram::BucketOf(lower), b);
    EXPECT_EQ(Histogram::BucketOf(upper), b);
    EXPECT_LE((upper - lower) * 4, lower) << "bucket " << b;
    if (b >= 3) {
      EXPECT_LE(static_cast<double>(upper),
                1.78 * static_cast<double>(lower - 1))
          << "bucket " << b;
    }
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            ~std::uint64_t{0});
}

TEST(HistogramTest, ConcurrentRecordsAreExact) {
  Histogram h;
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 1; i <= kPerThread; ++i) {
        h.Record(i * kThreads + t);
      }
    });
  }
  for (auto& w : workers) w.join();
  // Thread t records i * 4 + t for i in 1..20000: together every value
  // in [4, 80003] exactly once.
  const std::uint64_t lo = kThreads;
  const std::uint64_t hi = kPerThread * kThreads + kThreads - 1;
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>((lo + hi) * (hi - lo + 1) / 2));
  EXPECT_DOUBLE_EQ(s.min, static_cast<double>(lo));
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(hi));
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.Summarize().count, 0u);
  h.Record(7);
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(HistogramTest, RegisteredPointerSurvivesResetAll) {
  auto& registry = MetricsRegistry::Global();
  Histogram* h = registry.GetHistogram("common_test.hist");
  EXPECT_EQ(h, registry.GetHistogram("common_test.hist"));
  h->Record(40);
  registry.ResetAll();
  EXPECT_EQ(registry.Snapshot().histograms.count("common_test.hist"), 0u);
  h->Record(2);
  const auto snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.count("common_test.hist"), 1u);
  EXPECT_EQ(snap.histograms.at("common_test.hist").count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("common_test.hist").max, 2.0);
}

TEST(HistogramTest, ScopedTimerRecordsOnEveryExit) {
  Histogram h;
  auto timed = [&h](bool early) {
    ScopedTimer timer(&h);
    if (early) return 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return 2;
  };
  EXPECT_EQ(timed(true), 1);
  EXPECT_EQ(timed(false), 2);
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 2u);
  EXPECT_GE(s.max, 2000.0);
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace hermes
