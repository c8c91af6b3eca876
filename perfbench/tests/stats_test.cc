// Tests for the benchmark's exact-percentile, median, per-op and
// interleaving helpers.

#include <gtest/gtest.h>

#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(NearestRankTest, MatchesTheDefinition) {
  EXPECT_EQ(NearestRank(0, 50), 0u);
  EXPECT_EQ(NearestRank(1, 50), 1u);
  EXPECT_EQ(NearestRank(10, 50), 5u);
  EXPECT_EQ(NearestRank(11, 50), 6u);
  // 0.99 * 1000 is not exactly 990 in binary floating point.
  EXPECT_EQ(NearestRank(1000, 99), 990u);
  EXPECT_EQ(NearestRank(1001, 99), 991u);
  EXPECT_EQ(NearestRank(100, 100), 100u);
}

TEST(PercentileTest, NearestRankOverUnsortedSamples) {
  EXPECT_EQ(Percentile({}, 50), 0.0);
  EXPECT_EQ(Percentile({7.0}, 99), 7.0);
  EXPECT_EQ(Percentile(OneTo(10), 50), 5.0);
  EXPECT_EQ(Percentile(OneTo(1000), 99), 990.0);
  EXPECT_EQ(Percentile(OneTo(1000), 100), 1000.0);
}

TEST(PercentileTest, SamplesBeyondCountsTheTail) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(SamplesBeyond(500, 99), 5u);
  EXPECT_EQ(SamplesBeyond(0, 99), 0u);
}

TEST(MedianTest, MatchesPythonStatisticsMedian) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(ShareTest, SpreadsEvenlyAndSumsToTotal) {
  for (std::size_t n : {1u, 2u, 7u, 48u}) {
    for (std::size_t total : {0u, 1u, 5u, 48u, 1000u}) {
      std::size_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t part = Share(i, n, total);
        EXPECT_GE(part, total / n);
        EXPECT_LE(part, (total + n - 1) / n);
        sum += part;
      }
      EXPECT_EQ(sum, total) << "n=" << n;
    }
  }
}

TEST(PerOpTest, ZeroOpsReadAsZero) {
  EXPECT_EQ(PerOp(10.0, 4.0), 2.5);
  EXPECT_EQ(PerOp(10.0, 0.0), 0.0);
}

TEST(TracerTest, SelfTimeExcludesChildren) {
  Tracer tracer(true);
  {
    Tracer::Span root = tracer.Root("op", 7);
    Tracer::Span child = tracer.Child(root, "call");
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0u);
  EXPECT_EQ(tracer.spans()[1].request_id, 7u);
  const auto totals = tracer.TotalsByName();
  const double child_us = totals.at("call").total_us;
  EXPECT_NEAR(totals.at("op").self_us, totals.at("op").total_us - child_us,
              1e-9);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    Tracer::Span root = tracer.Root("op", 1);
    Tracer::Span child = tracer.Child(root, "call");
  }
  EXPECT_TRUE(tracer.spans().empty());
}

}  // namespace
}  // namespace perfbench
