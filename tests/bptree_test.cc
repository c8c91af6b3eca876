#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/bptree.h"

namespace hermes {
namespace {

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree<std::uint64_t, int> tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Find(1), nullptr);
  EXPECT_FALSE(tree.Erase(1));
  EXPECT_EQ(tree.begin(), tree.end());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, InsertAndFind) {
  BPlusTree<std::uint64_t, std::string> tree;
  EXPECT_TRUE(tree.Insert(5, "five"));
  EXPECT_TRUE(tree.Insert(3, "three"));
  EXPECT_TRUE(tree.Insert(8, "eight"));
  EXPECT_EQ(tree.size(), 3u);
  ASSERT_NE(tree.Find(5), nullptr);
  EXPECT_EQ(*tree.Find(5), "five");
  EXPECT_EQ(tree.Find(4), nullptr);
}

TEST(BPlusTreeTest, DuplicateInsertRejected) {
  BPlusTree<std::uint64_t, int> tree;
  EXPECT_TRUE(tree.Insert(1, 10));
  EXPECT_FALSE(tree.Insert(1, 20));
  EXPECT_EQ(*tree.Find(1), 10);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTreeTest, UpsertOverwrites) {
  BPlusTree<std::uint64_t, int> tree;
  EXPECT_TRUE(tree.Upsert(1, 10));
  EXPECT_FALSE(tree.Upsert(1, 20));
  EXPECT_EQ(*tree.Find(1), 20);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTreeTest, FindMutableAllowsInPlaceUpdate) {
  BPlusTree<std::uint64_t, int> tree;
  tree.Insert(7, 1);
  *tree.FindMutable(7) = 99;
  EXPECT_EQ(*tree.Find(7), 99);
}

TEST(BPlusTreeTest, SequentialInsertTriggersSplits) {
  BPlusTree<std::uint64_t, std::uint64_t, 8> tree;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(i, i * 2));
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.Height(), 2u);
  EXPECT_TRUE(tree.CheckInvariants());
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(tree.Find(i), nullptr);
    EXPECT_EQ(*tree.Find(i), i * 2);
  }
}

TEST(BPlusTreeTest, ReverseInsert) {
  BPlusTree<std::uint64_t, int, 8> tree;
  for (std::uint64_t i = 500; i-- > 0;) {
    ASSERT_TRUE(tree.Insert(i, static_cast<int>(i)));
  }
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), 500u);
}

TEST(BPlusTreeTest, IterationIsOrdered) {
  BPlusTree<std::uint64_t, int, 8> tree;
  Rng rng(5);
  std::map<std::uint64_t, int> reference;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t k = rng.Uniform(10000);
    if (reference.emplace(k, i).second) {
      ASSERT_TRUE(tree.Insert(k, i));
    }
  }
  auto it = tree.begin();
  for (const auto& [k, v] : reference) {
    ASSERT_NE(it, tree.end());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), v);
    ++it;
  }
  EXPECT_EQ(it, tree.end());
}

TEST(BPlusTreeTest, LowerBoundIterator) {
  BPlusTree<std::uint64_t, int, 8> tree;
  for (std::uint64_t i = 0; i < 100; i += 10) {
    tree.Insert(i, static_cast<int>(i));
  }
  auto it = tree.LowerBoundIter(35);
  ASSERT_NE(it, tree.end());
  EXPECT_EQ(it.key(), 40u);
  it = tree.LowerBoundIter(40);
  EXPECT_EQ(it.key(), 40u);
  it = tree.LowerBoundIter(95);
  EXPECT_EQ(it, tree.end());
  it = tree.LowerBoundIter(0);
  EXPECT_EQ(it.key(), 0u);
}

TEST(BPlusTreeTest, EraseLeavesTreeValid) {
  BPlusTree<std::uint64_t, int, 8> tree;
  for (std::uint64_t i = 0; i < 300; ++i) tree.Insert(i, 1);
  for (std::uint64_t i = 0; i < 300; i += 2) {
    ASSERT_TRUE(tree.Erase(i));
  }
  EXPECT_EQ(tree.size(), 150u);
  EXPECT_TRUE(tree.CheckInvariants());
  for (std::uint64_t i = 0; i < 300; ++i) {
    EXPECT_EQ(tree.Find(i) != nullptr, i % 2 == 1);
  }
}

TEST(BPlusTreeTest, EraseToEmptyAndReuse) {
  BPlusTree<std::uint64_t, int, 4> tree;
  for (std::uint64_t i = 0; i < 100; ++i) tree.Insert(i, 1);
  for (std::uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(tree.Erase(i));
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_TRUE(tree.Insert(42, 7));
  EXPECT_EQ(*tree.Find(42), 7);
}

TEST(BPlusTreeTest, EraseMissingKeyIsNoop) {
  BPlusTree<std::uint64_t, int, 4> tree;
  tree.Insert(1, 1);
  EXPECT_FALSE(tree.Erase(2));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
}

// Property-style sweep: random interleaved inserts/erases/upserts checked
// against std::map across orders and sizes.
class BPlusTreeFuzzTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BPlusTreeFuzzTest, MatchesStdMap) {
  const auto [num_ops, seed] = GetParam();
  BPlusTree<std::uint64_t, std::uint64_t, 8> tree;
  std::map<std::uint64_t, std::uint64_t> reference;
  Rng rng(seed);
  const std::uint64_t key_space = 400;

  for (int op = 0; op < num_ops; ++op) {
    const std::uint64_t k = rng.Uniform(key_space);
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {  // insert
        const bool inserted = tree.Insert(k, k + 1);
        const bool expected = reference.emplace(k, k + 1).second;
        ASSERT_EQ(inserted, expected);
        break;
      }
      case 2: {  // erase
        const bool erased = tree.Erase(k);
        ASSERT_EQ(erased, reference.erase(k) == 1);
        break;
      }
      case 3: {  // upsert
        const std::uint64_t value = rng.Uniform(1000);
        tree.Upsert(k, value);
        reference[k] = value;
        break;
      }
    }
    ASSERT_EQ(tree.size(), reference.size());
  }

  ASSERT_TRUE(tree.CheckInvariants());
  // Full content equality via ordered iteration.
  auto it = tree.begin();
  for (const auto& [k, v] : reference) {
    ASSERT_NE(it, tree.end());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), v);
    ++it;
  }
  EXPECT_EQ(it, tree.end());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BPlusTreeFuzzTest,
    ::testing::Combine(::testing::Values(200, 1000, 5000),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST(BPlusTreeTest, MonotonicAppendKeepsRightmostPath) {
  // The Hermes write path: monotonically increasing IDs append on the
  // right spine; verify height grows logarithmically (not linearly).
  BPlusTree<std::uint64_t, int, 16> tree;
  for (std::uint64_t i = 0; i < 10000; ++i) tree.Insert(i, 0);
  EXPECT_LE(tree.Height(), 6u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, SequentialAppendsFillTheirLeaves) {
  // Ids arrive in increasing order (Section 5.3.3), so the left half of
  // every split never grows again. It must give back the capacity its
  // right half took, or each full leaf holds 32 entries in room for 66.
  struct Payload {
    std::array<char, 64> bytes{};
  };
  constexpr std::uint64_t kEntries = 10000;
  BPlusTree<std::uint64_t, Payload, 64> tree;
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(tree.Insert(i, Payload{}));
  }
  const double payload =
      static_cast<double>(kEntries * (sizeof(std::uint64_t) + sizeof(Payload)));
  const auto allocated = static_cast<double>(tree.AllocatedBytes());
  EXPECT_GE(allocated, payload);
  EXPECT_LE(allocated, 1.15 * payload);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, MoveConstruction) {
  BPlusTree<std::uint64_t, int> a;
  a.Insert(1, 10);
  a.Insert(2, 20);
  BPlusTree<std::uint64_t, int> b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(*b.Find(2), 20);
}

}  // namespace
}  // namespace hermes
