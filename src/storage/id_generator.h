#ifndef HERMES_STORAGE_ID_GENERATOR_H_
#define HERMES_STORAGE_ID_GENERATOR_H_

#include <atomic>
#include <cstdint>

#include "common/types.h"

namespace hermes {

/// Monotonically increasing ID generator, namespaced by origin partition.
///
/// Neo4j relies on contiguous, monotonically increasing IDs so inserts
/// always append (Section 5.3.3: "insertions in the B+Tree always happen
/// in the last page"). Appends leave a record store's leaves exactly
/// sized, because a split's left half gives back its spare capacity. The
/// GraphStore's index of relationships by endpoint pair does not append:
/// its keys arrive in any order. In a sharded deployment each server must
/// mint globally unique IDs without coordination, so the top 16 bits
/// carry the origin partition and the low 48 bits a local monotonic
/// counter.
///
/// Thread-safe and lock-free: the local counter is a std::atomic, so
/// concurrent Next() calls on one generator never mint duplicate ids.
class IdGenerator {
 public:
  explicit IdGenerator(PartitionId origin, std::uint64_t start = 0)
      : origin_(static_cast<std::uint64_t>(origin) << kShift),
        next_(start) {}

  IdGenerator(const IdGenerator&) = delete;
  IdGenerator& operator=(const IdGenerator&) = delete;

  // Moving is only legal while no other thread uses either generator
  // (it happens during single-threaded store construction/teardown).
  IdGenerator(IdGenerator&& other) noexcept
      : origin_(other.origin_),
        next_(other.next_.load(std::memory_order_relaxed)) {}
  IdGenerator& operator=(IdGenerator&& other) noexcept {
    origin_ = other.origin_;
    next_.store(other.next_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  /// Next globally unique id; strictly increasing per generator.
  RecordId Next() {
    return origin_ | next_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Advances past `id` if it was minted elsewhere with our origin
  /// (used when ingesting migrated records).
  void ObserveExternal(RecordId id) {
    if (OriginOf(id) == origin()) {
      const std::uint64_t local = LocalOf(id);
      std::uint64_t cur = next_.load(std::memory_order_relaxed);
      while (local >= cur &&
             !next_.compare_exchange_weak(cur, local + 1,
                                          std::memory_order_relaxed)) {
      }
    }
  }

  PartitionId origin() const {
    return static_cast<PartitionId>(origin_ >> kShift);
  }

  static PartitionId OriginOf(RecordId id) {
    return static_cast<PartitionId>(id >> kShift);
  }
  static std::uint64_t LocalOf(RecordId id) { return id & kLocalMask; }

 private:
  static constexpr unsigned kShift = 48;
  static constexpr std::uint64_t kLocalMask = (1ULL << kShift) - 1;

  std::uint64_t origin_;  // constant after construction (moves aside)
  std::atomic<std::uint64_t> next_;
};

}  // namespace hermes

#endif  // HERMES_STORAGE_ID_GENERATOR_H_
