#ifndef HERMES_STORAGE_DYNAMIC_STORE_H_
#define HERMES_STORAGE_DYNAMIC_STORE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/bptree.h"

namespace hermes {

/// Variable-length payload store built from chained fixed-size blocks —
/// Neo4j's "dynamic store" half of the two-layer property architecture
/// (Section 4): property records hold a fixed-size pointer into this
/// store; the payload spans as many 24-byte blocks as needed.
class DynamicStore {
 public:
  static constexpr std::size_t kBlockPayload = 24;

  /// Stores `payload`, returning the head block id of the chain.
  RecordId Put(const std::string& payload);

  /// Reassembles the payload starting at `head`.
  [[nodiscard]] Result<std::string> Get(RecordId head) const;

  /// Frees the whole chain starting at `head`.
  [[nodiscard]] Status Free(RecordId head);

  std::size_t num_blocks() const { return blocks_.size(); }
  std::size_t MemoryBytes() const { return blocks_.AllocatedBytes(); }

 private:
  struct Block {
    RecordId next = kInvalidRecord;
    std::uint8_t length = 0;  // bytes used in this block
    std::array<char, kBlockPayload> data{};
  };

  BPlusTree<RecordId, Block, 64> blocks_;
  RecordId next_id_ = 0;
};

}  // namespace hermes

#endif  // HERMES_STORAGE_DYNAMIC_STORE_H_
