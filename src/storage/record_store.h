#ifndef HERMES_STORAGE_RECORD_STORE_H_
#define HERMES_STORAGE_RECORD_STORE_H_

#include <cstddef>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/bptree.h"

namespace hermes {

/// A store of fixed-size records keyed by RecordId through a B+Tree index.
/// One instance per record type per partition (node store, relationship
/// store, property store).
template <typename Record>
class RecordStore {
 public:
  /// Creates a record under `id`; fails if the id is taken.
  [[nodiscard]] Status Create(RecordId id, Record record) {
    if (!tree_.Insert(id, std::move(record))) {
      return Status::AlreadyExists("record id already in use");
    }
    return Status::OK();
  }

  /// Creates a record under an id greater than every id in the store,
  /// with no index search (BPlusTree::Append); fails otherwise.
  [[nodiscard]] Status Append(RecordId id, Record record) {
    if (!tree_.Append(id, std::move(record))) {
      return Status::InvalidArgument("record id not above every stored id");
    }
    return Status::OK();
  }

  /// Copy of the record.
  [[nodiscard]] Result<Record> Get(RecordId id) const {
    const Record* r = tree_.Find(id);
    if (r == nullptr) return Status::NotFound("no such record");
    return *r;
  }

  /// In-place access; nullptr when absent.
  Record* GetMutable(RecordId id) { return tree_.FindMutable(id); }
  const Record* GetPtr(RecordId id) const { return tree_.Find(id); }

  bool Exists(RecordId id) const { return tree_.Contains(id); }

  [[nodiscard]] Status Delete(RecordId id) {
    if (!tree_.Erase(id)) return Status::NotFound("no such record");
    return Status::OK();
  }

  std::size_t size() const { return tree_.size(); }

  /// Heap bytes of the records and their index.
  std::size_t MemoryBytes() const { return tree_.AllocatedBytes(); }

  /// Iterates records in id order; `fn(id, record)` returning false stops.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (auto it = tree_.begin(); it != tree_.end(); ++it) {
      if (!fn(it.key(), it.value())) break;
    }
  }

 private:
  BPlusTree<RecordId, Record, 64> tree_;
};

}  // namespace hermes

#endif  // HERMES_STORAGE_RECORD_STORE_H_
