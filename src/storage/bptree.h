#ifndef HERMES_STORAGE_BPTREE_H_
#define HERMES_STORAGE_BPTREE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace hermes {

/// In-memory B+Tree with linked leaves.
///
/// Hermes replaced Neo4j's offset-based record indexing with a tree-based
/// (B+Tree) scheme because after sharding and migration record IDs are no
/// longer densely allocated (Section 4). Every record store is keyed by
/// this tree, and so is each GraphStore's index of relationships by
/// endpoint pair.
///
/// `Order` is the maximum number of keys per node; nodes split above it and
/// borrow/merge below Order/2. Leaves form a doubly-linked list for range
/// scans; sequential insertion of monotonically increasing IDs therefore
/// always lands in the rightmost leaf (the property the paper leans on for
/// cheap writes in Section 5.3.3).
template <typename Key, typename Value, std::size_t Order = 64>
class BPlusTree {
  static_assert(Order >= 4, "Order must be at least 4");

  struct Node;  // defined below; Iterator needs the name early

 public:
  BPlusTree() : root_(std::make_unique<Node>(/*leaf=*/true)) {
    first_leaf_ = root_.get();
  }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) = default;
  BPlusTree& operator=(BPlusTree&&) = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts; returns false (and leaves the tree unchanged) if the key
  /// already exists.
  bool Insert(const Key& key, Value value) {
    return InsertImpl(key, std::move(value), /*overwrite=*/false);
  }

  /// Inserts or overwrites; returns true when a new key was created.
  bool Upsert(const Key& key, Value value) {
    return InsertImpl(key, std::move(value), /*overwrite=*/true);
  }

  /// Inserts a key greater than every key in the tree, as a restore from
  /// a sorted dump does: it walks the rightmost children to the last
  /// leaf with no key search, and only a full leaf takes Insert's path to
  /// split. Leaves fill exactly as under Insert. Returns false, leaving
  /// the tree unchanged, when `key` is not greater than every key.
  bool Append(const Key& key, Value value) {
    Node* leaf = root_.get();
    while (!leaf->leaf) leaf = leaf->children.back().get();
    if (!leaf->keys.empty() && !(leaf->keys.back() < key)) return false;
    if (leaf->keys.size() == kMaxKeys) return Insert(key, std::move(value));
    leaf->keys.push_back(key);
    leaf->values.push_back(std::move(value));
    ++size_;
    return true;
  }

  const Value* Find(const Key& key) const {
    const Node* leaf = DescendToLeaf(key);
    const std::size_t i = LowerBound(leaf->keys, key);
    if (i < leaf->keys.size() && leaf->keys[i] == key) {
      return &leaf->values[i];
    }
    return nullptr;
  }

  Value* FindMutable(const Key& key) {
    return const_cast<Value*>(std::as_const(*this).Find(key));
  }

  bool Contains(const Key& key) const { return Find(key) != nullptr; }

  /// Removes a key; returns false if absent.
  bool Erase(const Key& key) {
    if (!EraseImpl(root_.get(), key)) return false;
    --size_;
    // Shrink the root when an internal root has a single child left.
    while (!root_->leaf && root_->keys.empty()) {
      root_ = std::move(root_->children.front());
    }
    return true;
  }

  /// Forward iterator over (key, value) in key order.
  class Iterator {
   public:
    Iterator() = default;
    Iterator(const BPlusTree* tree, const Node* leaf, std::size_t index)
        : tree_(tree), leaf_(leaf), index_(index) {
      Normalize();
    }

    bool operator==(const Iterator& o) const {
      return leaf_ == o.leaf_ && index_ == o.index_;
    }
    bool operator!=(const Iterator& o) const { return !(*this == o); }

    const Key& key() const { return leaf_->keys[index_]; }
    const Value& value() const { return leaf_->values[index_]; }

    std::pair<const Key&, const Value&> operator*() const {
      return {leaf_->keys[index_], leaf_->values[index_]};
    }

    Iterator& operator++() {
      ++index_;
      Normalize();
      return *this;
    }

   private:
    void Normalize() {
      while (leaf_ != nullptr && index_ >= leaf_->keys.size()) {
        leaf_ = leaf_->next;
        index_ = 0;
      }
      if (leaf_ == nullptr) index_ = 0;
    }

    const BPlusTree* tree_ = nullptr;
    const Node* leaf_ = nullptr;
    std::size_t index_ = 0;
  };

  Iterator begin() const { return Iterator(this, first_leaf_, 0); }
  Iterator end() const { return Iterator(this, nullptr, 0); }

  /// First element with key >= `key`.
  Iterator LowerBoundIter(const Key& key) const {
    const Node* leaf = DescendToLeaf(key);
    return Iterator(this, leaf, LowerBound(leaf->keys, key));
  }

  std::size_t Height() const {
    std::size_t h = 1;
    const Node* node = root_.get();
    while (!node->leaf) {
      ++h;
      node = node->children.front().get();
    }
    return h;
  }

  /// Heap bytes the tree holds: every node plus the capacity, not just the
  /// size, of its key, value and child vectors.
  std::size_t AllocatedBytes() const { return SubtreeBytes(root_.get()); }

  /// Validates all structural invariants; used by the test suite.
  bool CheckInvariants() const {
    std::size_t leaf_depth = 0;
    std::size_t counted = 0;
    if (!CheckNode(root_.get(), 1, &leaf_depth, &counted, nullptr, nullptr)) {
      return false;
    }
    return counted == size_;
  }

 private:
  struct Node {  // NOLINT: definition of the forward declaration above
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    bool leaf;
    std::vector<Key> keys;
    std::vector<Value> values;                    // leaves only
    std::vector<std::unique_ptr<Node>> children;  // internal only
    Node* next = nullptr;  // leaf chain
    Node* prev = nullptr;
  };

  static constexpr std::size_t kMaxKeys = Order;
  static constexpr std::size_t kMinKeys = Order / 2;

  static std::size_t LowerBound(const std::vector<Key>& keys,
                                const Key& key) {
    return static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
  }

  // Child index to descend into for `key`.
  static std::size_t ChildIndex(const Node* node, const Key& key) {
    return static_cast<std::size_t>(
        std::upper_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
  }

  const Node* DescendToLeaf(const Key& key) const {
    const Node* node = root_.get();
    while (!node->leaf) {
      node = node->children[ChildIndex(node, key)].get();
    }
    return node;
  }

  bool InsertImpl(const Key& key, Value value, bool overwrite) {
    bool inserted = false;
    auto split = InsertRecursive(root_.get(), key, std::move(value),
                                 overwrite, &inserted);
    if (split.first != nullptr) {
      auto new_root = std::make_unique<Node>(/*leaf=*/false);
      new_root->keys.push_back(split.second);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(split.first));
      root_ = std::move(new_root);
    }
    if (inserted) ++size_;
    return inserted;
  }

  // Returns (new right sibling, separator key) when `node` split.
  std::pair<std::unique_ptr<Node>, Key> InsertRecursive(Node* node,
                                                        const Key& key,
                                                        Value value,
                                                        bool overwrite,
                                                        bool* inserted) {
    if (node->leaf) {
      const std::size_t i = LowerBound(node->keys, key);
      if (i < node->keys.size() && node->keys[i] == key) {
        if (overwrite) node->values[i] = std::move(value);
        *inserted = false;
        return {nullptr, Key{}};
      }
      node->keys.insert(node->keys.begin() + i, key);
      node->values.insert(node->values.begin() + i, std::move(value));
      *inserted = true;
      if (node->keys.size() <= kMaxKeys) return {nullptr, Key{}};
      return SplitLeaf(node);
    }

    const std::size_t ci = ChildIndex(node, key);
    auto split = InsertRecursive(node->children[ci].get(), key,
                                 std::move(value), overwrite, inserted);
    if (split.first != nullptr) {
      node->keys.insert(node->keys.begin() + ci, split.second);
      node->children.insert(node->children.begin() + ci + 1,
                            std::move(split.first));
      if (node->keys.size() > kMaxKeys) return SplitInternal(node);
    }
    return {nullptr, Key{}};
  }

  std::pair<std::unique_ptr<Node>, Key> SplitLeaf(Node* node) {
    auto right = std::make_unique<Node>(/*leaf=*/true);
    const std::size_t mid = node->keys.size() / 2;
    right->keys.assign(node->keys.begin() + mid, node->keys.end());
    right->values.assign(std::make_move_iterator(node->values.begin() + mid),
                         std::make_move_iterator(node->values.end()));
    node->keys.resize(mid);
    node->values.resize(mid);
    // The left half keeps its node: give back the capacity the right half
    // took, or an append-only tree leaves every leaf half empty.
    node->keys.shrink_to_fit();
    node->values.shrink_to_fit();
    right->next = node->next;
    right->prev = node;
    if (right->next != nullptr) right->next->prev = right.get();
    node->next = right.get();
    return {std::move(right), right->keys.front()};
  }

  std::pair<std::unique_ptr<Node>, Key> SplitInternal(Node* node) {
    auto right = std::make_unique<Node>(/*leaf=*/false);
    const std::size_t mid = node->keys.size() / 2;
    const Key separator = node->keys[mid];
    right->keys.assign(node->keys.begin() + mid + 1, node->keys.end());
    right->children.assign(
        std::make_move_iterator(node->children.begin() + mid + 1),
        std::make_move_iterator(node->children.end()));
    node->keys.resize(mid);
    node->children.resize(mid + 1);
    node->keys.shrink_to_fit();
    node->children.shrink_to_fit();
    return {std::move(right), separator};
  }

  // Removes `key` under `node`; returns true when removed. Rebalances
  // children on the way out (so `node` itself may be left underfull for
  // its own parent to fix).
  bool EraseImpl(Node* node, const Key& key) {
    if (node->leaf) {
      const std::size_t i = LowerBound(node->keys, key);
      if (i >= node->keys.size() || node->keys[i] != key) return false;
      node->keys.erase(node->keys.begin() + i);
      node->values.erase(node->values.begin() + i);
      return true;
    }
    const std::size_t ci = ChildIndex(node, key);
    Node* child = node->children[ci].get();
    if (!EraseImpl(child, key)) return false;
    if (child->keys.size() < kMinKeys) Rebalance(node, ci);
    return true;
  }

  void Rebalance(Node* parent, std::size_t ci) {
    Node* child = parent->children[ci].get();
    Node* left = ci > 0 ? parent->children[ci - 1].get() : nullptr;
    Node* right = ci + 1 < parent->children.size()
                      ? parent->children[ci + 1].get()
                      : nullptr;

    if (left != nullptr && left->keys.size() > kMinKeys) {
      BorrowFromLeft(parent, ci, left, child);
    } else if (right != nullptr && right->keys.size() > kMinKeys) {
      BorrowFromRight(parent, ci, child, right);
    } else if (left != nullptr) {
      MergeChildren(parent, ci - 1);
    } else if (right != nullptr) {
      MergeChildren(parent, ci);
    }
  }

  void BorrowFromLeft(Node* parent, std::size_t ci, Node* left,
                      Node* child) {
    if (child->leaf) {
      child->keys.insert(child->keys.begin(), left->keys.back());
      child->values.insert(child->values.begin(),
                           std::move(left->values.back()));
      left->keys.pop_back();
      left->values.pop_back();
      parent->keys[ci - 1] = child->keys.front();
    } else {
      child->keys.insert(child->keys.begin(), parent->keys[ci - 1]);
      parent->keys[ci - 1] = left->keys.back();
      left->keys.pop_back();
      child->children.insert(child->children.begin(),
                             std::move(left->children.back()));
      left->children.pop_back();
    }
  }

  void BorrowFromRight(Node* parent, std::size_t ci, Node* child,
                       Node* right) {
    if (child->leaf) {
      child->keys.push_back(right->keys.front());
      child->values.push_back(std::move(right->values.front()));
      right->keys.erase(right->keys.begin());
      right->values.erase(right->values.begin());
      parent->keys[ci] = right->keys.front();
    } else {
      child->keys.push_back(parent->keys[ci]);
      parent->keys[ci] = right->keys.front();
      right->keys.erase(right->keys.begin());
      child->children.push_back(std::move(right->children.front()));
      right->children.erase(right->children.begin());
    }
  }

  // Merges children[i+1] into children[i] and drops separator keys[i].
  void MergeChildren(Node* parent, std::size_t i) {
    Node* left = parent->children[i].get();
    Node* right = parent->children[i + 1].get();
    if (left->leaf) {
      left->keys.insert(left->keys.end(), right->keys.begin(),
                        right->keys.end());
      left->values.insert(left->values.end(),
                          std::make_move_iterator(right->values.begin()),
                          std::make_move_iterator(right->values.end()));
      left->next = right->next;
      if (right->next != nullptr) right->next->prev = left;
    } else {
      left->keys.push_back(parent->keys[i]);
      left->keys.insert(left->keys.end(), right->keys.begin(),
                        right->keys.end());
      left->children.insert(
          left->children.end(),
          std::make_move_iterator(right->children.begin()),
          std::make_move_iterator(right->children.end()));
    }
    parent->keys.erase(parent->keys.begin() + i);
    parent->children.erase(parent->children.begin() + i + 1);
  }

  static std::size_t SubtreeBytes(const Node* node) {
    std::size_t bytes =
        sizeof(Node) + node->keys.capacity() * sizeof(Key) +
        node->values.capacity() * sizeof(Value) +
        node->children.capacity() * sizeof(std::unique_ptr<Node>);
    for (const auto& child : node->children) bytes += SubtreeBytes(child.get());
    return bytes;
  }

  bool CheckNode(const Node* node, std::size_t depth,
                 std::size_t* leaf_depth, std::size_t* counted,
                 const Key* lower, const Key* upper) const {
    const bool is_root = (node == root_.get());
    if (!std::is_sorted(node->keys.begin(), node->keys.end())) return false;
    for (const Key& k : node->keys) {
      if (lower != nullptr && k < *lower) return false;
      if (upper != nullptr && !(k < *upper)) return false;
    }
    if (node->leaf) {
      if (node->keys.size() != node->values.size()) return false;
      if (!is_root && node->keys.size() < kMinKeys) return false;
      if (node->keys.size() > kMaxKeys) return false;
      if (*leaf_depth == 0) *leaf_depth = depth;
      if (*leaf_depth != depth) return false;
      *counted += node->keys.size();
      return true;
    }
    if (node->children.size() != node->keys.size() + 1) return false;
    if (!is_root && node->keys.size() < kMinKeys) return false;
    if (node->keys.size() > kMaxKeys) return false;
    for (std::size_t i = 0; i < node->children.size(); ++i) {
      const Key* lo = (i == 0) ? lower : &node->keys[i - 1];
      const Key* hi = (i == node->keys.size()) ? upper : &node->keys[i];
      if (!CheckNode(node->children[i].get(), depth + 1, leaf_depth, counted,
                     lo, hi)) {
        return false;
      }
    }
    return true;
  }

  std::unique_ptr<Node> root_;
  Node* first_leaf_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace hermes

#endif  // HERMES_STORAGE_BPTREE_H_
