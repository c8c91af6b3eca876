#include "txn/lock_manager.h"

namespace hermes {

Status LockManager::AcquireShared(TxnId txn, LockKey key) {
  MutexLock lock(&mu_);
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  for (;;) {
    LockState& state = table_[key];
    if (!state.has_exclusive || state.exclusive == txn) {
      state.shared.insert(txn);
      m_shared_->Increment();
      return Status::OK();
    }
    if (released_.WaitUntil(&mu_, deadline) == std::cv_status::timeout) {
      m_timeouts_->Increment();
      return Status::TimedOut("shared lock wait timed out (possible deadlock)");
    }
  }
}

Status LockManager::AcquireExclusive(TxnId txn, LockKey key) {
  MutexLock lock(&mu_);
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  for (;;) {
    LockState& state = table_[key];
    if (state.has_exclusive && state.exclusive == txn) {
      return Status::OK();  // re-entrant
    }
    const bool only_reader_is_us =
        state.shared.empty() ||
        (state.shared.size() == 1 && state.shared.count(txn) == 1);
    if (!state.has_exclusive && only_reader_is_us) {
      state.has_exclusive = true;
      state.exclusive = txn;
      m_exclusive_->Increment();
      return Status::OK();
    }
    if (released_.WaitUntil(&mu_, deadline) == std::cv_status::timeout) {
      m_timeouts_->Increment();
      return Status::TimedOut(
          "exclusive lock wait timed out (possible deadlock)");
    }
  }
}

void LockManager::Release(TxnId txn, LockKey key) {
  {
    MutexLock lock(&mu_);
    auto it = table_.find(key);
    if (it == table_.end()) return;
    LockState& state = it->second;
    state.shared.erase(txn);
    if (state.has_exclusive && state.exclusive == txn) {
      state.has_exclusive = false;
      state.exclusive = 0;
    }
    if (state.shared.empty() && !state.has_exclusive) {
      table_.erase(it);
    }
  }
  released_.NotifyAll();
}

bool LockManager::Holds(TxnId txn, LockKey key) const {
  MutexLock lock(&mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return false;
  const LockState& state = it->second;
  return state.shared.count(txn) == 1 ||
         (state.has_exclusive && state.exclusive == txn);
}

std::size_t LockManager::NumLockedKeys() const {
  MutexLock lock(&mu_);
  return table_.size();
}

}  // namespace hermes
