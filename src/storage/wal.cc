#include "storage/wal.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "common/crc32.h"
#include "common/failpoint.h"

namespace hermes {

namespace {

/// Fixed-width binary header preceding each entry's variable payload.
/// The token fields were added for the exactly-once contract (DESIGN.md
/// §12); changing this struct changes the on-disk format, which is fine
/// because the WAL is truncated at every checkpoint and never read by a
/// binary other than the one that wrote it.
struct EntryHeader {
  std::uint8_t type;
  std::uint64_t lsn;
  std::uint64_t a;
  std::uint64_t b;
  double weight;
  std::uint32_t key;
  std::uint8_t flag;
  std::uint32_t token_src;
  std::uint64_t token_id;
  std::uint32_t payload_size;
};

void PutBytes(std::string* buf, const void* data, std::size_t size) {
  buf->append(static_cast<const char*>(data), size);
}

std::string EncodeEntry(const WalEntry& e) {
  EntryHeader h{};
  h.type = static_cast<std::uint8_t>(e.type);
  h.lsn = e.lsn;
  h.a = e.a;
  h.b = e.b;
  h.weight = e.weight;
  h.key = e.key;
  h.flag = e.flag;
  h.token_src = e.token.src;
  h.token_id = e.token.id;
  h.payload_size = static_cast<std::uint32_t>(e.payload.size());

  std::string body;
  PutBytes(&body, &h, sizeof(h));
  body += e.payload;

  // Frame: [u32 length][u32 crc][body].
  std::string frame;
  const auto length = static_cast<std::uint32_t>(body.size());
  const std::uint32_t crc = Crc32c(body.data(), body.size());
  PutBytes(&frame, &length, sizeof(length));
  PutBytes(&frame, &crc, sizeof(crc));
  frame += body;
  return frame;
}

/// A scanned log: the longest valid-record prefix plus its byte length.
/// Anything past `valid_bytes` is a torn or corrupt tail that replay can
/// never reach.
struct ScannedLog {
  std::vector<WalEntry> entries;
  std::uint64_t valid_bytes = 0;
};

[[nodiscard]] Result<ScannedLog> ScanLog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read WAL at " + path);

  ScannedLog log;
  for (;;) {
    std::uint32_t length = 0;
    std::uint32_t crc = 0;
    if (!in.read(reinterpret_cast<char*>(&length), sizeof(length))) break;
    if (!in.read(reinterpret_cast<char*>(&crc), sizeof(crc))) break;
    if (length < sizeof(EntryHeader) || length > (1u << 26)) break;
    std::string body(length, '\0');
    if (!in.read(body.data(), length)) break;  // torn tail: stop replay
    if (Crc32c(body.data(), body.size()) != crc) break;  // corrupt tail

    EntryHeader h;
    std::memcpy(&h, body.data(), sizeof(h));
    if (sizeof(h) + h.payload_size != body.size()) break;
    WalEntry e;
    e.type = static_cast<WalOpType>(h.type);
    e.lsn = h.lsn;
    e.a = h.a;
    e.b = h.b;
    e.weight = h.weight;
    e.key = h.key;
    e.flag = h.flag;
    e.token.src = h.token_src;
    e.token.id = h.token_id;
    e.payload = body.substr(sizeof(h));
    log.entries.push_back(std::move(e));
    log.valid_bytes = static_cast<std::uint64_t>(in.tellg());
  }
  return log;
}

/// How a commit window ended, and what the log must do about it.
enum class CommitOutcome {
  kOk,        // every batched byte is on stable storage
  kRestage,   // nothing reached the file; re-stage the batch and retry
  kPoison,    // the file may hold a partial frame; log dead until reopen
  kTransient, // bytes written but the fsync failed; a later window retries
};

struct CommitResult {
  CommitOutcome outcome;
  Status status;
};

/// One group-commit window: a contiguous write of the batched frames plus
/// one fsync. Called by the window leader with `mu_` released (the leader
/// token grants exclusive file access) or, in per-append-fsync mode, with
/// `mu_` held. Failpoints model the three distinct failure boundaries:
/// before any byte reaches the file (retryable), after bytes reach the OS
/// but before the fsync (power loss drops the buffered suffix), and the
/// fsync call itself failing.
CommitResult CommitBatchIo(FdAppender& file, const std::string& batch) {
  {
    const FailpointHit hit = HERMES_FAILPOINT_HIT("wal.flush.io_error");
    if (hit.fired) {
      return {CommitOutcome::kRestage,
              Status::IOError("failpoint: wal.flush.io_error")};
    }
  }
  if (!batch.empty()) {
    if (Status st = file.Append(batch.data(), batch.size()); !st.ok()) {
      // A failed write(2) may have landed a prefix of the batch; replay
      // would stop at the tear, so nothing after it may ever be appended.
      return {CommitOutcome::kPoison, st};
    }
  }
  {
    const FailpointHit drop = HERMES_FAILPOINT_HIT("wal.os_buffer.drop");
    if (drop.fired) {
      // Power-loss model: the machine dies with the window's bytes still
      // in the OS buffer cache — fsync never returned, so nothing past
      // the previous synced watermark survives. The crash latch kills the
      // "process"; DropUnsynced truncates the file to what a real disk
      // would have kept, and every create or rename whose directory was
      // never fsynced is undone.
      HERMES_FAILPOINT_LATCH_CRASH("wal.os_buffer.drop");
      FailpointRegistry::Global().RevertUnsyncedEntries();
      if (Status st = file.DropUnsynced(); !st.ok()) {
        return {CommitOutcome::kPoison, st};
      }
      return {CommitOutcome::kPoison,
              Status::IOError("failpoint: wal.os_buffer.drop")};
    }
  }
  {
    const FailpointHit hit = HERMES_FAILPOINT_HIT("wal.sync.io_error");
    if (hit.fired) {
      return {CommitOutcome::kTransient,
              Status::IOError("failpoint: wal.sync.io_error")};
    }
  }
  if (Status st = file.Sync(); !st.ok()) {
    return {CommitOutcome::kTransient, st};
  }
  return {CommitOutcome::kOk, Status::OK()};
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path, FdAppender file,
                             std::uint64_t next_lsn,
                             const WalGroupCommitOptions& options)
    : path_(std::move(path)),
      file_(std::move(file)),
      options_(options),
      next_lsn_(next_lsn),
      durable_lsn_(next_lsn - 1),
      m_appends_(MetricsRegistry::Global().GetCounter("wal.appends")),
      m_append_bytes_(
          MetricsRegistry::Global().GetCounter("wal.append_bytes")),
      m_syncs_(MetricsRegistry::Global().GetCounter("wal.syncs")) {}

WriteAheadLog::~WriteAheadLog() {
  // A crash-latched failpoint means the "machine" died mid-run: the
  // staged frames never reached the OS and must not be written by the
  // destructor of the dead process.
  if (kFailpointsEnabled && FailpointRegistry::Global().crashed()) return;
  MutexLock lock(&mu_);
  if (!file_.valid() || pending_.empty() || !poison_.ok()) return;
  // audit:allow(blocking, best-effort close-time flush: the log is being
  // destroyed, so nothing can contend for mu_ after this)
  if (Status st = file_.Append(pending_.data(), pending_.size()); !st.ok()) {
    // Best-effort close-time flush: losing appends that were never synced
    // is within the durability contract (Sync() is the boundary).
  }
  pending_.clear();
}

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& path,
                                          std::uint64_t min_next_lsn,
                                          const WalGroupCommitOptions& options) {
  // Scan any existing log to find the next LSN.
  std::uint64_t next_lsn = std::max<std::uint64_t>(min_next_lsn, 1);
  {
    auto scanned = ScanLog(path);
    if (scanned.ok()) {
      if (!scanned->entries.empty()) {
        next_lsn = std::max(next_lsn, scanned->entries.back().lsn + 1);
      }
      // A crash mid-append can leave a torn or corrupt frame at the tail.
      // Appending after it would strand every later record beyond bytes
      // replay refuses to cross, so cut the file back to the valid prefix
      // before reopening for append.
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(path, ec);
      if (!ec && size > scanned->valid_bytes) {
        std::filesystem::resize_file(path, scanned->valid_bytes, ec);
        if (ec) {
          return Status::IOError("cannot truncate torn WAL tail at " + path);
        }
      }
    }
  }
  HERMES_ASSIGN_OR_RETURN(FdAppender file, FdAppender::Open(path));
  // A synced append is durable only if the log's own name is too.
  HERMES_RETURN_NOT_OK(SyncParentDirectory(path));
  return WriteAheadLog(path, std::move(file), next_lsn, options);
}

Result<std::uint64_t> WriteAheadLog::Append(WalEntry entry, bool durable) {
  std::uint64_t lsn = 0;
  {
    MutexLock lock(&mu_);
    if (!poison_.ok()) return poison_;
    // Transient failure before anything reaches the file or the LSN
    // counter moves: the entry is simply rejected.
    HERMES_FAILPOINT_IOERROR("wal.append.io_error");
    // Crash before the write: the record is fully absent from the file.
    HERMES_FAILPOINT_CRASH("wal.append.crash");
    entry.lsn = next_lsn_++;
    const std::string frame = EncodeEntry(entry);
    const FailpointHit torn = HERMES_FAILPOINT_HIT("wal.append.short_write");
    if (torn.fired) {
      // Torn write: a prefix of the frame reaches the file and then the
      // process dies. The tear must land at the true tail, so flush the
      // staged frames first; skip all file access if a window leader is
      // mid-flight (the crash latch makes the suffix unreachable anyway,
      // and the leader owns the file while its fsync runs).
      if (!leader_active_) {
        // audit:allow(blocking, crash model: the torn frame must land at
        // the true file tail, which only exists while mu_ freezes staging)
        if (Status staged = file_.Append(pending_.data(), pending_.size());
            staged.ok()) {
          pending_.clear();
        }
        const std::uint64_t want =
            torn.arg != 0 ? torn.arg : frame.size() / 2;
        const auto cut = static_cast<std::size_t>(
            std::min<std::uint64_t>(want, frame.size() - 1));
        // audit:allow(blocking, same crash-model tear as above)
        if (Status tear = file_.Append(frame.data(), cut); !tear.ok()) {
          // The tear itself is the injected failure; a second error while
          // writing it changes nothing about the poisoned outcome below.
        }
      }
      HERMES_FAILPOINT_LATCH_CRASH("wal.append.short_write");
      // The entry never became part of the log: give its LSN back and
      // poison the log — the file may end in a partial frame, so nothing
      // may be appended until Open() truncates the tail.
      --next_lsn_;
      poison_ = Status::IOError(
          "WAL poisoned by torn append (reopen to truncate the tail)");
      return Status::IOError("failpoint: wal.append.short_write");
    }
    pending_ += frame;
    m_appends_->Increment();
    m_append_bytes_->Increment(frame.size());
    lsn = entry.lsn;
    if (durable && !options_.enabled) {
      // Per-append-fsync baseline: one write + one fsync per durable
      // append, fully serialized under mu_.
      // audit:allow(blocking, the per-append-fsync baseline is *defined*
      // as fsync-under-mu_ — the honest comparison point the group-commit
      // bench measures against)
      HERMES_RETURN_NOT_OK(CommitPendingLocked());
      return lsn;
    }
  }
  if (durable) {
    HERMES_RETURN_NOT_OK(SyncUntil(lsn));
  }
  return lsn;
}

Status WriteAheadLog::CommitPendingLocked() {
  std::string batch;
  batch.swap(pending_);
  const std::uint64_t batch_end = next_lsn_ - 1;
  // audit:allow(blocking, REQUIRES(mu_) is this helper's contract: it is
  // the per-append-fsync baseline and the destructor/Reset flush path,
  // both of which must commit under the staging lock by design)
  const CommitResult commit = CommitBatchIo(file_, batch);
  switch (commit.outcome) {
    case CommitOutcome::kOk:
      durable_lsn_ = std::max(durable_lsn_, batch_end);
      ++fsync_count_;
      m_syncs_->Increment();
      return Status::OK();
    case CommitOutcome::kRestage:
      // Nothing reached the file. Put the batch back *in front of* any
      // frames staged meanwhile so the on-disk order stays the LSN order.
      batch += pending_;
      pending_ = std::move(batch);
      return commit.status;
    case CommitOutcome::kPoison:
      poison_ = commit.status;
      return commit.status;
    case CommitOutcome::kTransient:
      return commit.status;
  }
  return Status::Internal("unreachable commit outcome");
}

Status WriteAheadLog::Sync() {
  std::uint64_t target = 0;
  {
    MutexLock lock(&mu_);
    if (!poison_.ok()) return poison_;
    target = next_lsn_ - 1;
  }
  return SyncUntil(target);
}

Status WriteAheadLog::SyncUntil(std::uint64_t lsn) {
  for (;;) {
    std::string batch;
    std::uint64_t batch_end = 0;
    FdAppender* file = nullptr;
    {
      MutexLock lock(&mu_);
      if (!poison_.ok()) return poison_;
      if (lsn >= next_lsn_) lsn = next_lsn_ - 1;  // clamp to assigned LSNs
      if (durable_lsn_ >= lsn) return Status::OK();
      if (leader_active_) {
        // Another thread's window is in flight; it covers every LSN
        // assigned before its swap. Wait for its verdict and re-check.
        commit_cv_.Wait(&mu_);
        continue;
      }
      if (!options_.enabled) {
        // Per-append-fsync mode: no leader protocol, no batching across
        // callers — write + fsync while holding mu_.
        // audit:allow(blocking, per-append-fsync baseline, as in Append)
        HERMES_RETURN_NOT_OK(CommitPendingLocked());
        continue;
      }
      leader_active_ = true;
      batch.swap(pending_);
      batch_end = next_lsn_ - 1;
      // The leader token makes this thread the only one touching the
      // file until leader_active_ clears, so the pointer may be used
      // with mu_ released.
      file = &file_;
    }

    if (commit_io_hook_for_test_) commit_io_hook_for_test_();
    const CommitResult commit = CommitBatchIo(*file, batch);

    bool covered = false;
    {
      MutexLock lock(&mu_);
      leader_active_ = false;
      switch (commit.outcome) {
        case CommitOutcome::kOk:
          durable_lsn_ = std::max(durable_lsn_, batch_end);
          ++fsync_count_;
          m_syncs_->Increment();
          covered = durable_lsn_ >= lsn;
          break;
        case CommitOutcome::kRestage:
          batch += pending_;
          pending_ = std::move(batch);
          break;
        case CommitOutcome::kPoison:
          poison_ = commit.status;
          break;
        case CommitOutcome::kTransient:
          // The batch is in the file but not on disk; waiters re-loop and
          // a later window's fsync can still make it durable.
          break;
      }
    }
    // Followers wake to a free mu_ and read the verdict published above.
    commit_cv_.NotifyAll();
    if (commit.outcome != CommitOutcome::kOk || covered) return commit.status;
  }
}

Result<std::uint64_t> WriteAheadLog::LogCheckpoint() {
  WalEntry marker;
  marker.type = WalOpType::kCheckpoint;
  HERMES_ASSIGN_OR_RETURN(std::uint64_t lsn, Append(marker));
  HERMES_RETURN_NOT_OK(Sync());
  return lsn;
}

Result<std::vector<WalEntry>> WriteAheadLog::ReadAll(
    const std::string& path, bool after_last_checkpoint) {
  HERMES_ASSIGN_OR_RETURN(ScannedLog log, ScanLog(path));
  std::vector<WalEntry> entries = std::move(log.entries);

  if (after_last_checkpoint) {
    std::size_t start = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].type == WalOpType::kCheckpoint) start = i + 1;
    }
    entries.erase(entries.begin(),
                  entries.begin() + static_cast<std::ptrdiff_t>(start));
  }
  return entries;
}

Status WriteAheadLog::Reset() {
  std::uint64_t covered = 0;
  FdAppender* file = nullptr;
  {
    MutexLock lock(&mu_);
    if (!poison_.ok()) return poison_;
    while (leader_active_) commit_cv_.Wait(&mu_);
    // Everything assigned so far is covered by the snapshot that
    // justified this Reset, so the staged frames are redundant. Frames
    // staged *during* the off-lock truncate below keep their (higher)
    // LSNs, stay pending, and are NOT covered — hence `covered` is
    // captured here, not after the truncate.
    pending_.clear();
    covered = next_lsn_ - 1;
    // Take the leader token: exclusive file access with mu_ released.
    // Pre-fix, the ftruncate+fsync ran under mu_ and every concurrent
    // Append() staging in memory stalled behind the disk for the whole
    // checkpoint truncation (WalResetDoesNotBlockStagers regression).
    leader_active_ = true;
    file = &file_;
  }

  if (commit_io_hook_for_test_) commit_io_hook_for_test_();
  Status truncated;
  const FailpointHit hit = HERMES_FAILPOINT_HIT("wal.reset.io_error");
  if (hit.fired) {
    truncated =
        Status::IOError("truncate failed: failpoint wal.reset.io_error");
  } else {
    truncated = file->Truncate();
  }

  Status result;
  {
    MutexLock lock(&mu_);
    leader_active_ = false;
    if (truncated.ok()) {
      durable_lsn_ = std::max(durable_lsn_, covered);
    } else {
      poison_ = Status::IOError("WAL poisoned by failed Reset (" +
                                truncated.message() +
                                "); reopen the log to recover");
      result = poison_;
    }
  }
  commit_cv_.NotifyAll();
  return result;
}

}  // namespace hermes
