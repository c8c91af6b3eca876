#ifndef HERMES_STORAGE_FD_APPENDER_H_
#define HERMES_STORAGE_FD_APPENDER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace hermes {

/// Append-only file handle backed by a raw POSIX fd.
///
/// This is the durability primitive under the WAL and the snapshot
/// writer: unlike the std::ofstream it replaced, Sync() issues a real
/// ::fdatasync/::fsync, so bytes acknowledged as synced survive power
/// loss, not just process death. The appender tracks two watermarks:
///
///   size()        bytes handed to the OS (write(2) returned),
///   synced_size() bytes known forced to stable storage.
///
/// DropUnsynced() truncates the file back to synced_size(); the
/// crash-torture harness uses it to model an OS that lost its buffered
/// (written-but-unsynced) suffix at power-off.
///
/// Not internally synchronized: callers serialize access (the WAL holds
/// its mutex or the group-commit leader token across every call; a
/// snapshot's appender is local to one WriteSnapshot call).
class FdAppender {
 public:
  /// Opens (creating if absent) `path` for appending. The initial
  /// synced watermark is the current file size: bytes that survived a
  /// previous session are on disk by definition.
  [[nodiscard]] static Result<FdAppender> Open(const std::string& path);

  FdAppender() = default;
  ~FdAppender();
  FdAppender(const FdAppender&) = delete;
  FdAppender& operator=(const FdAppender&) = delete;
  FdAppender(FdAppender&& other) noexcept;
  FdAppender& operator=(FdAppender&& other) noexcept;

  /// Appends `len` bytes, retrying short writes and EINTR. On failure
  /// the file may hold a prefix of the data (a torn append); the caller
  /// decides whether that poisons the log.
  [[nodiscard]] Status Append(const void* data, std::size_t len);

  /// Forces every appended byte to stable storage (fdatasync on Linux,
  /// fsync elsewhere) and advances synced_size() to size().
  [[nodiscard]] Status Sync();

  /// Truncates the file to zero bytes and syncs the truncation. Both
  /// watermarks reset to 0.
  [[nodiscard]] Status Truncate();

  /// Discards the written-but-unsynced suffix by truncating the file to
  /// synced_size(), simulating an OS buffer lost at power-off. Test-only
  /// semantics; the WAL calls it from a crash-latched failpoint path.
  [[nodiscard]] Status DropUnsynced();

  bool valid() const { return fd_ >= 0; }
  std::uint64_t size() const { return size_; }
  std::uint64_t synced_size() const { return synced_size_; }

 private:
  FdAppender(int fd, std::string path, std::uint64_t size)
      : fd_(fd), path_(std::move(path)), size_(size), synced_size_(size) {}

  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
  std::uint64_t synced_size_ = 0;
};

/// Reads the whole file at `path` into one buffer, sized once from fstat
/// and filled by one pread loop. NotFound when the file does not exist.
[[nodiscard]] Result<std::string> ReadFileBytes(const std::string& path);

/// Renames `from` over `to`, replacing it atomically. The new directory
/// entry survives power loss only once SyncParentDirectory(to) returns.
[[nodiscard]] Status ReplaceFile(const std::string& from,
                                 const std::string& to);

/// Fsyncs the directory that holds `path`, making every create and
/// rename in it durable. Syncing a file's bytes does not sync its name.
///
/// Power-loss model (HERMES_FAILPOINTS only): FdAppender::Open,
/// ReplaceFile and CreateDirectories record how to undo each create and
/// replace until this call syncs its directory, and the
/// `wal.os_buffer.drop` power loss runs the pending undos
/// (FailpointRegistry::RevertUnsyncedEntries).
[[nodiscard]] Status SyncParentDirectory(const std::string& path);

/// Creates the directory `path` and any missing parents, fsyncing the
/// parent of each directory it creates, so a fresh directory does not
/// vanish with its contents after a power loss. Directories that already
/// exist cost no fsync. In the power-loss model each created directory is
/// an entry of its parent, and its undo removes the directory's tree.
[[nodiscard]] Status CreateDirectories(const std::string& path);

}  // namespace hermes

#endif  // HERMES_STORAGE_FD_APPENDER_H_
