#include "storage/fd_appender.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <utility>
#include <vector>

#include "common/failpoint.h"

namespace hermes {

namespace {

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

std::string ParentDirectory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

/// Puts a replaced file back as a disk that lost the rename still holds
/// it. Power-loss model only: the simulated process is already dead, so
/// a failure here has no one to report to.
void RestoreFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    // A short restore is a shorter old file, which recovery rejects.
  }
  std::fclose(f);
}

}  // namespace

Result<FdAppender> FdAppender::Open(const std::string& path) {
  // The power-loss model must know whether this open adds the entry.
  const bool creates = kFailpointsEnabled && ::access(path.c_str(), F_OK) != 0;
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open failed for", path));
  }
  if (creates) {
    FailpointRegistry::Global().RecordUnsyncedEntry(
        ParentDirectory(path), [path] { ::unlink(path.c_str()); });
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status err = Status::IOError(ErrnoMessage("fstat failed for", path));
    ::close(fd);
    return err;
  }
  return FdAppender(fd, path, static_cast<std::uint64_t>(st.st_size));
}

FdAppender::~FdAppender() {
  if (fd_ >= 0) ::close(fd_);
}

FdAppender::FdAppender(FdAppender&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      size_(other.size_),
      synced_size_(other.synced_size_) {
  other.fd_ = -1;
  other.size_ = 0;
  other.synced_size_ = 0;
}

FdAppender& FdAppender::operator=(FdAppender&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    size_ = other.size_;
    synced_size_ = other.synced_size_;
    other.fd_ = -1;
    other.size_ = 0;
    other.synced_size_ = 0;
  }
  return *this;
}

Status FdAppender::Append(const void* data, std::size_t len) {
  if (fd_ < 0) return Status::IOError("FdAppender not open: " + path_);
  const char* p = static_cast<const char*>(data);
  std::size_t remaining = len;
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write failed for", path_));
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
    size_ += static_cast<std::uint64_t>(n);
  }
  return Status::OK();
}

Status FdAppender::Sync() {
  if (fd_ < 0) return Status::IOError("FdAppender not open: " + path_);
#if defined(__linux__)
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fdatasync failed for", path_));
  }
#else
  if (::fsync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fsync failed for", path_));
  }
#endif
  synced_size_ = size_;
  return Status::OK();
}

Status FdAppender::Truncate() {
  if (fd_ < 0) return Status::IOError("FdAppender not open: " + path_);
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError(ErrnoMessage("ftruncate failed for", path_));
  }
  size_ = 0;
  synced_size_ = 0;
  // O_APPEND writes always land at the (new) end of file, so no seek is
  // needed; sync the truncation itself so a crash cannot resurrect the
  // old contents.
  return Sync();
}

Status FdAppender::DropUnsynced() {
  if (fd_ < 0) return Status::IOError("FdAppender not open: " + path_);
  if (::ftruncate(fd_, static_cast<off_t>(synced_size_)) != 0) {
    return Status::IOError(ErrnoMessage("ftruncate failed for", path_));
  }
  size_ = synced_size_;
  return Status::OK();
}

[[nodiscard]] Result<std::string> ReadFileBytes(const std::string& path) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file at " + path);
    return Status::IOError(ErrnoMessage("open failed for", path));
  }
  Status status;
  std::string bytes;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    status = Status::IOError(ErrnoMessage("fstat failed for", path));
  } else {
    bytes.resize(static_cast<std::size_t>(st.st_size));
  }
  std::size_t done = 0;
  while (status.ok() && done < bytes.size()) {
    const ssize_t n = ::pread(fd, bytes.data() + done, bytes.size() - done,
                              static_cast<off_t>(done));
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n == 0) {
      bytes.resize(done);  // the file shrank after fstat
    } else if (errno != EINTR) {
      status = Status::IOError(ErrnoMessage("pread failed for", path));
    }
  }
  ::close(fd);
  if (!status.ok()) return status;
  return bytes;
}

[[nodiscard]] Status ReplaceFile(const std::string& from,
                                 const std::string& to) {
  // Power-loss model: until the directory is synced, a disk still holds
  // the replaced target, or no entry at all if there was none.
  std::function<void()> undo;
  if (kFailpointsEnabled) {
    Result<std::string> replaced = ReadFileBytes(to);
    if (replaced.ok()) {
      undo = [to, bytes = std::move(*replaced)] { RestoreFile(to, bytes); };
    } else if (replaced.status().IsNotFound()) {
      undo = [to] { ::unlink(to.c_str()); };
    } else {
      return replaced.status();
    }
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError(ErrnoMessage("rename failed for", from));
  }
  if (undo) {
    FailpointRegistry::Global().RecordUnsyncedEntry(ParentDirectory(to),
                                                    std::move(undo));
  }
  return Status::OK();
}

[[nodiscard]] Status SyncParentDirectory(const std::string& path) {
  const std::string dir = ParentDirectory(path);
  int fd = -1;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open failed for directory", dir));
  }
  const Status status =
      ::fsync(fd) == 0
          ? Status::OK()
          : Status::IOError(ErrnoMessage("fsync failed for directory", dir));
  ::close(fd);
  if (status.ok() && kFailpointsEnabled) {
    FailpointRegistry::Global().ForgetUnsyncedEntries(dir);
  }
  return status;
}

[[nodiscard]] Status CreateDirectories(const std::string& path) {
  std::string dir = path;
  std::vector<std::string> missing;  // innermost first
  while (::access(dir.c_str(), F_OK) != 0 && errno == ENOENT) {
    missing.push_back(dir);
    const std::string parent = ParentDirectory(dir);
    if (parent == dir) break;
    dir = parent;
  }
  for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
    const std::string& created = *it;
    if (::mkdir(created.c_str(), 0755) != 0) {
      if (errno == EEXIST) continue;  // created meanwhile, not by us
      return Status::IOError(ErrnoMessage("mkdir failed for", created));
    }
    if (kFailpointsEnabled) {
      FailpointRegistry::Global().RecordUnsyncedEntry(
          ParentDirectory(created), [created] {
            std::error_code ignored;
            std::filesystem::remove_all(created, ignored);
          });
    }
    HERMES_RETURN_NOT_OK(SyncParentDirectory(created));
  }
  return Status::OK();
}

}  // namespace hermes
