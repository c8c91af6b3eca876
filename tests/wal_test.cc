#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/failpoint.h"
#include "storage/wal.h"

namespace hermes {
namespace {

std::string TempLog(const char* name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

WalEntry MakeEdgeEntry(VertexId a, VertexId b) {
  WalEntry e;
  e.type = WalOpType::kAddEdge;
  e.a = a;
  e.b = b;
  e.key = 7;
  e.flag = 1;
  return e;
}

TEST(WalTest, AppendAssignsIncreasingLsns) {
  const std::string path = TempLog("wal_lsn.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  auto l1 = wal->Append(MakeEdgeEntry(1, 2));
  auto l2 = wal->Append(MakeEdgeEntry(3, 4));
  ASSERT_OK(l1);
  ASSERT_OK(l2);
  EXPECT_LT(*l1, *l2);
}

TEST(WalTest, RoundTripAllFields) {
  const std::string path = TempLog("wal_roundtrip.log");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    WalEntry e;
    e.type = WalOpType::kSetNodeProperty;
    e.a = 42;
    e.b = 43;
    e.weight = 2.5;
    e.key = 9;
    e.flag = 1;
    e.payload = "hello \0 world";
    ASSERT_OK(wal->Append(e));
    ASSERT_OK(wal->Sync());
  }
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), 1u);
  const WalEntry& e = entries->front();
  EXPECT_EQ(e.type, WalOpType::kSetNodeProperty);
  EXPECT_EQ(e.a, 42u);
  EXPECT_EQ(e.b, 43u);
  EXPECT_DOUBLE_EQ(e.weight, 2.5);
  EXPECT_EQ(e.key, 9u);
  EXPECT_EQ(e.flag, 1);
  EXPECT_EQ(e.lsn, 1u);
}

TEST(WalTest, ManyEntriesSurviveReopen) {
  const std::string path = TempLog("wal_reopen.log");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    for (VertexId i = 0; i < 100; ++i) {
      ASSERT_OK(wal->Append(MakeEdgeEntry(i, i + 1)));
    }
    ASSERT_OK(wal->Sync());
  }
  // Reopen continues the LSN sequence.
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  EXPECT_EQ(wal->next_lsn(), 101u);
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  EXPECT_EQ(entries->size(), 100u);
}

TEST(WalTest, TornTailIsDiscarded) {
  const std::string path = TempLog("wal_torn.log");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    for (VertexId i = 0; i < 10; ++i) {
      ASSERT_OK(wal->Append(MakeEdgeEntry(i, i + 1)));
    }
    ASSERT_OK(wal->Sync());
  }
  // Simulate a crash mid-append: chop off the last 5 bytes.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    std::string data(size, '\0');
    in.read(data.data(), static_cast<std::streamsize>(size));
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(size - 5));
  }
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  EXPECT_EQ(entries->size(), 9u);  // the torn 10th entry is dropped
}

TEST(WalTest, CorruptTailIsDiscarded) {
  const std::string path = TempLog("wal_corrupt.log");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    for (VertexId i = 0; i < 5; ++i) {
      ASSERT_OK(wal->Append(MakeEdgeEntry(i, i + 1)));
    }
    ASSERT_OK(wal->Sync());
  }
  {
    // Flip a byte inside the last record's body.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-3, std::ios::end);
    f.put('\xff');
  }
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  EXPECT_EQ(entries->size(), 4u);
}

TEST(WalTest, CheckpointFiltersEarlierEntries) {
  const std::string path = TempLog("wal_checkpoint.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  ASSERT_OK(wal->Append(MakeEdgeEntry(1, 2)));
  ASSERT_OK(wal->Append(MakeEdgeEntry(3, 4)));
  ASSERT_OK(wal->LogCheckpoint());
  ASSERT_OK(wal->Append(MakeEdgeEntry(5, 6)));
  ASSERT_OK(wal->Sync());

  auto all = WriteAheadLog::ReadAll(path, false);
  ASSERT_OK(all);
  EXPECT_EQ(all->size(), 4u);

  auto tail = WriteAheadLog::ReadAll(path, true);
  ASSERT_OK(tail);
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ(tail->front().a, 5u);
}

TEST(WalTest, ResetTruncates) {
  const std::string path = TempLog("wal_reset.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  ASSERT_OK(wal->Append(MakeEdgeEntry(1, 2)));
  ASSERT_OK(wal->Reset());
  ASSERT_OK(wal->Append(MakeEdgeEntry(9, 10)));
  ASSERT_OK(wal->Sync());
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ(entries->front().a, 9u);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::string data(size, '\0');
  in.read(data.data(), static_cast<std::streamsize>(size));
  return data;
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// Walks the [u32 length][u32 crc][body] framing and returns the byte
// offset of the end of each record, independent of the reader under test.
std::vector<std::size_t> FrameBoundaries(const std::string& data) {
  std::vector<std::size_t> ends;
  std::size_t off = 0;
  while (off + 8 <= data.size()) {
    std::uint32_t length = 0;
    std::memcpy(&length, data.data() + off, sizeof(length));
    const std::size_t end = off + 8 + length;
    if (end > data.size()) break;
    ends.push_back(end);
    off = end;
  }
  return ends;
}

// Crash-at-every-byte sweep: truncating a multi-record log at any offset
// must recover exactly the longest valid-record prefix — every record
// whose frame fits entirely inside the truncated file, and nothing else.
TEST(WalTest, TruncationSweepRecoversLongestValidPrefix) {
  const std::string path = TempLog("wal_sweep.log");
  constexpr std::size_t kRecords = 5;
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    for (std::size_t i = 0; i < kRecords; ++i) {
      WalEntry e = MakeEdgeEntry(i, i + 1);
      e.payload = std::string(i * 3, static_cast<char>('a' + i));
      ASSERT_OK(wal->Append(e));
    }
    ASSERT_OK(wal->Sync());
  }
  const std::string full = ReadFileBytes(path);
  const std::vector<std::size_t> ends = FrameBoundaries(full);
  ASSERT_EQ(ends.size(), kRecords);

  const std::string cut_path = TempLog("wal_sweep_cut.log");
  for (std::size_t len = 0; len <= full.size(); ++len) {
    WriteFileBytes(cut_path, full.substr(0, len));
    const std::size_t want =
        static_cast<std::size_t>(std::count_if(
            ends.begin(), ends.end(),
            [len](std::size_t end) { return end <= len; }));
    auto entries = WriteAheadLog::ReadAll(cut_path);
    ASSERT_OK(entries) << "truncated at byte " << len;
    ASSERT_EQ(entries->size(), want) << "truncated at byte " << len;
    for (std::size_t i = 0; i < want; ++i) {
      EXPECT_EQ((*entries)[i].a, i) << "truncated at byte " << len;
      EXPECT_EQ((*entries)[i].lsn, i + 1) << "truncated at byte " << len;
    }
  }
}

// A CRC failure in the *middle* of the log must stop replay at the last
// good record before it — never skip the bad record and resume, which
// would replay a sequence the store never produced.
TEST(WalTest, FlippedCrcMidLogStopsReplayAtLastGoodRecord) {
  const std::string path = TempLog("wal_midcrc.log");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    for (VertexId i = 0; i < 5; ++i) {
      WalEntry e = MakeEdgeEntry(i, i + 1);
      e.payload = "payload";
      ASSERT_OK(wal->Append(e));
    }
    ASSERT_OK(wal->Sync());
  }
  std::string data = ReadFileBytes(path);
  const std::vector<std::size_t> ends = FrameBoundaries(data);
  ASSERT_EQ(ends.size(), 5u);
  // Flip a body byte inside the third record (frame = 8-byte header + body).
  data[ends[1] + 8] ^= 0x01;
  WriteFileBytes(path, data);

  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ(entries->back().a, 1u);
}

// Open() must cut a torn tail off the file before appending; otherwise
// new (even synced) records land beyond bytes replay refuses to cross
// and are silently lost on the next recovery.
TEST(WalTest, OpenTruncatesTornTailSoLaterAppendsSurvive) {
  const std::string path = TempLog("wal_open_trunc.log");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    for (VertexId i = 0; i < 3; ++i) {
      ASSERT_OK(wal->Append(MakeEdgeEntry(i, i + 1)));
    }
    ASSERT_OK(wal->Sync());
  }
  // Crash mid-append: half of a fourth frame reaches the disk.
  std::string data = ReadFileBytes(path);
  const std::size_t intact = data.size();
  WriteFileBytes(path, data + data.substr(0, 11));

  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  EXPECT_EQ(wal->next_lsn(), 4u);
  EXPECT_EQ(std::filesystem::file_size(path), intact);
  ASSERT_OK(wal->Append(MakeEdgeEntry(9, 10)));
  ASSERT_OK(wal->Sync());

  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), 4u);
  EXPECT_EQ(entries->back().a, 9u);
  EXPECT_EQ(entries->back().lsn, 4u);
}

// --- durability / group commit -------------------------------------------

TEST(WalTest, SyncBatchesStagedAppendsIntoOneFsync) {
  const std::string path = TempLog("wal_group.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  for (VertexId i = 0; i < 10; ++i) {
    ASSERT_OK(wal->Append(MakeEdgeEntry(i, i + 1)));
  }
  EXPECT_EQ(wal->durable_lsn(), 0u);  // staged, not yet durable
  const std::uint64_t fsyncs_before = wal->fsync_count();
  ASSERT_OK(wal->Sync());
  EXPECT_EQ(wal->fsync_count(), fsyncs_before + 1);  // one window, one fsync
  EXPECT_EQ(wal->durable_lsn(), 10u);
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  EXPECT_EQ(entries->size(), 10u);
}

TEST(WalTest, DurableAppendAdvancesDurableLsn) {
  const std::string path = TempLog("wal_durable_append.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  auto lsn = wal->Append(MakeEdgeEntry(1, 2), /*durable=*/true);
  ASSERT_OK(lsn);
  EXPECT_GE(wal->durable_lsn(), *lsn);
  EXPECT_GE(wal->fsync_count(), 1u);
}

TEST(WalTest, PerAppendFsyncModeSyncsEveryDurableAppend) {
  const std::string path = TempLog("wal_perappend.log");
  WalGroupCommitOptions options;
  options.enabled = false;  // the pre-group-commit baseline
  auto wal = WriteAheadLog::Open(path, 1, options);
  ASSERT_OK(wal);
  for (VertexId i = 0; i < 4; ++i) {
    ASSERT_OK(wal->Append(MakeEdgeEntry(i, i + 1), /*durable=*/true));
  }
  EXPECT_EQ(wal->fsync_count(), 4u);  // one fsync per append, no batching
  EXPECT_EQ(wal->durable_lsn(), 4u);
}

// Regression (pre-fix the first expectation fails): a failed append used
// to advance next_lsn_ anyway, so the LSN sequence had a hole and the
// log kept accepting appends beyond a tail of unknown state.
TEST(WalTest, FailedAppendRollsBackLsnAndPoisonsTheLog) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "needs HERMES_FAILPOINTS (asan-ubsan / tsan presets)";
  }
  const std::string path = TempLog("wal_append_rollback.log");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    ASSERT_OK(wal->Append(MakeEdgeEntry(1, 2)));
    ASSERT_OK(wal->Sync());
    const std::uint64_t lsn_before = wal->next_lsn();

    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kNthHit;
    cfg.n = 1;
    FailpointRegistry::Global().Arm("wal.append.short_write", cfg);
    auto torn = wal->Append(MakeEdgeEntry(3, 4));
    ASSERT_FALSE(torn.ok());
    FailpointRegistry::Global().Reset();  // release the crash latch

    // The failed append's LSN must not be consumed...
    EXPECT_EQ(wal->next_lsn(), lsn_before);
    // ...and the log is poisoned until reopen: nothing may land after a
    // tail whose on-disk state is unknown.
    auto after = wal->Append(MakeEdgeEntry(5, 6));
    ASSERT_FALSE(after.ok());
    EXPECT_NE(after.status().message().find("poisoned"), std::string::npos);
    EXPECT_FALSE(wal->Sync().ok());
  }
  FailpointRegistry::Global().Reset();
  // Reopen truncates the torn tail and recovers the synced prefix.
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  EXPECT_EQ(wal->next_lsn(), 2u);
  ASSERT_OK(wal->Append(MakeEdgeEntry(7, 8), /*durable=*/true));
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ(entries->back().a, 7u);
}

// Regression (pre-fix this silently returned OK on the next append): a
// Reset() that failed at the truncate step left the file still holding
// the old records while the in-memory log believed it was empty.
TEST(WalTest, FailedResetPoisonsAndNamesTheReset) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "needs HERMES_FAILPOINTS (asan-ubsan / tsan presets)";
  }
  const std::string path = TempLog("wal_reset_fail.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  ASSERT_OK(wal->Append(MakeEdgeEntry(1, 2), /*durable=*/true));

  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("wal.reset.io_error", cfg);
  const Status reset = wal->Reset();
  FailpointRegistry::Global().Reset();
  ASSERT_FALSE(reset.ok());

  // Sticky: every later operation names the failed Reset instead of
  // pretending the log is usable.
  auto after = wal->Append(MakeEdgeEntry(3, 4));
  ASSERT_FALSE(after.ok());
  EXPECT_NE(after.status().message().find("Reset"), std::string::npos);
  EXPECT_FALSE(wal->Sync().ok());
}

// Regression for the durability hole itself: pre-fix Sync() was
// ofstream::flush(), which hands bytes to the OS and survives nothing.
// Modeled here: entries synced before a power loss survive it; entries
// merely appended (sitting in OS buffers) do not.
TEST(WalTest, OsBufferDropLosesExactlyTheUnsyncedSuffix) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "needs HERMES_FAILPOINTS (asan-ubsan / tsan presets)";
  }
  const std::string path = TempLog("wal_os_drop.log");
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_OK(wal);
    ASSERT_OK(wal->Append(MakeEdgeEntry(1, 2)));
    ASSERT_OK(wal->Sync());  // entry 1 reaches the platter
    ASSERT_OK(wal->Append(MakeEdgeEntry(3, 4)));  // entry 2 stays buffered

    FailpointConfig cfg;
    cfg.policy = FailpointConfig::Policy::kNthHit;
    cfg.n = 1;
    FailpointRegistry::Global().Arm("wal.os_buffer.drop", cfg);
    EXPECT_FALSE(wal->Sync().ok());  // power loss during the commit window
  }
  FailpointRegistry::Global().Reset();
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  ASSERT_EQ(entries->size(), 1u);  // exactly the fsynced prefix
  EXPECT_EQ(entries->front().a, 1u);

  // Recovery continues cleanly after the synced prefix.
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  EXPECT_EQ(wal->next_lsn(), 2u);
}

// A transient fsync failure (device hiccup, not a crash) must not poison
// the log: the bytes are in the file, and a later window's fsync covers
// them.
TEST(WalTest, TransientFsyncFailureIsRetryable) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "needs HERMES_FAILPOINTS (asan-ubsan / tsan presets)";
  }
  const std::string path = TempLog("wal_transient.log");
  auto wal = WriteAheadLog::Open(path);
  ASSERT_OK(wal);
  ASSERT_OK(wal->Append(MakeEdgeEntry(1, 2)));

  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("wal.sync.io_error", cfg);
  EXPECT_FALSE(wal->Sync().ok());
  FailpointRegistry::Global().Reset();

  ASSERT_OK(wal->Sync());  // retry succeeds; nothing was lost
  EXPECT_EQ(wal->durable_lsn(), 1u);
  auto entries = WriteAheadLog::ReadAll(path);
  ASSERT_OK(entries);
  EXPECT_EQ(entries->size(), 1u);
}

}  // namespace
}  // namespace hermes
