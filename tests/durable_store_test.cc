#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "canonical_state.h"
#include "test_util.h"

#include "common/crc32.h"
#include "graphdb/durable_store.h"
#include "net/wire.h"

namespace hermes {
namespace {

using test::Canonicalize;
using test::DiffStates;

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void PopulateSmall(DurableGraphStore* db) {
  ASSERT_OK(db->CreateNode(1, 2.0));
  ASSERT_OK(db->CreateNode(2));
  ASSERT_OK(db->CreateNode(3));
  ASSERT_OK(db->AddEdge(1, 2, 5, true));
  ASSERT_OK(db->AddEdge(2, 99, 0, false));  // ghost-capable half
  ASSERT_OK(db->SetNodeProperty(1, 0, "alice"));
  ASSERT_OK(db->SetEdgeProperty(1, 2, 1, "friends-since-2009"));
  ASSERT_OK(db->Sync());
}

void ExpectSmallContent(const GraphStore& store,
                        double node1_weight = 2.0) {
  EXPECT_TRUE(store.HasNode(1));
  EXPECT_TRUE(store.HasNode(2));
  EXPECT_TRUE(store.HasNode(3));
  EXPECT_DOUBLE_EQ(*store.NodeWeight(1), node1_weight);
  EXPECT_EQ(*store.GetNodeProperty(1, 0), "alice");
  EXPECT_EQ(*store.GetEdgeProperty(2, 1, 1), "friends-since-2009");
  auto neigh = store.Neighbors(2);
  ASSERT_OK(neigh);
  EXPECT_EQ(neigh->size(), 2u);  // node 1 and remote 99
  EXPECT_TRUE(store.CheckLinks());
}

TEST(DurableStoreTest, RecoversFromWalOnly) {
  const std::string dir = FreshDir("hermes_wal_only");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    PopulateSmall(db->get());
    // No checkpoint: recovery must come entirely from the log.
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  ExpectSmallContent((*db)->store());
}

TEST(DurableStoreTest, RecoversFromSnapshotAfterCheckpoint) {
  const std::string dir = FreshDir("hermes_snapshot");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    PopulateSmall(db->get());
    ASSERT_OK((*db)->Checkpoint());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  ExpectSmallContent((*db)->store());
  // The log was truncated by the checkpoint.
  auto tail = WriteAheadLog::ReadAll(dir + "/wal.log", true);
  ASSERT_OK(tail);
  EXPECT_TRUE(tail->empty());
}

TEST(DurableStoreTest, SnapshotPlusTailReplay) {
  const std::string dir = FreshDir("hermes_mixed");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    PopulateSmall(db->get());
    ASSERT_OK((*db)->Checkpoint());
    // Post-checkpoint mutations live only in the log.
    ASSERT_OK((*db)->CreateNode(4));
    ASSERT_OK((*db)->AddEdge(3, 4, 0, true));
    ASSERT_OK((*db)->AddNodeWeight(1, 5.0));
    ASSERT_OK((*db)->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  const GraphStore& store = (*db)->store();
  ExpectSmallContent(store, /*node1_weight=*/7.0);
  EXPECT_TRUE(store.HasNode(4));
  auto neigh = store.Neighbors(3);
  ASSERT_OK(neigh);
  EXPECT_EQ(neigh->size(), 1u);
}

TEST(DurableStoreTest, DeletesSurviveRecovery) {
  const std::string dir = FreshDir("hermes_deletes");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    PopulateSmall(db->get());
    ASSERT_OK((*db)->RemoveEdge(1, 2));
    ASSERT_OK((*db)->SetNodeState(3, NodeState::kUnavailable));
    ASSERT_OK((*db)->RemoveNode(3));
    ASSERT_OK((*db)->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  const GraphStore& store = (*db)->store();
  EXPECT_FALSE(store.NodeExists(3));
  EXPECT_TRUE(store.FindEdge(1, 2).status().IsNotFound());
  EXPECT_TRUE(store.CheckLinks());
}

TEST(DurableStoreTest, GhostFlagsSurviveSnapshotRoundTrip) {
  GraphStore store(2);
  ASSERT_OK(store.CreateNode(10));
  ASSERT_OK(store.CreateNode(20));
  ASSERT_OK(store.AddEdge(10, 20, 0, true));
  ASSERT_OK(store.AddEdge(10, 500, 0, false));  // real half (10<500)
  ASSERT_OK(store.AddEdge(20, 3, 0, false));    // ghost half (20>3)

  const std::string path = ::testing::TempDir() + "/hermes_ghosts.snap";
  ASSERT_OK(DurableGraphStore::WriteSnapshot(store, path));
  GraphStore restored(2);
  ASSERT_OK(DurableGraphStore::LoadSnapshot(path, &restored));

  EXPECT_FALSE(*restored.EdgeIsGhost(10, 20));
  EXPECT_FALSE(*restored.EdgeIsGhost(10, 500));
  EXPECT_TRUE(*restored.EdgeIsGhost(20, 3));
  EXPECT_EQ(restored.NumRelationships(), store.NumRelationships());
  EXPECT_TRUE(restored.CheckLinks());
  std::remove(path.c_str());
}

TEST(DurableStoreTest, UnavailableStateSurvivesSnapshot) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.SetNodeState(1, NodeState::kUnavailable));
  const std::string path = ::testing::TempDir() + "/hermes_state.snap";
  ASSERT_OK(DurableGraphStore::WriteSnapshot(store, path));
  GraphStore restored(0);
  ASSERT_OK(DurableGraphStore::LoadSnapshot(path, &restored));
  EXPECT_TRUE(restored.NodeExists(1));
  EXPECT_FALSE(restored.HasNode(1));
  std::remove(path.c_str());
}

TEST(DurableStoreTest, TornLogTailLosesOnlyUnsyncedSuffix) {
  const std::string dir = FreshDir("hermes_torn");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    ASSERT_OK((*db)->CreateNode(1));
    ASSERT_OK((*db)->CreateNode(2));
    ASSERT_OK((*db)->AddEdge(1, 2, 0, true));
    ASSERT_OK((*db)->Sync());
  }
  // Crash simulation: truncate the final bytes of the log.
  {
    const std::string wal = dir + "/wal.log";
    const auto size = std::filesystem::file_size(wal);
    std::filesystem::resize_file(wal, size - 4);
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  const GraphStore& store = (*db)->store();
  // Nodes (earlier records) recovered; the torn edge append is lost.
  EXPECT_TRUE(store.HasNode(1));
  EXPECT_TRUE(store.HasNode(2));
  EXPECT_TRUE(store.FindEdge(1, 2).status().IsNotFound());
}

// Replay used to tolerate *any* AlreadyExists from the store, which let a
// log that disagrees with the snapshot (a diverged replica, a corrupted
// entry, an LSN-accounting bug) recover silently into the wrong state.
// Now a duplicate create is tolerated only when the entry's payload is
// already reflected verbatim.
TEST(DurableStoreTest, ReplayRejectsDuplicateCreateWithDivergentPayload) {
  const std::string dir = FreshDir("hermes_replay_divergent");
  {
    GraphStore store(0);
    ASSERT_OK(store.CreateNode(1, 1.0));
    ASSERT_TRUE(DurableGraphStore::WriteSnapshot(store, dir + "/snapshot.bin",
                                                 /*covered_lsn=*/0)
                    .ok());
  }
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.log");
    ASSERT_OK(wal);
    WalEntry e;
    e.type = WalOpType::kCreateNode;
    e.a = 1;
    e.weight = 2.0;  // disagrees with the snapshot's weight 1.0
    ASSERT_OK(wal->Append(e));
    ASSERT_OK(wal->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsIOError());
}

TEST(DurableStoreTest, ReplayToleratesDuplicateCreateWithMatchingPayload) {
  const std::string dir = FreshDir("hermes_replay_matching");
  {
    GraphStore store(0);
    ASSERT_OK(store.CreateNode(1, 1.0));
    ASSERT_TRUE(DurableGraphStore::WriteSnapshot(store, dir + "/snapshot.bin",
                                                 /*covered_lsn=*/0)
                    .ok());
  }
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.log");
    ASSERT_OK(wal);
    WalEntry e;
    e.type = WalOpType::kCreateNode;
    e.a = 1;
    e.weight = 1.0;  // same create the snapshot already contains
    ASSERT_OK(wal->Append(e));
    ASSERT_OK(wal->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  EXPECT_DOUBLE_EQ(*(*db)->store().NodeWeight(1), 1.0);
}

TEST(DurableStoreTest, ReplayToleratesEdgeAlreadyInSnapshot) {
  const std::string dir = FreshDir("hermes_replay_edge_dup");
  {
    GraphStore store(0);
    ASSERT_OK(store.CreateNode(1));
    ASSERT_OK(store.CreateNode(2));
    ASSERT_OK(store.AddEdge(1, 2, 7, true));
    ASSERT_TRUE(DurableGraphStore::WriteSnapshot(store, dir + "/snapshot.bin",
                                                 /*covered_lsn=*/0)
                    .ok());
  }
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.log");
    ASSERT_OK(wal);
    WalEntry e;
    e.type = WalOpType::kAddEdge;
    e.a = 1;
    e.b = 2;
    e.key = 7;
    e.flag = 1;
    ASSERT_OK(wal->Append(e));
    ASSERT_OK(wal->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  EXPECT_OK((*db)->store().FindEdge(1, 2));
}

TEST(DurableStoreTest, ReplayRejectsEdgeWithMissingEndpoint) {
  const std::string dir = FreshDir("hermes_replay_edge_bad");
  {
    GraphStore store(0);
    ASSERT_OK(store.CreateNode(1));
    ASSERT_TRUE(DurableGraphStore::WriteSnapshot(store, dir + "/snapshot.bin",
                                                 /*covered_lsn=*/0)
                    .ok());
  }
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.log");
    ASSERT_OK(wal);
    WalEntry e;
    e.type = WalOpType::kAddEdge;
    e.a = 1;
    e.b = 3;  // endpoint 3 exists nowhere
    e.flag = 1;
    ASSERT_OK(wal->Append(e));
    ASSERT_OK(wal->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsIOError());
}

TEST(DurableStoreTest, OpenOnEmptyDirectoryIsFreshStore) {
  const std::string dir = FreshDir("hermes_fresh");
  auto db = DurableGraphStore::Open(3, dir);
  ASSERT_OK(db);
  EXPECT_EQ((*db)->store().NumNodes(), 0u);
  EXPECT_EQ((*db)->store().partition_id(), 3u);
}

// Apply is the one logged-mutation path; a checkpoint marker is not a
// mutation, and logging one would hide every earlier entry from replay.
TEST(DurableStoreTest, ApplyRejectsCheckpointMarkerWithoutLogging) {
  const std::string dir = FreshDir("hermes_apply_checkpoint");
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  ASSERT_OK((*db)->CreateNode(1));
  const std::uint64_t next = (*db)->next_lsn();
  EXPECT_TRUE(
      (*db)->Apply({.type = WalOpType::kCheckpoint}).status().IsInvalidArgument());
  EXPECT_EQ((*db)->next_lsn(), next);
  auto added = (*db)->Apply(
      {.type = WalOpType::kAddEdge, .a = 1, .b = 7, .key = 3});
  ASSERT_OK(added);
  EXPECT_EQ(*added, *(*db)->store().FindEdge(1, 7));
}

TEST(DurableStoreTest, RepeatedCheckpointsStayConsistent) {
  const std::string dir = FreshDir("hermes_repeat");
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  for (VertexId v = 0; v < 50; ++v) {
    ASSERT_OK((*db)->CreateNode(v));
    if (v > 0) {
      ASSERT_OK((*db)->AddEdge(v - 1, v, 0, true));
    }
    if (v % 10 == 9) {
      ASSERT_OK((*db)->Checkpoint());
    }
  }
  ASSERT_OK((*db)->Sync());
  db->reset();  // close

  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->store().NumNodes(), 50u);
  EXPECT_EQ((*reopened)->store().NumRelationships(), 49u);
  EXPECT_TRUE((*reopened)->store().CheckLinks());
}

// --- Snapshot integrity --------------------------------------------------
//
// Layout (durable_store.cc): a 32-byte header, then the node count (u64)
// and the first node's id (u64) and weight (f64) at bytes 48..55.

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Writes a one-node snapshot as `dir`/snapshot.bin and returns its bytes.
std::string WriteOneNodeSnapshot(const std::string& dir) {
  GraphStore store(0);
  EXPECT_OK(store.CreateNode(7, 2.0));
  EXPECT_OK(DurableGraphStore::WriteSnapshot(store, dir + "/snapshot.bin"));
  return ReadBytes(dir + "/snapshot.bin");
}

void ExpectSnapshotRejected(const std::string& dir) {
  GraphStore restored(0);
  const Status load =
      DurableGraphStore::LoadSnapshot(dir + "/snapshot.bin", &restored);
  EXPECT_TRUE(load.IsIOError()) << load.ToString();
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsIOError()) << db.status().ToString();
}

TEST(DurableStoreTest, SnapshotChecksumCatchesFlippedWeightByte) {
  const std::string dir = FreshDir("hermes_snapshot_flip");
  std::string bytes = WriteOneNodeSnapshot(dir);
  ASSERT_GT(bytes.size(), 56u);
  bytes[54] ^= 0x01;  // without the CRC, 2.0 loads as 2.125
  WriteBytes(dir + "/snapshot.bin", bytes);
  ExpectSnapshotRejected(dir);
}

TEST(DurableStoreTest, SnapshotCutShortIsRejected) {
  const std::string dir = FreshDir("hermes_snapshot_short");
  const std::string bytes = WriteOneNodeSnapshot(dir);
  WriteBytes(dir + "/snapshot.bin", bytes.substr(0, bytes.size() - 3));
  ExpectSnapshotRejected(dir);
}

TEST(DurableStoreTest, SnapshotBodyLongerThanHeaderIsRejected) {
  const std::string dir = FreshDir("hermes_snapshot_long");
  const std::string bytes = WriteOneNodeSnapshot(dir);
  WriteBytes(dir + "/snapshot.bin", bytes + std::string(8, '\0'));
  ExpectSnapshotRejected(dir);
}

TEST(DurableStoreTest, PreviousSnapshotVersionIsRejected) {
  const std::string dir = FreshDir("hermes_snapshot_v3");
  std::string bytes = WriteOneNodeSnapshot(dir);
  bytes[0] = '3';  // the magic's low byte is the '4' of "HERMES04"
  WriteBytes(dir + "/snapshot.bin", bytes);
  ExpectSnapshotRejected(dir);
}

// Larger than the 64-page (512 KiB) cache the snapshot used to go
// through, with every record shape the format distinguishes.
TEST(DurableStoreTest, LargeSnapshotRoundTripsExactly) {
  const std::string dir = FreshDir("hermes_snapshot_large");
  constexpr VertexId kBase = 1000;  // remote ids below ghost, above real
  constexpr VertexId kNodes = 2000;
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  for (VertexId v = kBase; v < kBase + kNodes; ++v) {
    ASSERT_OK((*db)->CreateNode(v, 1.0 + static_cast<double>(v % 7) / 4));
    ASSERT_OK((*db)->SetNodeProperty(v, 0, std::string(200, 'a' + v % 26)));
  }
  for (VertexId v = kBase; v < kBase + kNodes; ++v) {
    const VertexId next = kBase + (v - kBase + 1) % kNodes;
    ASSERT_OK((*db)->AddEdge(v, next, 1, /*other_is_local=*/true));
    ASSERT_OK((*db)->SetEdgeProperty(v, next, 2, "since-" + std::to_string(v)));
    ASSERT_OK((*db)->AddEdge(v, 100000 + v, 3, /*other_is_local=*/false));
    ASSERT_OK((*db)->AddEdge(v, v % kBase, 4, /*other_is_local=*/false));
  }
  // Removing a node leaves its neighbours' half records behind.
  ASSERT_OK((*db)->RemoveNode(kBase + 10));
  ASSERT_OK((*db)->SetNodeState(kBase + 20, NodeState::kUnavailable));
  const GraphStore& before = (*db)->store();
  EXPECT_FALSE(*before.EdgeIsGhost(kBase + 5, 100000 + kBase + 5));
  EXPECT_TRUE(*before.EdgeIsGhost(kBase + 5, 5));
  const auto want = Canonicalize(before);
  ASSERT_OK((*db)->Checkpoint());
  db->reset();

  EXPECT_GT(std::filesystem::file_size(dir + "/snapshot.bin"), 512u << 10);
  auto log = WriteAheadLog::ReadAll(dir + "/wal.log", false);
  ASSERT_OK(log);
  EXPECT_TRUE(log->empty());  // the state below comes from the snapshot
  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  const GraphStore& after = (*reopened)->store();
  EXPECT_TRUE(after.CheckLinks());
  EXPECT_FALSE(after.HasNode(kBase + 20));
  EXPECT_TRUE(after.NodeExists(kBase + 20));
  const auto got = Canonicalize(after);
  EXPECT_TRUE(got == want) << DiffStates(got, want);
}

// Loading restores the dumps a snapshot was written from, in their
// order: rewriting a loaded snapshot gives the file back byte for byte.
// Multi-property chains pin the order (setting each property in dump
// order would prepend it and reverse the chain), and the store holds
// every record shape: full and half records, a ghost, two half records
// for one endpoint pair (a removed and re-created node) and an
// unavailable node.
TEST(DurableStoreTest, RewritingALoadedSnapshotIsByteIdentical) {
  GraphStore store(1);
  for (VertexId v = 1; v <= 6; ++v) {
    ASSERT_OK(store.CreateNode(v, static_cast<double>(v) / 2));
    for (std::uint32_t key = 0; key < 3; ++key) {
      ASSERT_OK(store.SetNodeProperty(v, key, std::to_string(v * 10 + key)));
    }
  }
  ASSERT_OK(store.AddEdge(1, 2, 1, true));
  ASSERT_OK(store.SetEdgeProperty(1, 2, 0, "a"));
  ASSERT_OK(store.SetEdgeProperty(1, 2, 1, std::string(40, 'b')));
  ASSERT_OK(store.AddEdge(2, 3, 2, true));
  ASSERT_OK(store.AddEdge(3, 4, 0, true));
  ASSERT_OK(store.AddEdge(4, 900, 3, false));  // real half
  ASSERT_OK(store.SetEdgeProperty(4, 900, 2, "c"));
  ASSERT_OK(store.AddEdge(5, 0, 3, false));  // ghost half
  ASSERT_OK(store.RemoveNode(3));  // 2 and 4 keep half records toward 3
  ASSERT_OK(store.CreateNode(3));
  ASSERT_OK(store.AddEdge(3, 4, 0, false));  // a second half for {3, 4}
  ASSERT_OK(store.AddEdge(3, 2, 0, true));   // upgrades 2's half to full
  ASSERT_OK(store.SetNodeState(6, NodeState::kUnavailable));
  ASSERT_TRUE(store.CheckLinks());

  const std::string dir = FreshDir("hermes_snapshot_rewrite");
  ASSERT_OK(DurableGraphStore::WriteSnapshot(store, dir + "/first.bin", 17));
  GraphStore loaded(1);
  std::uint64_t covered = 0;
  ASSERT_OK(DurableGraphStore::LoadSnapshot(dir + "/first.bin", &loaded,
                                            &covered));
  EXPECT_EQ(covered, 17u);
  EXPECT_TRUE(loaded.CheckLinks());
  EXPECT_TRUE(loaded.DumpNodes() == store.DumpNodes());
  EXPECT_TRUE(loaded.DumpRelationships() == store.DumpRelationships());
  ASSERT_OK(DurableGraphStore::WriteSnapshot(loaded, dir + "/second.bin",
                                             covered));
  EXPECT_TRUE(ReadBytes(dir + "/second.bin") == ReadBytes(dir + "/first.bin"));
}

// The snapshot that the store wrote for the operations of
// RewritingALoadedSnapshotIsByteIdentical, with covered LSN 17, while
// relationship records still carried Neo4j-style chain pointers. Record
// order, the flag word's linkage and ghost bits and every property's
// order are in these bytes, so the store must still write them for the
// same operations and load them back.
constexpr char kChainStoreSnapshotHex[] =
    "343053454d52454801000000284fd63d20020000000000001100000000000000"
    "06000000000000000100000000000000000000000000e03f0000000003000000"
    "0200000002000000313201000000020000003131000000000200000031300200"
    "000000000000000000000000f03f000000000300000002000000020000003232"
    "0100000002000000323100000000020000003230030000000000000000000000"
    "0000f03f00000000000000000400000000000000000000000000004000000000"
    "0300000002000000020000003432010000000200000034310000000002000000"
    "3430050000000000000000000000000004400000000003000000020000000200"
    "0000353201000000020000003531000000000200000035300600000000000000"
    "0000000000000840010000000300000002000000020000003632010000000200"
    "0000363100000000020000003630060000000000000001000000000000000200"
    "0000000000000100000006000000020000000100000028000000626262626262"
    "6262626262626262626262626262626262626262626262626262626262626262"
    "6262000000000100000061020000000000000003000000000000000200000006"
    "0000000000000003000000000000000400000000000000000000000500000000"
    "0000000400000000000000840300000000000003000000020000000100000002"
    "0000000100000063000000000000000005000000000000000300000005000000"
    "0000000003000000000000000400000000000000000000000200000000000000";

std::string HexDecode(std::string_view hex) {
  auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return bytes;
}

TEST(DurableStoreTest, ChainStoreSnapshotBytesStillWrittenAndLoaded) {
  GraphStore store(1);
  for (VertexId v = 1; v <= 6; ++v) {
    ASSERT_OK(store.CreateNode(v, static_cast<double>(v) / 2));
    for (std::uint32_t key = 0; key < 3; ++key) {
      ASSERT_OK(store.SetNodeProperty(v, key, std::to_string(v * 10 + key)));
    }
  }
  ASSERT_OK(store.AddEdge(1, 2, 1, true));
  ASSERT_OK(store.SetEdgeProperty(1, 2, 0, "a"));
  ASSERT_OK(store.SetEdgeProperty(1, 2, 1, std::string(40, 'b')));
  ASSERT_OK(store.AddEdge(2, 3, 2, true));
  ASSERT_OK(store.AddEdge(3, 4, 0, true));
  ASSERT_OK(store.AddEdge(4, 900, 3, false));  // real half
  ASSERT_OK(store.SetEdgeProperty(4, 900, 2, "c"));
  ASSERT_OK(store.AddEdge(5, 0, 3, false));  // ghost half
  ASSERT_OK(store.RemoveNode(3));  // 2 and 4 keep half records toward 3
  ASSERT_OK(store.CreateNode(3));
  ASSERT_OK(store.AddEdge(3, 4, 0, false));  // a second half for {3, 4}
  ASSERT_OK(store.AddEdge(3, 2, 0, true));   // upgrades 2's half to full
  ASSERT_OK(store.SetNodeState(6, NodeState::kUnavailable));

  const std::string pinned = HexDecode(kChainStoreSnapshotHex);
  const std::string dir = FreshDir("hermes_snapshot_pinned");
  ASSERT_OK(DurableGraphStore::WriteSnapshot(store, dir + "/written.bin", 17));
  EXPECT_TRUE(ReadBytes(dir + "/written.bin") == pinned);

  WriteBytes(dir + "/pinned.bin", pinned);
  GraphStore loaded(1);
  std::uint64_t covered = 0;
  ASSERT_OK(DurableGraphStore::LoadSnapshot(dir + "/pinned.bin", &loaded,
                                            &covered));
  EXPECT_EQ(covered, 17u);
  EXPECT_TRUE(loaded.CheckLinks());
  EXPECT_TRUE(loaded.DumpNodes() == store.DumpNodes());
  EXPECT_TRUE(loaded.DumpRelationships() == store.DumpRelationships());
}

// --- Snapshot bodies that decode but do not restore ------------------------
//
// Each body below is well framed (header, length and CRC are right), so
// only GraphStore::Restore can reject it. A rejected body is a corrupt
// snapshot: LoadSnapshot and Open both fail with IOError, never NotFound,
// which Open would take for "no snapshot yet".

struct HandRel {
  VertexId src;
  VertexId dst;
  std::uint32_t flags;  // bit1: linked on src's side, bit2: dst's
};

// Writes `dir`/snapshot.bin holding `nodes` (weight 1, no properties)
// and `rels` (type 0, no properties). Node i's state word is `states[i]`,
// 0 (available) past the end of `states`.
void WriteHandBuiltSnapshot(const std::string& dir,
                            const std::vector<VertexId>& nodes,
                            const std::vector<HandRel>& rels,
                            const std::vector<std::uint32_t>& states = {}) {
  WireWriter body;
  body.PutU64(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    body.PutU64(nodes[i]);
    body.PutF64(1.0);
    body.PutU32(i < states.size() ? states[i] : 0);
    body.PutU32(0);  // property count
  }
  body.PutU64(rels.size());
  for (const HandRel& r : rels) {
    body.PutU64(r.src);
    body.PutU64(r.dst);
    body.PutU32(0);  // type
    body.PutU32(r.flags);
    body.PutU32(0);  // property count
  }
  WireWriter file;
  file.PutU64(0x4845524d45533034ULL);  // "HERMES04"
  file.PutU32(0);                      // partition
  file.PutU32(Crc32(body.bytes().data(), body.bytes().size()));
  file.PutU64(body.bytes().size());
  file.PutU64(0);  // covered LSN
  file.PutRaw(body.bytes());
  WriteBytes(dir + "/snapshot.bin", file.bytes());
}

constexpr std::uint32_t kSrcLinked = 2;
constexpr std::uint32_t kDstLinked = 4;

TEST(DurableStoreTest, HandBuiltSnapshotLoads) {
  const std::string dir = FreshDir("hermes_hand_ok");
  WriteHandBuiltSnapshot(dir, {1, 2},
                         {{1, 2, kSrcLinked | kDstLinked}, {2, 7, kSrcLinked}});
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  EXPECT_EQ((*db)->store().NumRelationships(), 2u);
  EXPECT_EQ(*(*db)->store().Neighbors(2), (std::vector<VertexId>{1, 7}));
  EXPECT_TRUE((*db)->store().CheckLinks());
}

TEST(DurableStoreTest, SnapshotSelfLoopIsRejected) {
  const std::string dir = FreshDir("hermes_hand_self_loop");
  WriteHandBuiltSnapshot(dir, {1}, {{1, 1, kSrcLinked}});
  ExpectSnapshotRejected(dir);
}

TEST(DurableStoreTest, SnapshotRelationshipLinkedToNoChainIsRejected) {
  const std::string dir = FreshDir("hermes_hand_unlinked");
  WriteHandBuiltSnapshot(dir, {1, 2}, {{1, 2, 0}});
  ExpectSnapshotRejected(dir);
}

TEST(DurableStoreTest, SnapshotHalfRecordOfMissingNodeIsRejected) {
  const std::string dir = FreshDir("hermes_hand_half_missing");
  WriteHandBuiltSnapshot(dir, {1}, {{2, 5, kSrcLinked}});
  ExpectSnapshotRejected(dir);
}

TEST(DurableStoreTest, SnapshotFullRecordWithMissingOtherNodeIsRejected) {
  const std::string dir = FreshDir("hermes_hand_full_missing");
  WriteHandBuiltSnapshot(dir, {1}, {{1, 2, kSrcLinked | kDstLinked}});
  ExpectSnapshotRejected(dir);
}

TEST(DurableStoreTest, SnapshotDuplicateNodeIdIsRejected) {
  const std::string dir = FreshDir("hermes_hand_dup_node");
  WriteHandBuiltSnapshot(dir, {1, 1}, {});
  ExpectSnapshotRejected(dir);
}

// A half record linked on 2's side and a full record for the same pair
// both claim the link (2, 1). Replaying them through AddEdge used to accept
// this body: the full record's AddEdge found 2's half record and merged
// the two into one, so the store held fewer records than the snapshot.
TEST(DurableStoreTest, SnapshotDuplicateChainLinkIsRejected) {
  const std::string dir = FreshDir("hermes_hand_dup_link");
  WriteHandBuiltSnapshot(dir, {1, 2},
                         {{1, 2, kDstLinked}, {1, 2, kSrcLinked | kDstLinked}});
  ExpectSnapshotRejected(dir);
}

// A state word past kUnavailable names no NodeState. Loaded as is, it
// left a node that exists but is not available: every read and write of
// it answered Unavailable ("mid-migration") with no migration running,
// and every later checkpoint wrote the state back.
TEST(DurableStoreTest, SnapshotUnknownNodeStateIsRejected) {
  const std::string ok_dir = FreshDir("hermes_hand_state_ok");
  WriteHandBuiltSnapshot(ok_dir, {1, 2}, {}, {0, 1});
  auto db = DurableGraphStore::Open(0, ok_dir);
  ASSERT_OK(db);
  EXPECT_TRUE((*db)->store().HasNode(1));
  EXPECT_EQ(*(*db)->store().GetNodeState(2), NodeState::kUnavailable);

  const std::string dir = FreshDir("hermes_hand_state_bad");
  WriteHandBuiltSnapshot(dir, {1, 2}, {}, {0, 2});
  ExpectSnapshotRejected(dir);
}

// The same state as a kSetNodeState flag: replay fails with IOError, and
// the live path refuses the entry before it reaches the log.
TEST(DurableStoreTest, WalUnknownNodeStateIsRejected) {
  const std::string dir = FreshDir("hermes_wal_state_bad");
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.log");
    ASSERT_OK(wal);
    ASSERT_OK(wal->Append({.type = WalOpType::kCreateNode, .a = 1,
                           .weight = 1.0}));
    ASSERT_OK(wal->Append({.type = WalOpType::kSetNodeState, .a = 1,
                           .flag = 2}));
    ASSERT_OK(wal->Sync());
  }
  auto replayed = DurableGraphStore::Open(0, dir);
  ASSERT_FALSE(replayed.ok());
  EXPECT_TRUE(replayed.status().IsIOError()) << replayed.status().ToString();

  const std::string live = FreshDir("hermes_wal_state_live");
  {
    auto db = DurableGraphStore::Open(0, live);
    ASSERT_OK(db);
    ASSERT_OK((*db)->CreateNode(1));
    const Status st = (*db)->SetNodeState(1, static_cast<NodeState>(2));
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_TRUE((*db)->store().HasNode(1));
    ASSERT_OK((*db)->Sync());
  }
  auto reopened = DurableGraphStore::Open(0, live);
  ASSERT_OK(reopened);
  EXPECT_TRUE((*reopened)->store().HasNode(1));
}

}  // namespace
}  // namespace hermes
