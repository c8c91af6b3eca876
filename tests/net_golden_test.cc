// Golden wire-format fixtures (DESIGN.md §12): one committed hex frame
// per message type at kWireVersion. These bytes are the protocol
// contract — any encoder change that alters them breaks mixed-version
// clusters silently, so this test fails loudly instead.
//
// If you changed the encoding ON PURPOSE:
//   1. Bump kWireVersion in src/net/wire.h.
//   2. Re-run this test; copy each "actual:" hex string over the stale
//      fixture below.
//   3. Document the new layout in DESIGN.md §12 (frame layout table and
//      the version history list).
// If you did NOT change the encoding on purpose, your change is a wire
// break — fix the code, not the fixtures.

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "test_util.h"

#include "net/message.h"
#include "net/wire.h"

namespace hermes {
namespace {

std::string HexEncode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<std::uint8_t>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

/// Deterministic reference payload for each message type. Every field is
/// set to a distinctive non-default value so a field reorder, width
/// change, or dropped field shows up in the bytes.
MessagePayload GoldenPayload(MsgType type) {
  switch (type) {
    case MsgType::kNeighborsRequest: {
      NeighborsRequest m;
      m.vertices = {1, 2, 0xdeadbeefull};
      m.has_type = true;
      m.type = 7;
      m.count_reads = true;
      return m;
    }
    case MsgType::kNeighborsReply: {
      NeighborsReply m;
      m.status = Status::OK();
      m.results.resize(2);
      m.results[0].status = Status::OK();
      m.results[0].neighbors = {10, 11};
      m.results[1].status = Status::NotFound("gone");
      return m;
    }
    case MsgType::kProbeRequest: {
      ProbeRequest m;
      m.mode = ProbeRequest::Mode::kEdgeIsGhost;
      m.vertex = 42;
      m.other = 43;
      return m;
    }
    case MsgType::kProbeReply: {
      ProbeReply m;
      m.status = Status::OK();
      m.truth = true;
      return m;
    }
    case MsgType::kMutateRequest: {
      MutateRequest m;
      m.entries.resize(2);
      m.entries[0].op = MutateRequest::Op::kAddEdge;
      m.entries[0].vertex = 5;
      m.entries[0].other = 6;
      m.entries[0].type_or_key = 3;
      m.entries[0].node_state = WireNodeState::kUnavailable;
      m.entries[0].weight = 1.5;
      m.entries[0].other_is_local = true;
      m.entries[0].value = "prop";
      m.entries[1].op = MutateRequest::Op::kSetNodeState;
      m.entries[1].vertex = 8;
      m.entries[1].node_state = WireNodeState::kUnavailable;
      return m;
    }
    case MsgType::kMutateReply: {
      MutateReply m;
      m.status = Status::OK();
      m.record_id = 77;
      m.applied = 2;
      return m;
    }
    case MsgType::kInstallChunkRequest: {
      InstallChunkRequest m;
      m.nodes.resize(1);
      m.nodes[0].id = 9;
      m.nodes[0].weight = 2.0;
      m.nodes[0].properties = {{1, "a"}};
      m.edges.resize(1);
      m.edges[0].v = 9;
      m.edges[0].other = 10;
      m.edges[0].type = 1;
      m.edges[0].other_is_local = false;
      m.edges[0].properties_included = true;
      m.edges[0].properties = {{2, "bb"}};
      return m;
    }
    case MsgType::kInstallChunkReply: {
      InstallChunkReply m;
      m.status = Status::OK();
      m.nodes_created = 1;
      m.edges_created = 2;
      return m;
    }
    case MsgType::kExtractRequest: {
      ExtractRequest m;
      m.vertices = {1234, 1235};
      return m;
    }
    case MsgType::kExtractReply: {
      ExtractReply m;
      m.status = Status::OK();
      m.snapshots.resize(2);
      m.snapshots[0].id = 1234;
      m.snapshots[0].weight = 3.25;
      m.snapshots[0].wire_bytes = 999;
      m.snapshots[0].properties = {{4, "val"}};
      m.snapshots[0].relationships.resize(1);
      m.snapshots[0].relationships[0].other = 56;
      m.snapshots[0].relationships[0].type = 2;
      m.snapshots[0].relationships[0].properties_included = false;
      m.snapshots[1].id = 1235;
      m.snapshots[1].weight = 0.5;
      m.snapshots[1].wire_bytes = 24;
      return m;
    }
    case MsgType::kAuxExchangeRequest:
      return AuxExchangeRequest{};
    case MsgType::kAuxExchangeReply: {
      AuxExchangeReply m;
      m.status = Status::OK();
      m.folded = {{21, 3}, {22, 1}};
      return m;
    }
    case MsgType::kHealthRequest:
      return HealthRequest{};
    case MsgType::kHealthReply: {
      HealthReply m;
      m.status = Status::OK();
      m.store_bytes = 4096;
      m.nodes = 100;
      m.relationships = 200;
      m.ghost_relationships = 50;
      return m;
    }
    case MsgType::kCheckpointRequest:
      return CheckpointRequest{};
    case MsgType::kCheckpointReply: {
      CheckpointReply m;
      m.status = Status::IOError("disk");
      return m;
    }
    case MsgType::kDumpRequest:
      return DumpRequest{};
    case MsgType::kDumpReply: {
      DumpReply m;
      m.status = Status::OK();
      m.nodes = {{1, 1.0}, {2, 4.0}};
      m.rels.resize(1);
      m.rels[0].src = 1;
      m.rels[0].dst = 2;
      m.rels[0].type = 0;
      m.rels[0].ghost = true;
      return m;
    }
  }
  return HealthRequest{};
}

struct GoldenCase {
  MsgType type;
  const char* name;
  /// EncodeFrame() output at kWireVersion == 4, hex-encoded.
  const char* hex;
};

// Fixture frames use request_id 0x0102030405060708, attempt 0x0102
// (a retry, so the attempt counter is visible in the bytes), src 4,
// dst 1.
constexpr std::uint64_t kGoldenRequestId = 0x0102030405060708ull;
constexpr std::uint16_t kGoldenAttempt = 0x0102;
constexpr EndpointId kGoldenSrc = 4;
constexpr EndpointId kGoldenDst = 1;

const GoldenCase kGoldenCases[] = {
    {MsgType::kNeighborsRequest, "NeighborsRequest",
     "3a00000004010201080706050403020104000000010000000300000001000000000000"
     "000200000000000000efbeadde0000000001070000000151d5968c"},
    {MsgType::kNeighborsReply, "NeighborsReply",
     "4700000004020201080706050403020104000000010000000000000000020000000000"
     "000000020000000a000000000000000b000000000000000204000000676f6e65000000"
     "004fff27ea"},
    {MsgType::kProbeRequest, "ProbeRequest",
     "290000000403020108070605040302010400000001000000022a000000000000002b00"
     "00000000000050b710e9"},
    {MsgType::kProbeReply, "ProbeReply",
     "1e0000000404020108070605040302010400000001000000000000000001415280b1"},
    {MsgType::kMutateRequest, "MutateRequest",
     "6600000004050201080706050403020104000000010000000200000004050000000000"
     "000006000000000000000300000001000000000000f83f010400000070726f70020800"
     "000000000000000000000000000000000000010000000000000000000000000052c0d1"
     "cd"},
    {MsgType::kMutateReply, "MutateReply",
     "2d000000040602010807060504030201040000000100000000000000004d0000000000"
     "000002000000000000005e9c1663"},
    {MsgType::kInstallChunkRequest, "InstallChunkRequest",
     "6100000004070201080706050403020104000000010000000100000009000000000000"
     "000000000000000040010000000100000001000000610100000009000000000000000a"
     "000000000000000100000000010100000002000000020000006262acb5b26e"},
    {MsgType::kInstallChunkReply, "InstallChunkReply",
     "2d00000004080201080706050403020104000000010000000000000000010000000000"
     "00000200000000000000835940c5"},
    {MsgType::kExtractRequest, "ExtractRequest",
     "2c000000040902010807060504030201040000000100000002000000d2040000000000"
     "00d30400000000000006ca8eba"},
    {MsgType::kExtractReply, "ExtractReply",
     "7d000000040a020108070605040302010400000001000000000000000002000000d204"
     "0000000000000000000000000a40e70300000000000001000000040000000300000076"
     "616c010000003800000000000000020000000000000000d30400000000000000000000"
     "0000e03f18000000000000000000000000000000d73194b5"},
    {MsgType::kAuxExchangeRequest, "AuxExchangeRequest",
     "18000000040b02010807060504030201040000000100000057d3ded1"},
    {MsgType::kAuxExchangeReply, "AuxExchangeReply",
     "41000000040c0201080706050403020104000000010000000000000000020000001500"
     "000000000000030000000000000016000000000000000100000000000000bbd641a4"},
    {MsgType::kHealthRequest, "HealthRequest",
     "18000000040d02010807060504030201040000000100000044d8024c"},
    {MsgType::kHealthReply, "HealthReply",
     "3d000000040e0201080706050403020104000000010000000000000000001000000000"
     "00006400000000000000c8000000000000003200000000000000c67781dc"},
    {MsgType::kCheckpointRequest, "CheckpointRequest",
     "18000000040f020108070605040302010400000001000000b5deb638"},
    {MsgType::kCheckpointReply, "CheckpointReply",
     "21000000041002010807060504030201040000000100000008040000006469736b9f6e"
     "ba5c"},
    {MsgType::kDumpRequest, "DumpRequest",
     "18000000041102010807060504030201040000000100000029f389bf"},
    {MsgType::kDumpReply, "DumpReply",
     "5a00000004120201080706050403020104000000010000000000000000020000000100"
     "000000000000000000000000f03f020000000000000000000000000010400100000001"
     "000000000000000200000000000000000000000167123e20"},
};

TEST(NetGoldenTest, WireVersionIsPinned) {
  // The fixtures below were generated at version 4 (Extract carries a
  // vertex list and one snapshot per vertex; Mutate carries a list of
  // entries and replies with the count applied); a version bump must
  // come with regenerated fixtures (see the procedure in the header
  // comment).
  EXPECT_EQ(kWireVersion, 4);
}

/// Decodes a committed hex fixture from an older wire version and checks
/// it is rejected: mixed-version clusters must fail loudly, with
/// InvalidArgument naming the version, never with a misread envelope.
void ExpectOldVersionRejected(const char* hex) {
  std::string frame;
  for (std::size_t i = 0; hex[i] != '\0'; i += 2) {
    auto nibble = [](char c) {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    frame.push_back(
        static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  Result<Envelope> decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument())
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
      << decoded.status().ToString();
}

TEST(NetGoldenTest, VersionOneFrameIsRejected) {
  // The v1 HealthRequest fixture, byte for byte as committed before the
  // v2 bump.
  ExpectOldVersionRejected(
      "18000000010d0000080706050403020104000000010000009ba8fae5");
}

TEST(NetGoldenTest, VersionTwoFrameIsRejected) {
  // The v2 HealthRequest fixture, byte for byte as committed before the
  // v3 bump.
  ExpectOldVersionRejected(
      "18000000020d020108070605040302010400000001000000914521c8");
}

TEST(NetGoldenTest, VersionThreeFrameIsRejected) {
  // The v3 HealthRequest fixture, byte for byte as committed before the
  // v4 bump.
  ExpectOldVersionRejected(
      "18000000030d020108070605040302010400000001000000d77e46ad");
}

TEST(NetGoldenTest, EveryMessageTypeMatchesItsFixture) {
  ASSERT_EQ(std::size(kGoldenCases), 18u);
  for (const GoldenCase& c : kGoldenCases) {
    Envelope env;
    env.request_id = kGoldenRequestId;
    env.attempt = kGoldenAttempt;
    env.src = kGoldenSrc;
    env.dst = kGoldenDst;
    env.payload = GoldenPayload(c.type);
    ASSERT_EQ(env.type(), c.type) << c.name;
    Result<std::string> frame = EncodeFrame(env);
    ASSERT_OK(frame) << c.name;
    const std::string actual = HexEncode(*frame);
    EXPECT_EQ(actual, c.hex)
        << "WIRE FORMAT CHANGE DETECTED for " << c.name << " —\n"
        << "this breaks protocol compatibility. If intentional: bump\n"
        << "kWireVersion in src/net/wire.h, update DESIGN.md §12, and\n"
        << "replace the fixture with\n  actual: " << actual;
    // The committed fixture must itself decode: guards against fixtures
    // regenerated from a broken encoder.
    Result<Envelope> decoded = DecodeFrame(*frame);
    ASSERT_OK(decoded) << c.name;
    EXPECT_EQ(decoded->type(), c.type) << c.name;
    EXPECT_EQ(decoded->request_id, kGoldenRequestId) << c.name;
    EXPECT_EQ(decoded->attempt, kGoldenAttempt) << c.name;
  }
}

}  // namespace
}  // namespace hermes
