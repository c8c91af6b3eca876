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
      m.op = MutateRequest::Op::kAddEdge;
      m.vertex = 5;
      m.other = 6;
      m.type_or_key = 3;
      m.node_state = WireNodeState::kUnavailable;
      m.weight = 1.5;
      m.other_is_local = true;
      m.value = "prop";
      return m;
    }
    case MsgType::kMutateReply: {
      MutateReply m;
      m.status = Status::OK();
      m.record_id = 77;
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
      m.vertex = 1234;
      return m;
    }
    case MsgType::kExtractReply: {
      ExtractReply m;
      m.status = Status::OK();
      m.id = 1234;
      m.weight = 3.25;
      m.wire_bytes = 999;
      m.properties = {{4, "val"}};
      m.relationships.resize(1);
      m.relationships[0].other = 56;
      m.relationships[0].type = 2;
      m.relationships[0].properties_included = false;
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
  /// EncodeFrame() output at kWireVersion == 3, hex-encoded.
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
     "3a00000003010201080706050403020104000000010000000300000001000000000000"
     "000200000000000000efbeadde000000000107000000015389ee88"},
    {MsgType::kNeighborsReply, "NeighborsReply",
     "4700000003020201080706050403020104000000010000000000000000020000000000"
     "000000020000000a000000000000000b000000000000000204000000676f6e65000000"
     "00454e00fe"},
    {MsgType::kProbeRequest, "ProbeRequest",
     "290000000303020108070605040302010400000001000000022a000000000000002b00"
     "0000000000008fde22dd"},
    {MsgType::kProbeReply, "ProbeReply",
     "1e000000030402010807060504030201040000000100000000000000000167294369"},
    {MsgType::kMutateRequest, "MutateRequest",
     "3f00000003050201080706050403020104000000010000000405000000000000000600"
     "0000000000000300000001000000000000f83f010400000070726f70492d683b"},
    {MsgType::kMutateReply, "MutateReply",
     "25000000030602010807060504030201040000000100000000000000004d0000000000"
     "00004cb954ec"},
    {MsgType::kInstallChunkRequest, "InstallChunkRequest",
     "6100000003070201080706050403020104000000010000000100000009000000000000"
     "000000000000000040010000000100000001000000610100000009000000000000000a"
     "000000000000000100000000010100000002000000020000006262a2f5a900"},
    {MsgType::kInstallChunkReply, "InstallChunkReply",
     "2d00000003080201080706050403020104000000010000000000000000010000000000"
     "0000020000000000000027a0b530"},
    {MsgType::kExtractRequest, "ExtractRequest",
     "200000000309020108070605040302010400000001000000d2040000000000007b872d"
     "55"},
    {MsgType::kExtractReply, "ExtractReply",
     "59000000030a0201080706050403020104000000010000000000000000d20400000000"
     "00000000000000000a40e70300000000000001000000040000000300000076616c0100"
     "00003800000000000000020000000000000000fe3d561d"},
    {MsgType::kAuxExchangeRequest, "AuxExchangeRequest",
     "18000000030b020108070605040302010400000001000000c4759a30"},
    {MsgType::kAuxExchangeReply, "AuxExchangeReply",
     "41000000030c0201080706050403020104000000010000000000000000020000001500"
     "0000000000000300000000000000160000000000000001000000000000004733520e"},
    {MsgType::kHealthRequest, "HealthRequest",
     "18000000030d020108070605040302010400000001000000d77e46ad"},
    {MsgType::kHealthReply, "HealthReply",
     "3d000000030e0201080706050403020104000000010000000000000000001000000000"
     "00006400000000000000c8000000000000003200000000000000fa48d597"},
    {MsgType::kCheckpointRequest, "CheckpointRequest",
     "18000000030f0201080706050403020104000000010000002678f2d9"},
    {MsgType::kCheckpointReply, "CheckpointReply",
     "21000000031002010807060504030201040000000100000008040000006469736b2267"
     "dcae"},
    {MsgType::kDumpRequest, "DumpRequest",
     "180000000311020108070605040302010400000001000000ba55cd5e"},
    {MsgType::kDumpReply, "DumpReply",
     "5a00000003120201080706050403020104000000010000000000000000020000000100"
     "000000000000000000000000f03f020000000000000000000000000010400100000001"
     "0000000000000002000000000000000000000001f381d053"},
};

TEST(NetGoldenTest, WireVersionIsPinned) {
  // The fixtures below were generated at version 3 (NeighborsRequest
  // gained count_reads; AuxExchange became the read-count fold); a
  // version bump must come with regenerated fixtures (see the procedure
  // in the header comment).
  EXPECT_EQ(kWireVersion, 3);
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
