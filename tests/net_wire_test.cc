// Property/fuzz battery for the typed wire protocol (DESIGN.md §12).
//
// For every message type: seeded random payloads must survive
// encode → decode → re-encode byte-identically, and every way of
// damaging a valid frame — truncation at any prefix, any single bit
// flip, a wrong CRC, an oversized frame, a hostile element count —
// must surface as a Status, never a crash or out-of-bounds read
// (the asan-ubsan preset is the teeth behind that claim).

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/crc32.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/message.h"
#include "net/wire.h"

namespace hermes {
namespace {

std::string RandomString(Rng* rng, std::size_t max_len) {
  const std::size_t len = rng->Uniform(max_len + 1);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return s;
}

Status RandomStatus(Rng* rng) {
  const auto code = static_cast<StatusCode>(
      rng->Uniform(static_cast<std::uint64_t>(StatusCode::kNotImplemented) +
                   1));
  if (code == StatusCode::kOk) return Status::OK();
  return Status(code, RandomString(rng, 24));
}

double RandomF64(Rng* rng) {
  // Raw bit patterns cover every value class (denormals, infinities,
  // NaNs); PutF64/ReadF64 must round-trip all of them bit-exactly.
  std::uint64_t bits = rng->Next();
  double v = 0.0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::vector<WireProperty> RandomProperties(Rng* rng) {
  std::vector<WireProperty> props(rng->Uniform(4));
  for (auto& p : props) {
    p.key = static_cast<std::uint32_t>(rng->Next());
    p.value = RandomString(rng, 16);
  }
  return props;
}

MessagePayload RandomPayload(MsgType type, Rng* rng) {
  switch (type) {
    case MsgType::kNeighborsRequest: {
      NeighborsRequest m;
      m.vertices.resize(rng->Uniform(8));
      for (auto& v : m.vertices) v = rng->Next();
      m.has_type = rng->Uniform(2) == 1;
      m.type = static_cast<std::uint32_t>(rng->Next());
      m.count_reads = rng->Uniform(2) == 1;
      return m;
    }
    case MsgType::kNeighborsReply: {
      NeighborsReply m;
      m.status = RandomStatus(rng);
      m.results.resize(rng->Uniform(8));
      for (auto& a : m.results) {
        a.status = RandomStatus(rng);
        a.neighbors.resize(rng->Uniform(8));
        for (auto& n : a.neighbors) n = rng->Next();
      }
      return m;
    }
    case MsgType::kProbeRequest: {
      ProbeRequest m;
      m.mode = static_cast<ProbeRequest::Mode>(rng->Uniform(3));
      m.vertex = rng->Next();
      m.other = rng->Next();
      return m;
    }
    case MsgType::kProbeReply: {
      ProbeReply m;
      m.status = RandomStatus(rng);
      m.truth = rng->Uniform(2) == 1;
      return m;
    }
    case MsgType::kMutateRequest: {
      MutateRequest m;
      m.entries.resize(rng->Uniform(5));
      for (auto& e : m.entries) {
        e.op = static_cast<MutateRequest::Op>(rng->Uniform(8));
        e.vertex = rng->Next();
        e.other = rng->Next();
        e.type_or_key = static_cast<std::uint32_t>(rng->Next());
        e.node_state = static_cast<WireNodeState>(rng->Uniform(2));
        e.weight = RandomF64(rng);
        e.other_is_local = rng->Uniform(2) == 1;
        e.value = RandomString(rng, 32);
      }
      return m;
    }
    case MsgType::kMutateReply: {
      MutateReply m;
      m.status = RandomStatus(rng);
      m.record_id = rng->Next();
      m.applied = rng->Next();
      return m;
    }
    case MsgType::kInstallChunkRequest: {
      InstallChunkRequest m;
      m.nodes.resize(rng->Uniform(4));
      for (auto& n : m.nodes) {
        n.id = rng->Next();
        n.weight = RandomF64(rng);
        n.properties = RandomProperties(rng);
      }
      m.edges.resize(rng->Uniform(4));
      for (auto& e : m.edges) {
        e.v = rng->Next();
        e.other = rng->Next();
        e.type = static_cast<std::uint32_t>(rng->Next());
        e.other_is_local = rng->Uniform(2) == 1;
        e.properties_included = rng->Uniform(2) == 1;
        e.properties = RandomProperties(rng);
      }
      return m;
    }
    case MsgType::kInstallChunkReply: {
      InstallChunkReply m;
      m.status = RandomStatus(rng);
      m.nodes_created = rng->Next();
      m.edges_created = rng->Next();
      return m;
    }
    case MsgType::kExtractRequest: {
      ExtractRequest m;
      m.vertices.resize(rng->Uniform(8));
      for (auto& v : m.vertices) v = rng->Next();
      return m;
    }
    case MsgType::kExtractReply: {
      ExtractReply m;
      m.status = RandomStatus(rng);
      m.snapshots.resize(rng->Uniform(4));
      for (auto& snap : m.snapshots) {
        snap.id = rng->Next();
        snap.weight = RandomF64(rng);
        snap.wire_bytes = rng->Next();
        snap.properties = RandomProperties(rng);
        snap.relationships.resize(rng->Uniform(4));
        for (auto& rel : snap.relationships) {
          rel.other = rng->Next();
          rel.type = static_cast<std::uint32_t>(rng->Next());
          rel.properties_included = rng->Uniform(2) == 1;
          rel.properties = RandomProperties(rng);
        }
      }
      return m;
    }
    case MsgType::kAuxExchangeRequest:
      return AuxExchangeRequest{};
    case MsgType::kAuxExchangeReply: {
      AuxExchangeReply m;
      m.status = RandomStatus(rng);
      m.folded.resize(rng->Uniform(6));
      for (auto& e : m.folded) {
        e.vertex = rng->Next();
        e.reads = rng->Next();
      }
      return m;
    }
    case MsgType::kHealthRequest:
      return HealthRequest{};
    case MsgType::kHealthReply: {
      HealthReply m;
      m.status = RandomStatus(rng);
      m.store_bytes = rng->Next();
      m.nodes = rng->Next();
      m.relationships = rng->Next();
      m.ghost_relationships = rng->Next();
      return m;
    }
    case MsgType::kCheckpointRequest:
      return CheckpointRequest{};
    case MsgType::kCheckpointReply: {
      CheckpointReply m;
      m.status = RandomStatus(rng);
      return m;
    }
    case MsgType::kDumpRequest:
      return DumpRequest{};
    case MsgType::kDumpReply: {
      DumpReply m;
      m.status = RandomStatus(rng);
      m.nodes.resize(rng->Uniform(4));
      for (auto& n : m.nodes) {
        n.id = rng->Next();
        n.weight = RandomF64(rng);
      }
      m.rels.resize(rng->Uniform(4));
      for (auto& rel : m.rels) {
        rel.src = rng->Next();
        rel.dst = rng->Next();
        rel.type = static_cast<std::uint32_t>(rng->Next());
        rel.ghost = rng->Uniform(2) == 1;
      }
      return m;
    }
  }
  HERMES_CHECK(false);  // unreachable: every MsgType handled above
  return HealthRequest{};
}

constexpr int kFirstType = 1;
constexpr int kLastType = 18;

Envelope RandomEnvelope(MsgType type, Rng* rng) {
  Envelope env;
  env.request_id = rng->Next();
  env.src = static_cast<EndpointId>(rng->Uniform(64));
  env.dst = static_cast<EndpointId>(rng->Uniform(64));
  env.payload = RandomPayload(type, rng);
  return env;
}

/// Seeds are sharded so ctest runs the fuzz corpus in parallel.
class NetWireFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetWireFuzzTest, RoundTripIsByteIdentical) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 64; ++iter) {
    for (int t = kFirstType; t <= kLastType; ++t) {
      const auto type = static_cast<MsgType>(t);
      const Envelope env = RandomEnvelope(type, &rng);
      Result<std::string> frame = EncodeFrame(env);
      ASSERT_OK(frame) << "type " << t;
      Result<Envelope> decoded = DecodeFrame(*frame);
      ASSERT_OK(decoded) << "type " << t;
      EXPECT_EQ(decoded->request_id, env.request_id);
      EXPECT_EQ(decoded->src, env.src);
      EXPECT_EQ(decoded->dst, env.dst);
      ASSERT_EQ(static_cast<int>(decoded->type()), t);
      Result<std::string> again = EncodeFrame(*decoded);
      ASSERT_OK(again);
      EXPECT_EQ(*frame, *again)
          << "re-encode of type " << t << " is not byte-identical";
    }
  }
}

TEST_P(NetWireFuzzTest, TruncationAlwaysReturnsStatus) {
  Rng rng(GetParam() + 1000);
  for (int t = kFirstType; t <= kLastType; ++t) {
    const auto type = static_cast<MsgType>(t);
    Result<std::string> frame = EncodeFrame(RandomEnvelope(type, &rng));
    ASSERT_OK(frame);
    for (std::size_t len = 0; len < frame->size(); ++len) {
      Result<Envelope> decoded =
          DecodeFrame(std::string_view(frame->data(), len));
      EXPECT_FALSE(decoded.ok())
          << "type " << t << " truncated to " << len << " of "
          << frame->size() << " bytes decoded successfully";
    }
  }
}

TEST_P(NetWireFuzzTest, EverySingleBitFlipIsDetected) {
  Rng rng(GetParam() + 2000);
  for (int t = kFirstType; t <= kLastType; ++t) {
    const auto type = static_cast<MsgType>(t);
    Result<std::string> frame = EncodeFrame(RandomEnvelope(type, &rng));
    ASSERT_OK(frame);
    // Length, version, type, and CRC checks together must catch any
    // single-bit corruption anywhere in the frame.
    for (std::size_t byte = 0; byte < frame->size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string damaged = *frame;
        damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
        Result<Envelope> decoded = DecodeFrame(damaged);
        EXPECT_FALSE(decoded.ok())
            << "type " << t << ": flipping bit " << bit << " of byte "
            << byte << " went undetected";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetWireFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(NetWireTest, OversizedEncodeRejected) {
  Envelope env;
  MutateRequest big;
  big.entries.resize(1);
  big.entries[0].value.assign(kMaxFrameBytes, 'x');
  env.payload = std::move(big);
  Result<std::string> frame = EncodeFrame(env);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsInvalidArgument()) << frame.status().ToString();
}

TEST(NetWireTest, OversizedDecodeRejected) {
  const std::string frame(kMaxFrameBytes + 1, '\0');
  Result<Envelope> decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

/// Builds a frame by hand — correct length prefix and CRC — so the
/// header checks pass and the damage under test is reached.
std::string CraftFrame(std::uint8_t version, std::uint8_t type,
                       std::uint16_t attempt, std::string_view payload) {
  WireWriter body;
  body.PutU8(version);
  body.PutU8(type);
  body.PutU16(attempt);
  body.PutU64(7);  // request_id
  body.PutU32(1);  // src
  body.PutU32(0);  // dst
  body.PutRaw(payload);
  const std::uint32_t crc = Crc32(body.bytes().data(), body.size());
  WireWriter frame;
  frame.PutU32(static_cast<std::uint32_t>(body.size() + 4));
  frame.PutRaw(body.bytes());
  frame.PutU32(crc);
  return frame.TakeBytes();
}

TEST(NetWireTest, HostileElementCountRejectedWithoutAllocation) {
  // A NeighborsRequest claiming 2^32-1 vertices in a tiny frame: the
  // count validator must reject it against the actual remaining bytes
  // instead of reserving gigabytes.
  WireWriter payload;
  payload.PutU32(0xffffffffu);  // vertex count
  const std::string frame = CraftFrame(
      kWireVersion, static_cast<std::uint8_t>(MsgType::kNeighborsRequest), 0,
      payload.bytes());
  Result<Envelope> decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsOutOfRange()) << decoded.status().ToString();
}

TEST(NetWireTest, HostileBatchCountsRejectedWithoutAllocation) {
  // Each batched shape claiming 2^32-1 elements in a tiny frame: the
  // count is checked against the bytes left (35 per Mutate entry, 8 per
  // Extract vertex, 32 per snapshot) before anything is reserved.
  WireWriter count_only;
  count_only.PutU32(0xffffffffu);
  WireWriter reply;  // OK status, then the snapshot count
  PutStatus(Status::OK(), &reply);
  reply.PutU32(0xffffffffu);
  // A count one past what the bytes hold: two whole entries under 3.
  // An entry's bytes sit in a one-entry frame between the length prefix,
  // the 20-byte header and the entry count, and the CRC.
  WireWriter short_batch;
  short_batch.PutU32(3);
  for (int i = 0; i < 2; ++i) {
    Envelope one;
    one.payload = MutateRequest{.entries = {{.vertex = 7}}};
    const Result<std::string> frame = EncodeFrame(one);
    ASSERT_OK(frame);
    constexpr std::size_t kBeforeEntry = 4 + 20 + 4;
    short_batch.PutRaw(std::string_view(*frame).substr(
        kBeforeEntry, frame->size() - kBeforeEntry - 4));
  }
  const struct {
    MsgType type;
    const WireWriter* payload;
  } cases[] = {{MsgType::kMutateRequest, &count_only},
               {MsgType::kExtractRequest, &count_only},
               {MsgType::kExtractReply, &reply},
               {MsgType::kMutateRequest, &short_batch}};
  for (const auto& c : cases) {
    const std::string frame =
        CraftFrame(kWireVersion, static_cast<std::uint8_t>(c.type), 0,
                   c.payload->bytes());
    Result<Envelope> decoded = DecodeFrame(frame);
    ASSERT_FALSE(decoded.ok()) << static_cast<int>(c.type);
    EXPECT_TRUE(decoded.status().IsOutOfRange())
        << static_cast<int>(c.type) << ": " << decoded.status().ToString();
  }
}

TEST(NetWireTest, OutOfRangeEnumsAreRejected) {
  // CRC-valid frames whose one damage is an enum byte past its last
  // value: only the codec's per-enum bound can reject them. Each last
  // value itself decodes.
  const auto probe = [](std::uint8_t mode) {
    WireWriter payload;
    payload.PutU8(mode);
    payload.PutU64(1);  // vertex
    payload.PutU64(2);  // other
    return CraftFrame(kWireVersion,
                      static_cast<std::uint8_t>(MsgType::kProbeRequest), 0,
                      payload.bytes());
  };
  const auto mutate = [](std::uint8_t op, std::uint8_t node_state) {
    WireWriter payload;
    payload.PutU32(1);  // one entry
    payload.PutU8(op);
    payload.PutU64(1);  // vertex
    payload.PutU64(2);  // other
    payload.PutU32(0);  // type_or_key
    payload.PutU8(node_state);
    payload.PutF64(0.0);    // weight
    payload.PutBool(false);  // other_is_local
    payload.PutString("");   // value
    return CraftFrame(kWireVersion,
                      static_cast<std::uint8_t>(MsgType::kMutateRequest), 0,
                      payload.bytes());
  };
  for (const std::string& frame : {probe(3), mutate(8, 0), mutate(0, 2)}) {
    Result<Envelope> decoded = DecodeFrame(frame);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsInvalidArgument())
        << decoded.status().ToString();
  }

  Result<Envelope> last_mode = DecodeFrame(probe(2));
  ASSERT_OK(last_mode);
  EXPECT_EQ(std::get<ProbeRequest>(last_mode->payload).mode,
            ProbeRequest::Mode::kEdgeIsGhost);
  Result<Envelope> last_op = DecodeFrame(mutate(7, 1));
  ASSERT_OK(last_op);
  const auto& entries = std::get<MutateRequest>(last_op->payload).entries;
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].op, MutateRequest::Op::kSetEdgeProperty);
  EXPECT_EQ(entries[0].node_state, WireNodeState::kUnavailable);
}

TEST(NetWireTest, BatchedMutateAndExtractRoundTripInOrder) {
  MutateRequest marks;
  for (VertexId v = 100; v < 164; ++v) {
    marks.entries.push_back({.op = MutateRequest::Op::kSetNodeState,
                             .vertex = v,
                             .node_state = WireNodeState::kUnavailable});
  }
  ExtractReply extracted;
  extracted.status = Status::OK();
  for (VertexId v = 100; v < 164; ++v) {
    ExtractReply::Snapshot& snap = extracted.snapshots.emplace_back();
    snap.id = v;
    snap.weight = 1.0 + static_cast<double>(v);
    snap.relationships.push_back({v + 1, 0, false, {}});
  }
  for (MessagePayload payload : {MessagePayload(marks),
                                 MessagePayload(extracted)}) {
    Envelope env;
    env.payload = std::move(payload);
    Result<std::string> frame = EncodeFrame(env);
    ASSERT_OK(frame);
    Result<Envelope> decoded = DecodeFrame(*frame);
    ASSERT_OK(decoded);
    if (const auto* m = std::get_if<MutateRequest>(&decoded->payload)) {
      ASSERT_EQ(m->entries.size(), 64u);
      for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(m->entries[i].vertex, 100 + i);
        EXPECT_EQ(m->entries[i].op, MutateRequest::Op::kSetNodeState);
        EXPECT_EQ(m->entries[i].node_state, WireNodeState::kUnavailable);
      }
    } else {
      const auto& r = std::get<ExtractReply>(decoded->payload);
      ASSERT_EQ(r.snapshots.size(), 64u);
      for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_EQ(r.snapshots[i].id, 100 + i);
        EXPECT_EQ(r.snapshots[i].weight, 101.0 + static_cast<double>(i));
        ASSERT_EQ(r.snapshots[i].relationships.size(), 1u);
        EXPECT_EQ(r.snapshots[i].relationships[0].other, 101 + i);
      }
    }
  }
}

/// Appends `v` one byte at a time: the per-element reference the block
/// codec must match byte for byte.
void AppendLe(std::string* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

TEST(NetWireTest, LongVertexListMatchesPerElementEncoding) {
  NeighborsReply reply;
  reply.status = Status::OK();
  NeighborsReply::Adjacency hub;
  hub.status = Status::OK();
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) hub.neighbors.push_back(rng.Next());
  reply.results.push_back(hub);
  NeighborsReply::Adjacency moving;
  moving.status = Status::Unavailable("mid-migration");
  reply.results.push_back(moving);
  Envelope env;
  env.attempt = 2;
  env.request_id = 0x0102030405060708ULL;
  env.src = 9;
  env.dst = 4;
  env.payload = reply;

  // The frame layout of DESIGN.md §12, written out field by field.
  std::string body;
  AppendLe(&body, kWireVersion, 1);
  AppendLe(&body, static_cast<std::uint8_t>(MsgType::kNeighborsReply), 1);
  AppendLe(&body, env.attempt, 2);
  AppendLe(&body, env.request_id, 8);
  AppendLe(&body, env.src, 4);
  AppendLe(&body, env.dst, 4);
  AppendLe(&body, 0, 1);  // reply status OK, empty message
  AppendLe(&body, 0, 4);
  AppendLe(&body, 2, 4);  // two adjacency lists
  AppendLe(&body, 0, 1);
  AppendLe(&body, 0, 4);
  AppendLe(&body, hub.neighbors.size(), 4);
  for (VertexId v : hub.neighbors) AppendLe(&body, v, 8);
  AppendLe(&body, static_cast<std::uint8_t>(StatusCode::kUnavailable), 1);
  AppendLe(&body, moving.status.message().size(), 4);
  body += moving.status.message();
  AppendLe(&body, 0, 4);  // no neighbours
  std::string want;
  AppendLe(&want, body.size() + 4, 4);
  want += body;
  AppendLe(&want, Crc32(body.data(), body.size()), 4);

  Result<std::string> frame = EncodeFrame(env);
  ASSERT_OK(frame);
  ASSERT_EQ(frame->size(), want.size());
  EXPECT_TRUE(*frame == want) << "block encoding differs from the reference";

  Result<Envelope> decoded = DecodeFrame(*frame);
  ASSERT_OK(decoded);
  const auto* back = std::get_if<NeighborsReply>(&decoded->payload);
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->results.size(), 2u);
  EXPECT_EQ(back->results[0].neighbors, hub.neighbors);
  EXPECT_TRUE(back->results[1].status.IsUnavailable());
  EXPECT_TRUE(back->results[1].neighbors.empty());
}

TEST(NetWireTest, VertexCountPastRemainingBytesFailsBeforeSizing) {
  // Three ids on the wire under a count of four.
  WireWriter list;
  list.PutU32(4);
  for (VertexId v : {11u, 12u, 13u}) list.PutU64(v);
  WireReader reader(list.bytes());
  std::vector<VertexId> out;
  const Status st = reader.ReadVertices(&out);
  EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
  EXPECT_EQ(out.capacity(), 0u);  // the bound tripped before the resize

  // The same list inside a NeighborsRequest: its trailing has_type, type
  // and count_reads fields (6 bytes) do not make room for a fourth id.
  WireWriter payload;
  payload.PutRaw(list.bytes());
  payload.PutBool(false);
  payload.PutU32(0);
  payload.PutBool(false);
  const std::string frame = CraftFrame(
      kWireVersion, static_cast<std::uint8_t>(MsgType::kNeighborsRequest), 0,
      payload.bytes());
  Result<Envelope> decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsOutOfRange()) << decoded.status().ToString();
}

TEST(NetWireTest, UnknownVersionRejected) {
  WireWriter payload;  // HealthRequest: empty payload
  const std::string frame = CraftFrame(
      kWireVersion + 1, static_cast<std::uint8_t>(MsgType::kHealthRequest), 0,
      payload.bytes());
  Result<Envelope> decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(NetWireTest, UnknownTypeRejected) {
  WireWriter payload;
  for (const std::uint8_t bad_type :
       {std::uint8_t{0}, std::uint8_t{19}, std::uint8_t{255}}) {
    const std::string frame =
        CraftFrame(kWireVersion, bad_type, 0, payload.bytes());
    Result<Envelope> decoded = DecodeFrame(frame);
    EXPECT_FALSE(decoded.ok()) << "type " << int{bad_type};
  }
}

TEST(NetWireTest, AttemptCounterRoundTrips) {
  // v2 repurposed the v1 reserved u16 as the retry attempt counter; it
  // must survive an encode/decode round trip so servers can log which
  // resend a duplicate frame came from.
  Envelope env;
  env.request_id = 7;
  env.attempt = 0x0102;
  env.src = 1;
  env.dst = 0;
  env.payload = HealthRequest{};
  Result<std::string> frame = EncodeFrame(env);
  ASSERT_OK(frame);
  Result<Envelope> decoded = DecodeFrame(*frame);
  ASSERT_OK(decoded);
  EXPECT_EQ(decoded->attempt, 0x0102);
  EXPECT_EQ(decoded->request_id, 7u);
}

TEST(NetWireTest, PriorVersionFrameRejected) {
  // v1 frames (reserved u16 still zero) must not decode: the attempt
  // field changed the header's meaning, so version 1 is a hard error
  // rather than a silent misread.
  WireWriter payload;
  const std::string frame = CraftFrame(
      1, static_cast<std::uint8_t>(MsgType::kHealthRequest), 0,
      payload.bytes());
  Result<Envelope> decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST(NetWireTest, TrailingGarbageAfterPayloadRejected) {
  // Extra bytes after a complete payload, re-CRC'd into a "valid" frame:
  // the decoder's exact-consumption check must still reject it.
  WireWriter payload;  // HealthRequest consumes zero bytes
  payload.PutU8(0xab);
  const std::string frame = CraftFrame(
      kWireVersion, static_cast<std::uint8_t>(MsgType::kHealthRequest), 0,
      payload.bytes());
  Result<Envelope> decoded = DecodeFrame(frame);
  EXPECT_FALSE(decoded.ok());
}

TEST(NetWireTest, ReaderPrimitivesRejectHostileInput) {
  {
    // Booleans are strictly 0/1 on the wire.
    const char byte = 2;
    WireReader r(std::string_view(&byte, 1));
    bool b = false;
    EXPECT_TRUE(r.ReadBool(&b).IsInvalidArgument());
  }
  {
    // String length exceeding the buffer.
    WireWriter w;
    w.PutU32(1000);
    w.PutRaw("abc");
    WireReader r(w.bytes());
    std::string s;
    EXPECT_TRUE(r.ReadString(&s).IsOutOfRange());
  }
  {
    // Unknown status code.
    WireWriter w;
    w.PutU8(200);
    w.PutString("boom");
    WireReader r(w.bytes());
    Status st = Status::OK();
    EXPECT_TRUE(ReadStatus(&r, &st).IsInvalidArgument());
  }
  {
    // Reading past the end leaves the cursor untouched.
    WireWriter w;
    w.PutU16(0x1234);
    WireReader r(w.bytes());
    std::uint32_t v32 = 0;
    EXPECT_TRUE(r.ReadU32(&v32).IsOutOfRange());
    std::uint16_t v16 = 0;
    ASSERT_OK(r.ReadU16(&v16));
    EXPECT_EQ(v16, 0x1234);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(NetWireTest, StatusRoundTripsThroughWire) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const Status original = RandomStatus(&rng);
    WireWriter w;
    PutStatus(original, &w);
    WireReader r(w.bytes());
    Status decoded = Status::OK();
    ASSERT_OK(ReadStatus(&r, &decoded));
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
  }
}

}  // namespace
}  // namespace hermes
