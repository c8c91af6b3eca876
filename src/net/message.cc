#include "net/message.h"

#include "common/crc32.h"

namespace hermes {

namespace {

/// Minimum encoded sizes, used to bound element counts before reserving.
constexpr std::size_t kMinPropertyBytes = 8;   // key u32 + length u32
constexpr std::size_t kMinAdjacencyBytes = 9;  // status (1+4) + count u32
constexpr std::size_t kMinNodeBytes = 20;      // id + weight + prop count
constexpr std::size_t kMinEdgeBytes = 26;      // ids + type + flags + count
constexpr std::size_t kMinRelBytes = 17;       // other + type + flag + count
constexpr std::size_t kMinSnapshotBytes = 32;  // id + weight + bytes + counts
constexpr std::size_t kMinMutateEntryBytes = 35;  // op .. flag + value length
constexpr std::size_t kMinAuxEntryBytes = 16;  // vertex + reads
constexpr std::size_t kMinDumpNodeBytes = 16;  // id + weight
constexpr std::size_t kMinDumpRelBytes = 21;   // src + dst + type + ghost

void EncodeProperties(const std::vector<WireProperty>& props, WireWriter* w) {
  w->PutU32(static_cast<std::uint32_t>(props.size()));
  for (const WireProperty& p : props) {
    w->PutU32(p.key);
    w->PutString(p.value);
  }
}

[[nodiscard]] Status DecodeProperties(WireReader* r,
                                    std::vector<WireProperty>* out) {
  std::uint32_t n = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kMinPropertyBytes, &n));
  out->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WireProperty p;
    HERMES_RETURN_NOT_OK(r->ReadU32(&p.key));
    HERMES_RETURN_NOT_OK(r->ReadString(&p.value));
    out->push_back(std::move(p));
  }
  return Status::OK();
}

}  // namespace

void NeighborsRequest::EncodeTo(WireWriter* w) const {
  w->PutVertices(vertices);
  w->PutBool(has_type);
  w->PutU32(type);
  w->PutBool(count_reads);
}

Result<NeighborsRequest> NeighborsRequest::DecodeFrom(WireReader* r) {
  NeighborsRequest m;
  HERMES_RETURN_NOT_OK(r->ReadVertices(&m.vertices));
  HERMES_RETURN_NOT_OK(r->ReadBool(&m.has_type));
  HERMES_RETURN_NOT_OK(r->ReadU32(&m.type));
  HERMES_RETURN_NOT_OK(r->ReadBool(&m.count_reads));
  return m;
}

void NeighborsReply::EncodeTo(WireWriter* w) const {
  PutStatus(status, w);
  w->PutU32(static_cast<std::uint32_t>(results.size()));
  for (const Adjacency& a : results) {
    PutStatus(a.status, w);
    w->PutVertices(a.neighbors);
  }
}

Result<NeighborsReply> NeighborsReply::DecodeFrom(WireReader* r) {
  NeighborsReply m;
  HERMES_RETURN_NOT_OK(ReadStatus(r, &m.status));
  std::uint32_t n = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kMinAdjacencyBytes, &n));
  m.results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Adjacency a;
    HERMES_RETURN_NOT_OK(ReadStatus(r, &a.status));
    HERMES_RETURN_NOT_OK(r->ReadVertices(&a.neighbors));
    m.results.push_back(std::move(a));
  }
  return m;
}

void ProbeRequest::EncodeTo(WireWriter* w) const {
  w->PutU8(static_cast<std::uint8_t>(mode));
  w->PutU64(vertex);
  w->PutU64(other);
}

Result<ProbeRequest> ProbeRequest::DecodeFrom(WireReader* r) {
  ProbeRequest m;
  std::uint8_t mode = 0;
  HERMES_RETURN_NOT_OK(r->ReadU8(&mode));
  if (mode > static_cast<std::uint8_t>(Mode::kEdgeIsGhost)) {
    return Status::InvalidArgument("wire: unknown probe mode");
  }
  m.mode = static_cast<Mode>(mode);
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.vertex));
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.other));
  return m;
}

void ProbeReply::EncodeTo(WireWriter* w) const {
  PutStatus(status, w);
  w->PutBool(truth);
}

Result<ProbeReply> ProbeReply::DecodeFrom(WireReader* r) {
  ProbeReply m;
  HERMES_RETURN_NOT_OK(ReadStatus(r, &m.status));
  HERMES_RETURN_NOT_OK(r->ReadBool(&m.truth));
  return m;
}

void MutateRequest::EncodeTo(WireWriter* w) const {
  w->PutU32(static_cast<std::uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w->PutU8(static_cast<std::uint8_t>(e.op));
    w->PutU64(e.vertex);
    w->PutU64(e.other);
    w->PutU32(e.type_or_key);
    w->PutU8(static_cast<std::uint8_t>(e.node_state));
    w->PutF64(e.weight);
    w->PutBool(e.other_is_local);
    w->PutString(e.value);
  }
}

Result<MutateRequest> MutateRequest::DecodeFrom(WireReader* r) {
  MutateRequest m;
  std::uint32_t n = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kMinMutateEntryBytes, &n));
  m.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Entry e;
    std::uint8_t op = 0;
    HERMES_RETURN_NOT_OK(r->ReadU8(&op));
    if (op > static_cast<std::uint8_t>(Op::kSetEdgeProperty)) {
      return Status::InvalidArgument("wire: unknown mutate op");
    }
    e.op = static_cast<Op>(op);
    HERMES_RETURN_NOT_OK(r->ReadU64(&e.vertex));
    HERMES_RETURN_NOT_OK(r->ReadU64(&e.other));
    HERMES_RETURN_NOT_OK(r->ReadU32(&e.type_or_key));
    std::uint8_t state = 0;
    HERMES_RETURN_NOT_OK(r->ReadU8(&state));
    if (state > static_cast<std::uint8_t>(WireNodeState::kUnavailable)) {
      return Status::InvalidArgument("wire: unknown node state");
    }
    e.node_state = static_cast<WireNodeState>(state);
    HERMES_RETURN_NOT_OK(r->ReadF64(&e.weight));
    HERMES_RETURN_NOT_OK(r->ReadBool(&e.other_is_local));
    HERMES_RETURN_NOT_OK(r->ReadString(&e.value));
    m.entries.push_back(std::move(e));
  }
  return m;
}

void MutateReply::EncodeTo(WireWriter* w) const {
  PutStatus(status, w);
  w->PutU64(record_id);
  w->PutU64(applied);
}

Result<MutateReply> MutateReply::DecodeFrom(WireReader* r) {
  MutateReply m;
  HERMES_RETURN_NOT_OK(ReadStatus(r, &m.status));
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.record_id));
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.applied));
  return m;
}

void InstallChunkRequest::EncodeTo(WireWriter* w) const {
  w->PutU32(static_cast<std::uint32_t>(nodes.size()));
  for (const Node& n : nodes) {
    w->PutU64(n.id);
    w->PutF64(n.weight);
    EncodeProperties(n.properties, w);
  }
  w->PutU32(static_cast<std::uint32_t>(edges.size()));
  for (const Edge& e : edges) {
    w->PutU64(e.v);
    w->PutU64(e.other);
    w->PutU32(e.type);
    w->PutBool(e.other_is_local);
    w->PutBool(e.properties_included);
    EncodeProperties(e.properties, w);
  }
}

Result<InstallChunkRequest> InstallChunkRequest::DecodeFrom(WireReader* r) {
  InstallChunkRequest m;
  std::uint32_t n = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kMinNodeBytes, &n));
  m.nodes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Node node;
    HERMES_RETURN_NOT_OK(r->ReadU64(&node.id));
    HERMES_RETURN_NOT_OK(r->ReadF64(&node.weight));
    HERMES_RETURN_NOT_OK(DecodeProperties(r, &node.properties));
    m.nodes.push_back(std::move(node));
  }
  std::uint32_t e = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kMinEdgeBytes, &e));
  m.edges.reserve(e);
  for (std::uint32_t i = 0; i < e; ++i) {
    Edge edge;
    HERMES_RETURN_NOT_OK(r->ReadU64(&edge.v));
    HERMES_RETURN_NOT_OK(r->ReadU64(&edge.other));
    HERMES_RETURN_NOT_OK(r->ReadU32(&edge.type));
    HERMES_RETURN_NOT_OK(r->ReadBool(&edge.other_is_local));
    HERMES_RETURN_NOT_OK(r->ReadBool(&edge.properties_included));
    HERMES_RETURN_NOT_OK(DecodeProperties(r, &edge.properties));
    m.edges.push_back(std::move(edge));
  }
  return m;
}

void InstallChunkReply::EncodeTo(WireWriter* w) const {
  PutStatus(status, w);
  w->PutU64(nodes_created);
  w->PutU64(edges_created);
}

Result<InstallChunkReply> InstallChunkReply::DecodeFrom(WireReader* r) {
  InstallChunkReply m;
  HERMES_RETURN_NOT_OK(ReadStatus(r, &m.status));
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.nodes_created));
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.edges_created));
  return m;
}

void ExtractRequest::EncodeTo(WireWriter* w) const { w->PutVertices(vertices); }

Result<ExtractRequest> ExtractRequest::DecodeFrom(WireReader* r) {
  ExtractRequest m;
  HERMES_RETURN_NOT_OK(r->ReadVertices(&m.vertices));
  return m;
}

void ExtractReply::EncodeTo(WireWriter* w) const {
  PutStatus(status, w);
  w->PutU32(static_cast<std::uint32_t>(snapshots.size()));
  for (const Snapshot& snap : snapshots) {
    w->PutU64(snap.id);
    w->PutF64(snap.weight);
    w->PutU64(snap.wire_bytes);
    EncodeProperties(snap.properties, w);
    w->PutU32(static_cast<std::uint32_t>(snap.relationships.size()));
    for (const Relationship& rel : snap.relationships) {
      w->PutU64(rel.other);
      w->PutU32(rel.type);
      w->PutBool(rel.properties_included);
      EncodeProperties(rel.properties, w);
    }
  }
}

Result<ExtractReply> ExtractReply::DecodeFrom(WireReader* r) {
  ExtractReply m;
  HERMES_RETURN_NOT_OK(ReadStatus(r, &m.status));
  std::uint32_t s = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kMinSnapshotBytes, &s));
  m.snapshots.reserve(s);
  for (std::uint32_t i = 0; i < s; ++i) {
    Snapshot snap;
    HERMES_RETURN_NOT_OK(r->ReadU64(&snap.id));
    HERMES_RETURN_NOT_OK(r->ReadF64(&snap.weight));
    HERMES_RETURN_NOT_OK(r->ReadU64(&snap.wire_bytes));
    HERMES_RETURN_NOT_OK(DecodeProperties(r, &snap.properties));
    std::uint32_t n = 0;
    HERMES_RETURN_NOT_OK(r->ReadCount(kMinRelBytes, &n));
    snap.relationships.reserve(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      Relationship rel;
      HERMES_RETURN_NOT_OK(r->ReadU64(&rel.other));
      HERMES_RETURN_NOT_OK(r->ReadU32(&rel.type));
      HERMES_RETURN_NOT_OK(r->ReadBool(&rel.properties_included));
      HERMES_RETURN_NOT_OK(DecodeProperties(r, &rel.properties));
      snap.relationships.push_back(std::move(rel));
    }
    m.snapshots.push_back(std::move(snap));
  }
  return m;
}

void AuxExchangeRequest::EncodeTo(WireWriter* w) const { (void)w; }

Result<AuxExchangeRequest> AuxExchangeRequest::DecodeFrom(WireReader* r) {
  (void)r;
  return AuxExchangeRequest{};
}

void AuxExchangeReply::EncodeTo(WireWriter* w) const {
  PutStatus(status, w);
  w->PutU32(static_cast<std::uint32_t>(folded.size()));
  for (const Entry& e : folded) {
    w->PutU64(e.vertex);
    w->PutU64(e.reads);
  }
}

Result<AuxExchangeReply> AuxExchangeReply::DecodeFrom(WireReader* r) {
  AuxExchangeReply m;
  HERMES_RETURN_NOT_OK(ReadStatus(r, &m.status));
  std::uint32_t n = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kMinAuxEntryBytes, &n));
  m.folded.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Entry e;
    HERMES_RETURN_NOT_OK(r->ReadU64(&e.vertex));
    HERMES_RETURN_NOT_OK(r->ReadU64(&e.reads));
    m.folded.push_back(e);
  }
  return m;
}

void HealthRequest::EncodeTo(WireWriter* w) const { (void)w; }

Result<HealthRequest> HealthRequest::DecodeFrom(WireReader* r) {
  (void)r;
  return HealthRequest{};
}

void HealthReply::EncodeTo(WireWriter* w) const {
  PutStatus(status, w);
  w->PutU64(store_bytes);
  w->PutU64(nodes);
  w->PutU64(relationships);
  w->PutU64(ghost_relationships);
}

Result<HealthReply> HealthReply::DecodeFrom(WireReader* r) {
  HealthReply m;
  HERMES_RETURN_NOT_OK(ReadStatus(r, &m.status));
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.store_bytes));
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.nodes));
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.relationships));
  HERMES_RETURN_NOT_OK(r->ReadU64(&m.ghost_relationships));
  return m;
}

void CheckpointRequest::EncodeTo(WireWriter* w) const { (void)w; }

Result<CheckpointRequest> CheckpointRequest::DecodeFrom(WireReader* r) {
  (void)r;
  return CheckpointRequest{};
}

void CheckpointReply::EncodeTo(WireWriter* w) const { PutStatus(status, w); }

Result<CheckpointReply> CheckpointReply::DecodeFrom(WireReader* r) {
  CheckpointReply m;
  HERMES_RETURN_NOT_OK(ReadStatus(r, &m.status));
  return m;
}

void DumpRequest::EncodeTo(WireWriter* w) const { (void)w; }

Result<DumpRequest> DumpRequest::DecodeFrom(WireReader* r) {
  (void)r;
  return DumpRequest{};
}

void DumpReply::EncodeTo(WireWriter* w) const {
  PutStatus(status, w);
  w->PutU32(static_cast<std::uint32_t>(nodes.size()));
  for (const Node& n : nodes) {
    w->PutU64(n.id);
    w->PutF64(n.weight);
  }
  w->PutU32(static_cast<std::uint32_t>(rels.size()));
  for (const Rel& rel : rels) {
    w->PutU64(rel.src);
    w->PutU64(rel.dst);
    w->PutU32(rel.type);
    w->PutBool(rel.ghost);
  }
}

Result<DumpReply> DumpReply::DecodeFrom(WireReader* r) {
  DumpReply m;
  HERMES_RETURN_NOT_OK(ReadStatus(r, &m.status));
  std::uint32_t n = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kMinDumpNodeBytes, &n));
  m.nodes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Node node;
    HERMES_RETURN_NOT_OK(r->ReadU64(&node.id));
    HERMES_RETURN_NOT_OK(r->ReadF64(&node.weight));
    m.nodes.push_back(node);
  }
  std::uint32_t e = 0;
  HERMES_RETURN_NOT_OK(r->ReadCount(kMinDumpRelBytes, &e));
  m.rels.reserve(e);
  for (std::uint32_t i = 0; i < e; ++i) {
    Rel rel;
    HERMES_RETURN_NOT_OK(r->ReadU64(&rel.src));
    HERMES_RETURN_NOT_OK(r->ReadU64(&rel.dst));
    HERMES_RETURN_NOT_OK(r->ReadU32(&rel.type));
    HERMES_RETURN_NOT_OK(r->ReadBool(&rel.ghost));
    m.rels.push_back(rel);
  }
  return m;
}

MsgType Envelope::type() const {
  return static_cast<MsgType>(payload.index() + 1);
}

namespace {

/// Frame header after the length prefix: version + type + attempt +
/// request_id + src + dst.
constexpr std::size_t kFrameHeaderBytes = 1 + 1 + 2 + 8 + 4 + 4;

}  // namespace

[[nodiscard]] Result<std::string> EncodeFrame(const Envelope& env) {
  // One buffer: the length prefix is written as a placeholder and patched
  // once the body's size is known.
  WireWriter frame;
  frame.PutU32(0);
  frame.PutU8(kWireVersion);
  frame.PutU8(static_cast<std::uint8_t>(env.type()));
  frame.PutU16(env.attempt);
  frame.PutU64(env.request_id);
  frame.PutU32(env.src);
  frame.PutU32(env.dst);
  std::visit([&frame](const auto& m) { m.EncodeTo(&frame); }, env.payload);
  const std::size_t body_bytes = frame.size() - 4;
  if (4 + body_bytes + 4 > kMaxFrameBytes) {
    return Status::InvalidArgument("wire: frame exceeds kMaxFrameBytes");
  }
  frame.PatchU32(0, static_cast<std::uint32_t>(body_bytes + 4));
  frame.PutU32(Crc32(frame.bytes().data() + 4, body_bytes));
  return frame.TakeBytes();
}

[[nodiscard]] Result<Envelope> DecodeFrame(std::string_view frame) {
  if (frame.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("wire: frame exceeds kMaxFrameBytes");
  }
  if (frame.size() < 4 + kFrameHeaderBytes + 4) {
    return Status::OutOfRange("wire: frame shorter than header");
  }
  WireReader prefix(frame);
  std::uint32_t len = 0;
  HERMES_RETURN_NOT_OK(prefix.ReadU32(&len));
  // An exact match is required: together with the CRC and version checks
  // this catches every single-bit corruption of the frame.
  if (len != frame.size() - 4) {
    return Status::InvalidArgument("wire: frame length mismatch");
  }
  const std::string_view crcd = frame.substr(4, len - 4);
  WireReader tail(frame.substr(4 + crcd.size()));
  std::uint32_t stored_crc = 0;
  HERMES_RETURN_NOT_OK(tail.ReadU32(&stored_crc));
  if (stored_crc != Crc32(crcd.data(), crcd.size())) {
    return Status::InvalidArgument("wire: frame CRC mismatch");
  }
  WireReader r(crcd);
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  Envelope env;
  HERMES_RETURN_NOT_OK(r.ReadU8(&version));
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported frame version");
  }
  HERMES_RETURN_NOT_OK(r.ReadU8(&type));
  HERMES_RETURN_NOT_OK(r.ReadU16(&env.attempt));
  HERMES_RETURN_NOT_OK(r.ReadU64(&env.request_id));
  HERMES_RETURN_NOT_OK(r.ReadU32(&env.src));
  HERMES_RETURN_NOT_OK(r.ReadU32(&env.dst));
  switch (static_cast<MsgType>(type)) {
#define HERMES_DECODE_CASE(MSG)                        \
  case MsgType::k##MSG: {                              \
    HERMES_ASSIGN_OR_RETURN(auto m, MSG::DecodeFrom(&r)); \
    env.payload = std::move(m);                        \
    break;                                             \
  }
    HERMES_DECODE_CASE(NeighborsRequest)
    HERMES_DECODE_CASE(NeighborsReply)
    HERMES_DECODE_CASE(ProbeRequest)
    HERMES_DECODE_CASE(ProbeReply)
    HERMES_DECODE_CASE(MutateRequest)
    HERMES_DECODE_CASE(MutateReply)
    HERMES_DECODE_CASE(InstallChunkRequest)
    HERMES_DECODE_CASE(InstallChunkReply)
    HERMES_DECODE_CASE(ExtractRequest)
    HERMES_DECODE_CASE(ExtractReply)
    HERMES_DECODE_CASE(AuxExchangeRequest)
    HERMES_DECODE_CASE(AuxExchangeReply)
    HERMES_DECODE_CASE(HealthRequest)
    HERMES_DECODE_CASE(HealthReply)
    HERMES_DECODE_CASE(CheckpointRequest)
    HERMES_DECODE_CASE(CheckpointReply)
    HERMES_DECODE_CASE(DumpRequest)
    HERMES_DECODE_CASE(DumpReply)
#undef HERMES_DECODE_CASE
    default:
      return Status::InvalidArgument("wire: unknown message type");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("wire: trailing payload bytes");
  }
  return env;
}

}  // namespace hermes
