#include "net/message.h"

#include <array>
#include <type_traits>
#include <utility>

#include "common/crc32.h"

namespace hermes {

namespace {

// The one codec: every wire struct's encoding, decoding and minimum size
// follow from its HERMES_WIRE_FIELDS list and its fields' C++ types.

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
using WireFieldsOf = decltype(std::declval<T&>().WireFields());

/// Largest valid value of a wire enum: its kLastWireValue, or 0 when it
/// declares none.
template <typename E>
constexpr std::uint8_t LastWireValue() {
  static_assert(sizeof(E) == 1, "a wire enum travels as one byte");
  if constexpr (requires { E::kLastWireValue; }) {
    return static_cast<std::uint8_t>(E::kLastWireValue);
  } else {
    return 0;
  }
}

template <typename T>
constexpr std::size_t MinWireBytes();

template <typename... Fields>
constexpr std::size_t SumMinWireBytes(
    std::type_identity<std::tuple<Fields...>>) {
  return (std::size_t{0} + ... + MinWireBytes<std::remove_cvref_t<Fields>>());
}

/// The fewest bytes a T can encode to: the bound ReadCount checks an
/// element count of T against before anything is allocated.
template <typename T>
constexpr std::size_t MinWireBytes() {
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, Status>) {
    return 1 + 4;  // code + empty message
  } else if constexpr (std::is_same_v<T, std::string> || kIsVector<T>) {
    return 4;  // length or count
  } else {
    return SumMinWireBytes(std::type_identity<WireFieldsOf<T>>{});
  }
}

template <typename T>
void Put(WireWriter* w, const T& v);

template <typename Fields>
void PutFields(WireWriter* w, const Fields& fields) {
  std::apply([w](const auto&... f) { (Put(w, f), ...); }, fields);
}

template <typename T>
void Put(WireWriter* w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w->PutBool(v);
  } else if constexpr (std::is_enum_v<T>) {
    w->PutU8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    w->PutU16(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w->PutU32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w->PutU64(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w->PutF64(v);
  } else if constexpr (std::is_same_v<T, Status>) {
    PutStatus(v, w);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w->PutString(v);
  } else if constexpr (std::is_same_v<T, std::vector<VertexId>>) {
    w->PutVertices(v);
  } else if constexpr (kIsVector<T>) {
    w->PutU32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) Put(w, e);
  } else {
    PutFields(w, v.WireFields());
  }
}

template <typename T>
[[nodiscard]] Status Read(WireReader* r, T* out);

/// Reads one field; on failure keeps its status in `*failure` and
/// returns false, so the field fold below stops there.
template <typename T>
bool ReadField(WireReader* r, T* out, Status* failure) {
  Status st = Read(r, out);
  if (st.ok()) return true;
  *failure = std::move(st);
  return false;
}

// Read and ReadFields are forced inline, so each struct decodes as one
// straight-line function instead of a call per field.
template <typename Fields> [[gnu::always_inline]]
[[nodiscard]] inline Status ReadFields(WireReader* r, Fields fields) {
  Status failure;
  std::apply(
      [&](auto&... f) { return (ReadField(r, &f, &failure) && ...); }, fields);
  return failure;
}

/// Decodes into a default-constructed `*out`. Every count is checked
/// against the bytes left before anything is reserved.
template <typename T> [[gnu::always_inline]]
[[nodiscard]] inline Status Read(WireReader* r, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    return r->ReadBool(out);
  } else if constexpr (std::is_enum_v<T>) {
    std::uint8_t v = 0;
    HERMES_RETURN_NOT_OK(r->ReadU8(&v));
    if (v > LastWireValue<T>()) {
      return Status::InvalidArgument("wire: enum value out of range");
    }
    *out = static_cast<T>(v);
    return Status::OK();
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    return r->ReadU16(out);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    return r->ReadU32(out);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return r->ReadU64(out);
  } else if constexpr (std::is_same_v<T, double>) {
    return r->ReadF64(out);
  } else if constexpr (std::is_same_v<T, Status>) {
    return ReadStatus(r, out);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return r->ReadString(out);
  } else if constexpr (std::is_same_v<T, std::vector<VertexId>>) {
    return r->ReadVertices(out);
  } else if constexpr (kIsVector<T>) {
    std::uint32_t n = 0;
    HERMES_RETURN_NOT_OK(
        r->ReadCount(MinWireBytes<typename T::value_type>(), &n));
    out->reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      HERMES_RETURN_NOT_OK(Read(r, &out->emplace_back()));
    }
    return Status::OK();
  } else {
    return ReadFields(r, out->WireFields());
  }
}

template <std::size_t kIndex>
[[nodiscard]] Status ReadPayload(WireReader* r, MessagePayload* out) {
  return Read(r, &out->emplace<kIndex>());
}

using PayloadReader = Status (*)(WireReader*, MessagePayload*);

template <std::size_t... kIndex>
constexpr std::array<PayloadReader, sizeof...(kIndex)> PayloadReaders(
    std::index_sequence<kIndex...>) {
  return {&ReadPayload<kIndex>...};
}

/// Indexed by MsgType - 1, the payload's variant index.
constexpr auto kPayloadReaders = PayloadReaders(
    std::make_index_sequence<std::variant_size_v<MessagePayload>>());

/// Frame header after the length prefix: version + type, then the
/// envelope's routing header.
constexpr std::size_t kFrameHeaderBytes = 1 + 1 + MinWireBytes<Envelope>();

}  // namespace

MsgType Envelope::type() const {
  return static_cast<MsgType>(payload.index() + 1);
}

[[nodiscard]] Result<std::string> EncodeFrame(const Envelope& env) {
  // One buffer: the length prefix is written as a placeholder and patched
  // once the body's size is known.
  WireWriter frame;
  frame.PutU32(0);
  frame.PutU8(kWireVersion);
  frame.PutU8(static_cast<std::uint8_t>(env.type()));
  PutFields(&frame, env.WireFields());
  std::visit([&frame](const auto& m) { Put(&frame, m); }, env.payload);
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
  HERMES_RETURN_NOT_OK(ReadFields(&r, env.WireFields()));
  if (type == 0 || type > kPayloadReaders.size()) {
    return Status::InvalidArgument("wire: unknown message type");
  }
  HERMES_RETURN_NOT_OK(kPayloadReaders[type - 1](&r, &env.payload));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("wire: trailing payload bytes");
  }
  return env;
}

}  // namespace hermes
