/// Wire primitives for the typed message layer (DESIGN.md §12): a
/// little-endian append-only writer and a bounds-checked reader whose
/// every accessor returns Status instead of crashing on hostile input.
/// Frames are sealed with common/crc32.h's IEEE CRC-32. The encoding is
/// deliberately dumb — fixed-width integers, doubles as raw bit patterns,
/// strings and vectors as u32 count + elements — so that
/// encode→decode→re-encode is byte-identical (the round-trip fuzz test in
/// tests/net_wire_test.cc relies on this). Each call moves a whole
/// integer, and a vertex list moves as one block.
#ifndef HERMES_NET_WIRE_H_
#define HERMES_NET_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace hermes {

/// Current frame-format version. Bump when the frame layout or any
/// message payload encoding changes; tests/net_golden_test.cc documents
/// the procedure.
///
/// Version history:
///   v1 — initial layout; u16 after the type byte was reserved (must be 0).
///   v2 — the reserved u16 became the retry `attempt` counter so servers
///        can distinguish first deliveries from client retries (DESIGN.md
///        §12, exactly-once mutation contract).
///   v3 — NeighborsRequest gained `count_reads`; AuxExchange became the
///        read-count fold (empty request, reply lists the folded
///        (vertex, reads) pairs) — DESIGN.md §12, read-weight contract.
///   v4 — ExtractRequest carries a vertex list and ExtractReply one
///        snapshot per vertex; MutateRequest carries a list of entries
///        and MutateReply the count applied, so a migration step is one
///        request per server (DESIGN.md §12, chunked migration).
inline constexpr std::uint8_t kWireVersion = 4;

/// Hard ceiling on a single frame (length prefix included). Large enough
/// for a single-shot recovery dump at test scale; bulk paths (store
/// loading, migration) chunk their payloads well below this.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Appends little-endian primitives to an owned buffer. Never fails:
/// bounds problems only exist on the decode side.
class WireWriter {
 public:
  void PutU8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU16(std::uint16_t v) { PutLittleEndian<2>(v); }
  void PutU32(std::uint32_t v) { PutLittleEndian<4>(v); }
  void PutU64(std::uint64_t v) { PutLittleEndian<8>(v); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  /// Doubles travel as their IEEE-754 bit pattern, so every value —
  /// including NaNs — re-encodes to the same bytes.
  void PutF64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutString(std::string_view s) {
    PutU32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  void PutRaw(std::string_view s) { out_.append(s.data(), s.size()); }
  /// u32 count, then the ids as u64s in one block.
  void PutVertices(const std::vector<VertexId>& vs);
  /// Overwrites the four bytes at `offset` (already written) with `v`:
  /// a length prefix known only once the body is encoded.
  void PatchU32(std::size_t offset, std::uint32_t v);
  /// Sizes the buffer once when the caller knows the encoded length.
  void Reserve(std::size_t bytes) { out_.reserve(bytes); }

  const std::string& bytes() const { return out_; }
  std::string&& TakeBytes() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  template <std::size_t kBytes>
  void PutLittleEndian(std::uint64_t v) {
    char le[kBytes];
    for (std::size_t i = 0; i < kBytes; ++i) {
      le[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    out_.append(le, kBytes);
  }

  std::string out_;
};

/// Bounds-checked little-endian reader over a borrowed buffer. Every
/// accessor returns Status; reading past the end yields kOutOfRange and
/// leaves the cursor untouched, so decoders can bail with
/// HERMES_RETURN_NOT_OK and never index out of bounds.
class WireReader {
 public:
  explicit WireReader(std::string_view buf) : buf_(buf) {}

  [[nodiscard]] Status ReadU8(std::uint8_t* out) {
    HERMES_RETURN_NOT_OK(Need(1));
    *out = static_cast<std::uint8_t>(buf_[pos_++]);
    return Status::OK();
  }
  [[nodiscard]] Status ReadU16(std::uint16_t* out) {
    return ReadLittleEndian(out);
  }
  [[nodiscard]] Status ReadU32(std::uint32_t* out) {
    return ReadLittleEndian(out);
  }
  [[nodiscard]] Status ReadU64(std::uint64_t* out) {
    return ReadLittleEndian(out);
  }
  [[nodiscard]] Status ReadBool(bool* out);
  [[nodiscard]] Status ReadF64(double* out);
  [[nodiscard]] Status ReadString(std::string* out);
  /// Reads an element count and validates it against the bytes actually
  /// remaining (each element needs at least `min_elem_bytes`), so a
  /// hostile count cannot trigger a huge allocation.
  [[nodiscard]] Status ReadCount(std::size_t min_elem_bytes,
                                 std::uint32_t* out);
  /// Reads what PutVertices wrote into `out` (replacing its contents).
  /// The count is bounded by ReadCount before `out` is sized.
  [[nodiscard]] Status ReadVertices(std::vector<VertexId>* out);

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  [[nodiscard]] Status Need(std::size_t n) {
    if (remaining() < n) {
      return Status::OutOfRange("wire: truncated buffer");
    }
    return Status::OK();
  }

  template <typename T>
  [[nodiscard]] Status ReadLittleEndian(T* out) {
    HERMES_RETURN_NOT_OK(Need(sizeof(T)));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(
          static_cast<T>(static_cast<std::uint8_t>(buf_[pos_ + i])) << (8 * i));
    }
    pos_ += sizeof(T);
    *out = v;
    return Status::OK();
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
};

/// Status as it travels on the wire: u8 code + message string.
void PutStatus(const Status& s, WireWriter* w);
[[nodiscard]] Status ReadStatus(WireReader* r, Status* out);

}  // namespace hermes

#endif  // HERMES_NET_WIRE_H_
