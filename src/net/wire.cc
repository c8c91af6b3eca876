#include "net/wire.h"

#include <bit>

namespace hermes {

void WireWriter::PutVertices(const std::vector<VertexId>& vs) {
  PutU32(static_cast<std::uint32_t>(vs.size()));
  if constexpr (std::endian::native == std::endian::little) {
    out_.append(reinterpret_cast<const char*>(vs.data()),
                vs.size() * sizeof(VertexId));
  } else {
    for (VertexId v : vs) PutU64(v);
  }
}

void WireWriter::PatchU32(std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    out_[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

Status WireReader::ReadBool(bool* out) {
  std::uint8_t v = 0;
  HERMES_RETURN_NOT_OK(ReadU8(&v));
  if (v > 1) {
    return Status::InvalidArgument("wire: bool byte out of range");
  }
  *out = v != 0;
  return Status::OK();
}

Status WireReader::ReadF64(double* out) {
  std::uint64_t bits = 0;
  HERMES_RETURN_NOT_OK(this->ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status WireReader::ReadString(std::string* out) {
  std::uint32_t len = 0;
  HERMES_RETURN_NOT_OK(this->ReadU32(&len));
  if (len > remaining()) {
    return Status::OutOfRange("wire: string length exceeds buffer");
  }
  out->assign(buf_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status WireReader::ReadCount(std::size_t min_elem_bytes, std::uint32_t* out) {
  std::uint32_t count = 0;
  HERMES_RETURN_NOT_OK(this->ReadU32(&count));
  if (min_elem_bytes > 0 && count > remaining() / min_elem_bytes) {
    return Status::OutOfRange("wire: element count exceeds buffer");
  }
  *out = count;
  return Status::OK();
}

Status WireReader::ReadVertices(std::vector<VertexId>* out) {
  std::uint32_t n = 0;
  HERMES_RETURN_NOT_OK(ReadCount(sizeof(VertexId), &n));
  out->resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) {
      std::memcpy(out->data(), buf_.data() + pos_, n * sizeof(VertexId));
      pos_ += n * sizeof(VertexId);
    }
  } else {
    for (VertexId& v : *out) HERMES_RETURN_NOT_OK(ReadU64(&v));
  }
  return Status::OK();
}

void PutStatus(const Status& s, WireWriter* w) {
  w->PutU8(static_cast<std::uint8_t>(s.code()));
  w->PutString(s.message());
}

[[nodiscard]] Status ReadStatus(WireReader* r, Status* out) {
  std::uint8_t code = 0;
  std::string msg;
  HERMES_RETURN_NOT_OK(r->ReadU8(&code));
  HERMES_RETURN_NOT_OK(r->ReadString(&msg));
  if (code > static_cast<std::uint8_t>(StatusCode::kNotImplemented)) {
    return Status::InvalidArgument("wire: unknown status code");
  }
  if (code == 0) {
    *out = Status::OK();
  } else {
    *out = Status(static_cast<StatusCode>(code), std::move(msg));
  }
  return Status::OK();
}

}  // namespace hermes
