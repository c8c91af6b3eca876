#include "common/crc32.h"

#include <array>

namespace hermes {

namespace {

/// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC
/// of byte b followed by k zero bytes, so eight lookups fold eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables BuildTables(std::uint32_t poly) {
  CrcTables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (poly & (0u - (c & 1u)));
    }
    tables[0][b] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr CrcTables kIeeeTables = BuildTables(0xEDB88320u);
constexpr CrcTables kCastagnoliTables = BuildTables(0x82F63B78u);

/// Little-endian u32 at `p`, whatever the host order (compilers turn the
/// shifts into one load on little-endian hosts).
inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t SliceBy8(const CrcTables& t, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len) {
  return SliceBy8(kIeeeTables, data, len);
}

std::uint32_t Crc32c(const void* data, std::size_t len) {
  return SliceBy8(kCastagnoliTables, data, len);
}

}  // namespace hermes
