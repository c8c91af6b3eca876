#ifndef HERMES_COMMON_CRC32_H_
#define HERMES_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

/// The repository's checksums: reflected CRC-32 with an all-ones initial
/// value and final XOR, computed slice-by-8 (eight bytes per step through
/// eight 256-entry tables). One table builder serves both polynomials.
namespace hermes {

/// IEEE 802.3 CRC-32 (polynomial 0xEDB88320): seals wire frames and
/// snapshot bodies.
[[nodiscard]] std::uint32_t Crc32(const void* data, std::size_t len);

/// CRC-32C (Castagnoli, polynomial 0x82F63B78): seals WAL records.
[[nodiscard]] std::uint32_t Crc32c(const void* data, std::size_t len);

}  // namespace hermes

#endif  // HERMES_COMMON_CRC32_H_
