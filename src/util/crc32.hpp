#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace exawatt::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-block
/// and manifest checksum of the on-disk telemetry store and the frame
/// checksum of the wire. Pass a previous return value as `crc` to
/// checksum data incrementally. Computed slicing-by-16 (16 bytes per
/// step); the values are those of the classic byte-at-a-time loop.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t crc = 0);

[[nodiscard]] inline std::uint32_t crc32(std::string_view s,
                                         std::uint32_t crc = 0) {
  return crc32(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
      crc);
}

}  // namespace exawatt::util
