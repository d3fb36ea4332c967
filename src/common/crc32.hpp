// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the frame checksum
// of record logs (common/record_log.hpp) and of network frames
// (net/frame.hpp).
//
// Header-only, table-driven, no dependency on zlib. The table is built once
// per process on first use; crc32() over a buffer is the standard
// byte-at-a-time reflected update, matching zlib's crc32() output so
// journals can be inspected with off-the-shelf tooling.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace fedtune {

namespace detail {

inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace detail

// CRC of `size` bytes at `data`, continuing from `seed` (pass the previous
// crc32 result to checksum a buffer in pieces; default starts a new sum).
inline std::uint32_t crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0) {
  const auto& table = detail::crc32_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace fedtune
