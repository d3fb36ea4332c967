// FNV-1a 64-bit — a stable byte hash (std::hash's value is
// implementation-defined): the cluster placement ring's key hash and the
// content digest that names a pool's evaluation-cache file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fedtune {

inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ULL;

// Hash of `size` bytes at `data`, continuing from `seed` (pass the previous
// result to hash a sequence of buffers; the default starts a new hash).
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t seed = kFnv1a64Basis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t seed = kFnv1a64Basis) {
  return fnv1a64(bytes.data(), bytes.size(), seed);
}

}  // namespace fedtune
