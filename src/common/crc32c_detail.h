// Internal: the two CRC32C implementations behind common::crc32c, exposed so
// tests can run each path directly, whatever the dispatch picked on the host.
// Both share crc32c()'s contract (seed = previous result, 0 = fresh stream).
#pragma once

#include <cstddef>
#include <cstdint>

namespace oasis::common::detail {

/// Lane lengths of the three-lane SSE4.2 loop: a buffer is consumed in
/// blocks of 3 × kCrcLongLane, then 3 × kCrcShortLane, then one chain.
inline constexpr std::size_t kCrcLongLane = 8192;
inline constexpr std::size_t kCrcShortLane = 256;

/// Slice-by-4 table walk; runs on every host.
std::uint32_t crc32c_portable(const void* data, std::size_t n,
                              std::uint32_t seed);

/// Three-lane SSE4.2 `crc32` loop. Only call when sse42_supported(); on
/// builds without the x86-64 kernel it forwards to crc32c_portable.
std::uint32_t crc32c_sse42(const void* data, std::size_t n,
                           std::uint32_t seed);

/// True when crc32c_sse42 was compiled in AND the host CPU has SSE4.2.
bool sse42_supported();

}  // namespace oasis::common::detail
