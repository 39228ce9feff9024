#include "common/crc32c.h"

#include <array>

#include "common/crc32c_detail.h"

namespace oasis::common {
namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

struct Tables {
  // tables[k][b]: CRC contribution of byte b at lane k of a 4-byte slice.
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  Tables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][b] = crc;
    }
    for (std::uint32_t b = 0; b < 256; ++b) {
      for (int k = 1; k < 4; ++k) {
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
      }
    }
  }
};

const Tables& tables() {
  static const Tables g;
  return g;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(const void* data, std::size_t n,
                              std::uint32_t seed) {
  const auto& t = tables().t;
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = ~seed;
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed) {
  static const auto impl = detail::sse42_supported()
                               ? &detail::crc32c_sse42
                               : &detail::crc32c_portable;
  return impl(data, n, seed);
}

}  // namespace oasis::common
