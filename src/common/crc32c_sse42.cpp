// SSE4.2 CRC32C (x86-64). This TU is compiled with -msse4.2 regardless of
// the build's baseline -march (see src/common/CMakeLists.txt); crc32c() only
// calls into it after the cpuid check in sse42_supported() passed, so a host
// without the `crc32` instruction never executes it.
//
// `crc32` has a 3-cycle latency but issues every cycle, so one dependent
// chain runs at a third of the unit's rate. The loop splits each block into
// three equal lanes A‖B‖C, runs an independent chain over each, and joins
// them through the linearity of the raw (un-inverted) CRC register:
//
//   R(r, A‖B‖C) = Z(Z(R(r, A)) ^ R(0, B)) ^ R(0, C)
//
// where Z appends one lane of zero bytes. Z is a linear map on the 32-bit
// register, tabulated byte-wise (4 × 256 entries) at compile time by GF(2)
// matrix squaring, so start-up pays nothing. Long lanes carry the bulk of a
// multi-MB update; short lanes keep all three chains busy on a few-KB one;
// the final < 3 short lanes run on one chain. The result is the same CRC,
// bit for bit, as the portable slice-by-4 walk.
#include "common/crc32c_detail.h"

#if defined(__x86_64__)

#include <nmmintrin.h>

#include <array>
#include <cstring>

namespace oasis::common::detail {
namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

// A GF(2)-linear map on the CRC register; column i is the image of bit i.
using Gf2Matrix = std::array<std::uint32_t, 32>;
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr std::uint32_t apply(const Gf2Matrix& m, std::uint32_t v) {
  std::uint32_t out = 0;
  for (int i = 0; v != 0; ++i, v >>= 1) {
    if (v & 1u) out ^= m[i];
  }
  return out;
}

/// Byte-wise table of Z for `bytes` zero bytes (a power of two): start from
/// the one-zero-bit map and square it until it covers 8 × bytes bits.
constexpr ShiftTable make_shift_table(std::size_t bytes) {
  Gf2Matrix op{};
  op[0] = kPoly;
  for (int i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
  for (std::size_t bits = 1; bits < 8 * bytes; bits *= 2) {
    Gf2Matrix sq{};
    for (int i = 0; i < 32; ++i) sq[i] = apply(op, op[i]);
    op = sq;
  }
  ShiftTable t{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) t[k][b] = apply(op, b << (8 * k));
  }
  return t;
}

constexpr ShiftTable kLongShift = make_shift_table(kCrcLongLane);
constexpr ShiftTable kShortShift = make_shift_table(kCrcShortLane);

std::uint64_t shift(const ShiftTable& t, std::uint64_t crc) {
  return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
         t[2][(crc >> 16) & 0xFFu] ^ t[3][(crc >> 24) & 0xFFu];
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Consumes whole three-lane blocks of `Lane`-byte lanes from [p, p + n).
template <std::size_t Lane>
void three_lanes(const ShiftTable& t, const std::uint8_t*& p, std::size_t& n,
                 std::uint64_t& crc) {
  while (n >= 3 * Lane) {
    std::uint64_t c0 = crc, c1 = 0, c2 = 0;
    for (const std::uint8_t* end = p + Lane; p < end; p += 8) {
      c0 = _mm_crc32_u64(c0, load64(p));
      c1 = _mm_crc32_u64(c1, load64(p + Lane));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * Lane));
    }
    crc = shift(t, shift(t, c0) ^ c1) ^ c2;
    p += 2 * Lane;
    n -= 3 * Lane;
  }
}

}  // namespace

std::uint32_t crc32c_sse42(const void* data, std::size_t n,
                           std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t crc = static_cast<std::uint32_t>(~seed);
  while (n > 0 && reinterpret_cast<std::uintptr_t>(p) % 8 != 0) {
    crc = _mm_crc32_u8(static_cast<std::uint32_t>(crc), *p++);
    --n;
  }
  three_lanes<kCrcLongLane>(kLongShift, p, n, crc);
  three_lanes<kCrcShortLane>(kShortShift, p, n, crc);
  for (; n >= 8; n -= 8, p += 8) crc = _mm_crc32_u64(crc, load64(p));
  while (n-- > 0) crc = _mm_crc32_u8(static_cast<std::uint32_t>(crc), *p++);
  return ~static_cast<std::uint32_t>(crc);
}

bool sse42_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

}  // namespace oasis::common::detail

#else  // not x86-64: no kernel; the dispatch never selects it.

namespace oasis::common::detail {

std::uint32_t crc32c_sse42(const void* data, std::size_t n,
                           std::uint32_t seed) {
  return crc32c_portable(data, n, seed);
}

bool sse42_supported() { return false; }

}  // namespace oasis::common::detail

#endif
