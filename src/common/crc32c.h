// CRC32C (Castagnoli) checksums for payload integrity.
//
// Used by two durability layers: tensor::serialize_tensors appends a payload
// checksum to every FL wire message, and the oasis::ckpt container carries a
// per-section CRC plus a whole-file footer CRC. CRC32C detects all single-bit
// and all burst errors up to 32 bits, which is exactly the torn-write /
// bit-rot threat model — it is NOT a cryptographic MAC and offers no defense
// against a deliberate forger (who controls the payload and can fix the CRC).
//
// Every FL round checksums each model and update several times (upload,
// defense stack, screen, fold, checkpoint), so this sits on the round's
// critical path. crc32c() dispatches once, at first use, on the host's cpuid:
//   * x86-64 with SSE4.2: three interleaved `crc32` instruction chains joined
//     by a compile-time "shift by one lane" table (crc32c_sse42.cpp);
//     16-20 GB/s on 34 KB to 6.3 MB buffers on a 4-vCPU x86-64 host.
//   * anywhere else: a portable slice-by-4 table walk, 0.8-0.9 GB/s on the
//     same host.
// Both compute the same function bit for bit (tests/common_test.cpp runs a
// differential against a bitwise reference), so which one ran never shows
// in a checksum, a wire byte or a checkpoint. crc32c_detail.h exposes both
// paths to tests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace oasis::common {

/// CRC32C over `data[0, n)`, continuing from `seed` (pass the previous call's
/// result to checksum a buffer in pieces; the default starts a fresh stream).
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

}  // namespace oasis::common
