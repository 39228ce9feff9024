// oasis::ckpt container format — "oasis.ckpt/v2".
//
// A snapshot is a single file holding named byte sections:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//   0       8     magic "OASISCKP"
//   8       4     u32 version (currently 2)
//   12      4     u32 section_count
//   16      …     directory: per section
//                   u32 name_len, name bytes,
//                   u64 payload_offset (absolute), u64 payload_size,
//                   u32 payload CRC32C
//   …       …     section payloads, concatenated in directory order
//   end-4   4     u32 footer CRC32C over every preceding byte
//
// Integrity is layered: the footer CRC covers the whole file (catches torn
// writes and truncation wherever they land), and each section carries its own
// CRC (localises damage and guards against a directory that points at the
// wrong bytes). Snapshot::parse validates size → magic → version → footer CRC
// → directory bounds → section CRCs, in that order, BEFORE handing out any
// payload — so a caller never observes bytes from a damaged file. All
// failures are typed CheckpointError with a machine-readable Reason.
//
// All integers are little-endian host order, matching tensor/serialize.h.
// Version 2 is the one snapshot schema every engine writes inside the
// container (DESIGN.md §5g): a "meta" section opening with an engine tag,
// "model", "rng", "agg" while a round is open, and "obs" for the
// in-process engines. No reader for an older version is kept: a version 1
// file is refused with kBadVersion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace oasis::ckpt {

using ByteBuffer = std::vector<std::uint8_t>;

inline constexpr char kMagic[8] = {'O', 'A', 'S', 'I', 'S', 'C', 'K', 'P'};
inline constexpr std::uint32_t kVersion = 2;

/// Accumulates named sections, then seals them into one container buffer.
class SnapshotBuilder {
 public:
  /// Adds a section. Names must be unique, non-empty, and ≤ 255 bytes.
  void add(const std::string& name, ByteBuffer payload);

  /// Serializes everything added so far into a "oasis.ckpt/v2" buffer.
  [[nodiscard]] ByteBuffer finish() const;

 private:
  std::vector<std::pair<std::string, ByteBuffer>> sections_;
};

/// Immutable, fully validated view of a container buffer.
class Snapshot {
 public:
  /// Validates `bytes` exhaustively (see file comment for the order) and
  /// takes ownership. Throws CheckpointError on any damage.
  static Snapshot parse(ByteBuffer bytes);

  [[nodiscard]] bool has(const std::string& name) const;

  /// The named section's payload. Throws CheckpointError{kMissingSection}
  /// when absent.
  [[nodiscard]] const ByteBuffer& section(const std::string& name) const;

  /// Section names in directory (= write) order.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  Snapshot() = default;
  std::vector<std::pair<std::string, ByteBuffer>> sections_;
};

}  // namespace oasis::ckpt
