#include "ckpt/container.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"

namespace oasis::ckpt {
namespace {

using common::crc32c;
using Reason = CheckpointError::Reason;

constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(std::uint32_t);
constexpr std::size_t kFooterBytes = sizeof(std::uint32_t);
constexpr std::size_t kMaxNameLen = 255;
// A directory claiming more sections than this is damage, not data: even the
// richest snapshot (model + optimizer + rng + obs + meta per subsystem) is
// tens of sections, and the cap keeps a hostile count from driving a large
// reserve before per-entry bounds checks run.
constexpr std::uint32_t kMaxSections = 4096;

/// Writes `n` bytes at `out[off]` and advances `off`. finish() sizes the
/// buffer once up front, so every write lands inside it.
void put(const void* src, std::size_t n, ByteBuffer& out, std::size_t& off) {
  if (n != 0) std::memcpy(out.data() + off, src, n);
  off += n;
}

void put_u32(std::uint32_t v, ByteBuffer& out, std::size_t& off) {
  put(&v, sizeof(v), out, off);
}

void put_u64(std::uint64_t v, ByteBuffer& out, std::size_t& off) {
  put(&v, sizeof(v), out, off);
}

// Directory reads happen after the footer CRC has validated the whole file,
// so a short read here means the directory *structure* lies about its own
// extent — malformed, not truncated.
std::uint32_t take_u32(const ByteBuffer& in, std::size_t& off,
                       std::size_t end) {
  if (off > end || end - off < sizeof(std::uint32_t)) {
    throw CheckpointError(Reason::kMalformedDirectory,
                          "directory runs past its region");
  }
  std::uint32_t v = 0;
  std::memcpy(&v, in.data() + off, sizeof(v));
  off += sizeof(v);
  return v;
}

std::uint64_t take_u64(const ByteBuffer& in, std::size_t& off,
                       std::size_t end) {
  if (off > end || end - off < sizeof(std::uint64_t)) {
    throw CheckpointError(Reason::kMalformedDirectory,
                          "directory runs past its region");
  }
  std::uint64_t v = 0;
  std::memcpy(&v, in.data() + off, sizeof(v));
  off += sizeof(v);
  return v;
}

}  // namespace

void SnapshotBuilder::add(const std::string& name, ByteBuffer payload) {
  OASIS_CHECK_MSG(!name.empty() && name.size() <= kMaxNameLen,
                  "section name must be 1..255 bytes: '" << name << "'");
  for (const auto& [existing, bytes] : sections_) {
    OASIS_CHECK_MSG(existing != name,
                    "duplicate checkpoint section '" << name << "'");
  }
  sections_.emplace_back(name, std::move(payload));
}

ByteBuffer SnapshotBuilder::finish() const {
  // Directory and payload sizes are known up front, which gives absolute
  // payload offsets without a second pass and one exact-size buffer.
  std::size_t dir_bytes = 0;
  std::size_t payload_bytes = 0;
  for (const auto& [name, payload] : sections_) {
    dir_bytes += sizeof(std::uint32_t) + name.size() + 2 * sizeof(std::uint64_t) +
                 sizeof(std::uint32_t);
    payload_bytes += payload.size();
  }
  ByteBuffer out(kHeaderBytes + dir_bytes + payload_bytes + kFooterBytes);
  std::size_t off = 0;
  put(kMagic, sizeof(kMagic), out, off);
  put_u32(kVersion, out, off);
  put_u32(static_cast<std::uint32_t>(sections_.size()), out, off);

  std::uint64_t payload_off = kHeaderBytes + dir_bytes;
  for (const auto& [name, payload] : sections_) {
    put_u32(static_cast<std::uint32_t>(name.size()), out, off);
    put(name.data(), name.size(), out, off);
    put_u64(payload_off, out, off);
    put_u64(payload.size(), out, off);
    put_u32(crc32c(payload.data(), payload.size()), out, off);
    payload_off += payload.size();
  }
  for (const auto& [name, payload] : sections_) {
    put(payload.data(), payload.size(), out, off);
  }
  put_u32(crc32c(out.data(), off), out, off);
  return out;
}

Snapshot Snapshot::parse(ByteBuffer bytes) {
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    throw CheckpointError(Reason::kTruncated,
                          "file too small for header + footer (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError(Reason::kBadMagic, "not an oasis.ckpt container");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version != kVersion) {
    throw CheckpointError(Reason::kBadVersion,
                          "container version " + std::to_string(version) +
                              ", expected " + std::to_string(kVersion));
  }

  // Whole-file integrity first: after this check every subsequent failure is
  // the writer's fault (a structural bug), not the disk's.
  const std::size_t body = bytes.size() - kFooterBytes;
  std::uint32_t stored_footer = 0;
  std::memcpy(&stored_footer, bytes.data() + body, kFooterBytes);
  if (stored_footer != crc32c(bytes.data(), body)) {
    throw CheckpointError(Reason::kFooterChecksum,
                          "whole-file CRC32C mismatch");
  }

  std::uint32_t section_count = 0;
  std::memcpy(&section_count,
              bytes.data() + sizeof(kMagic) + sizeof(std::uint32_t),
              sizeof(section_count));
  if (section_count > kMaxSections) {
    throw CheckpointError(Reason::kMalformedDirectory,
                          "implausible section count " +
                              std::to_string(section_count));
  }

  // Directory entries and payloads share [kHeaderBytes, body); the directory
  // is walked with a cursor, payload ranges are bounds-checked individually
  // and required to tile the payload region in order with no gaps/overlap.
  Snapshot snap;
  snap.sections_.reserve(section_count);
  std::size_t cur = kHeaderBytes;
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      entries;
  std::vector<std::uint32_t> crcs;
  entries.reserve(section_count);
  crcs.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t name_len = take_u32(bytes, cur, body);
    if (name_len == 0 || name_len > kMaxNameLen) {
      throw CheckpointError(Reason::kMalformedDirectory,
                            "section name length " + std::to_string(name_len));
    }
    if (cur > body || body - cur < name_len) {
      throw CheckpointError(Reason::kMalformedDirectory,
                            "directory runs past its region");
    }
    std::string name(reinterpret_cast<const char*>(bytes.data() + cur),
                     name_len);
    cur += name_len;
    const std::uint64_t off = take_u64(bytes, cur, body);
    const std::uint64_t size = take_u64(bytes, cur, body);
    const std::uint32_t crc = take_u32(bytes, cur, body);
    for (const auto& [existing, range] : entries) {
      if (existing == name) {
        throw CheckpointError(Reason::kMalformedDirectory,
                              "duplicate section '" + name + "'");
      }
    }
    entries.emplace_back(std::move(name), std::make_pair(off, size));
    crcs.push_back(crc);
  }

  // `cur` now sits at the end of the directory = start of the payload
  // region. Payloads must tile [cur, body) exactly.
  std::uint64_t expect_off = cur;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [name, range] = entries[i];
    const auto [off, size] = range;
    if (off != expect_off || size > body || off > body - size) {
      throw CheckpointError(Reason::kMalformedDirectory,
                            "section '" + name + "' payload out of bounds");
    }
    expect_off = off + size;
  }
  if (expect_off != body) {
    throw CheckpointError(Reason::kMalformedDirectory,
                          "payload region does not tile the file body");
  }

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [name, range] = entries[i];
    const auto [off, size] = range;
    if (crc32c(bytes.data() + off, size) != crcs[i]) {
      throw CheckpointError(Reason::kSectionChecksum,
                            "section '" + name + "' CRC32C mismatch");
    }
    snap.sections_.emplace_back(
        name, ByteBuffer(bytes.begin() + static_cast<std::ptrdiff_t>(off),
                         bytes.begin() + static_cast<std::ptrdiff_t>(off + size)));
  }
  return snap;
}

bool Snapshot::has(const std::string& name) const {
  return std::any_of(sections_.begin(), sections_.end(),
                     [&](const auto& s) { return s.first == name; });
}

const ByteBuffer& Snapshot::section(const std::string& name) const {
  for (const auto& [existing, payload] : sections_) {
    if (existing == name) return payload;
  }
  throw CheckpointError(CheckpointError::Reason::kMissingSection,
                        "required section '" + name + "' absent");
}

std::vector<std::string> Snapshot::names() const {
  std::vector<std::string> out;
  out.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) out.push_back(name);
  return out;
}

}  // namespace oasis::ckpt
