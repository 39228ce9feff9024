// Tiny bounds-checked value codec for checkpoint section payloads.
//
// Sections store primitive streams (u8/u32/u64, bit-cast f64, short
// strings). The Reader validates every length against the bytes actually
// present and throws CheckpointError{kMalformedSection} on any shortfall —
// by the time a Reader runs, the section's CRC already passed, so a
// malformed stream means a writer bug or version skew, not disk damage.
// Doubles travel as raw IEEE-754 bit patterns (bit_cast through u64): the
// resume bit-identity contract requires exact payload round-trips, not
// merely value-preserving ones (signalling-NaN payloads included).
//
// The same codec writes and reads the socket frames (net/frame.h). Integers
// travel in host byte order, which is little-endian on every supported
// target; the static_assert below keeps it that way.
//
// The helpers at the end are the layouts every engine shares: the engine
// tag that opens every "meta" section, an Rng stream position, and the
// rethrow that turns a model section the live network cannot load into a
// typed state mismatch.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace oasis::ckpt {

static_assert(std::endian::native == std::endian::little,
              "checkpoint and wire integers are little-endian host order");

using ByteBuffer = std::vector<std::uint8_t>;

class SectionWriter {
 public:
  void reserve(std::size_t n) { out_.reserve(n); }
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bytes(const ByteBuffer& b) {
    u64(b.size());
    append(b);
  }
  /// `b` as is, with no length prefix: a trailing payload whose length the
  /// container already records.
  void append(const ByteBuffer& b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  /// u64 count, then the values.
  void u64s(const std::vector<std::uint64_t>& values) {
    u64(values.size());
    for (const auto v : values) u64(v);
  }

  [[nodiscard]] ByteBuffer take() { return std::move(out_); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  ByteBuffer out_;
};

class SectionReader {
 public:
  SectionReader(const ByteBuffer& in, std::string section)
      : in_(in), section_(std::move(section)) {}

  std::uint8_t u8() {
    need(1);
    return in_[off_++];
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(in_.data() + off_), n);
    off_ += n;
    return s;
  }
  ByteBuffer bytes() {
    const std::uint64_t n = u64();
    need(n);
    ByteBuffer b(in_.begin() + static_cast<std::ptrdiff_t>(off_),
                 in_.begin() + static_cast<std::ptrdiff_t>(off_ + n));
    off_ += n;
    return b;
  }
  /// u64s()'s list. The count is checked against the bytes present before
  /// anything is allocated.
  std::vector<std::uint64_t> u64s() {
    const std::uint64_t n = u64();
    need(n, sizeof(std::uint64_t));
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = u64();
    return values;
  }

  [[nodiscard]] std::size_t remaining() const { return in_.size() - off_; }

  /// Call when a section has been fully consumed; trailing bytes mean a
  /// writer/reader version skew and are rejected.
  void expect_end() const {
    if (off_ != in_.size()) {
      throw CheckpointError(
          CheckpointError::Reason::kMalformedSection,
          "section '" + section_ + "' has " +
              std::to_string(in_.size() - off_) + " trailing byte(s)");
    }
  }

 private:
  /// Throws unless `n` items of `unit` bytes remain (divided, not
  /// multiplied, so a hostile count cannot wrap).
  void need(std::uint64_t n, std::uint64_t unit = 1) const {
    if (off_ > in_.size() || (in_.size() - off_) / unit < n) {
      throw CheckpointError(
          CheckpointError::Reason::kMalformedSection,
          "section '" + section_ + "' truncated at offset " +
              std::to_string(off_));
    }
  }
  void raw(void* p, std::size_t n) {
    need(n);
    std::memcpy(p, in_.data() + off_, n);
    off_ += n;
  }

  const ByteBuffer& in_;
  std::string section_;
  std::size_t off_ = 0;
};

/// The engine a snapshot belongs to: the first byte of its "meta" section
/// (DESIGN.md §5g).
enum class Engine : std::uint8_t {
  kSimulation = 1,  // the round loop under fl::Simulation's driver
  kSharded = 2,     // the round loop under a VirtualPopulation
  kSocket = 3,      // net::FlServer
};

/// Reads the engine tag. CheckpointError{kStateMismatch} when the snapshot
/// belongs to another engine.
void expect_engine(SectionReader& meta, Engine engine);

/// An Rng stream position: four u64 state words, the cached spare normal
/// (f64), and its has-spare flag (u8).
void write_rng_state(SectionWriter& w, const common::Rng::State& s);
common::Rng::State read_rng_state(SectionReader& r);

/// Runs `load`, which applies a "model" section to the live network. The
/// section already passed its CRC, so a failure to load is an architecture
/// mismatch, not disk damage: rethrown as CheckpointError{kStateMismatch}.
template <typename Load>
void load_model_section(Load&& load) {
  try {
    load();
  } catch (const Error& e) {
    throw CheckpointError(CheckpointError::Reason::kStateMismatch,
                          std::string("model state does not fit the live "
                                      "architecture: ") +
                              e.what());
  }
}

}  // namespace oasis::ckpt
