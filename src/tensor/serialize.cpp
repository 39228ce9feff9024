#include "tensor/serialize.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/crc32c.h"

namespace oasis::tensor {
namespace {

constexpr std::size_t kCrcBytes = sizeof(std::uint32_t);

std::uint8_t* put_u64(std::uint64_t v, std::uint8_t* out) {
  std::memcpy(out, &v, sizeof(v));
  return out + sizeof(v);
}

/// Encoded size of one tensor: rank, extents, values.
std::size_t tensor_bytes(const Tensor& t) {
  return (1 + t.rank()) * sizeof(std::uint64_t) +
         t.data().size() * sizeof(real);
}

/// Writes exactly tensor_bytes(t) bytes at `out`; returns the end.
std::uint8_t* put_tensor(const Tensor& t, std::uint8_t* out) {
  out = put_u64(t.rank(), out);
  for (const auto d : t.shape()) out = put_u64(d, out);
  const auto values = t.data();
  if (!values.empty()) {
    std::memcpy(out, values.data(), values.size() * sizeof(real));
  }
  return out + values.size() * sizeof(real);
}

// All read helpers walk the logical payload [0, end); `end` excludes the
// CRC trailer when the buffer carries one, so a hostile length can never
// steer the cursor into (or past) the checksum bytes.
std::uint64_t read_u64(const ByteBuffer& in, std::size_t& offset,
                       std::size_t end) {
  if (offset > end || end - offset < sizeof(std::uint64_t)) {
    throw SerializationError("truncated buffer reading u64");
  }
  std::uint64_t v = 0;
  std::memcpy(&v, in.data() + offset, sizeof(v));
  offset += sizeof(v);
  return v;
}

/// Reads a tensor header (rank + extents) and returns its shape together
/// with the validated element count. Every check happens BEFORE allocation
/// and is written so no intermediate product/sum can wrap: a hostile header
/// claiming 2^62 × 2^62 elements throws instead of overflowing to a small
/// count that would desynchronise the read cursor.
Shape read_header(const ByteBuffer& in, std::size_t& offset, std::size_t end,
                  index_t& out_numel) {
  const auto rank = read_u64(in, offset, end);
  if (rank > 8) {
    throw SerializationError("implausible tensor rank " +
                             std::to_string(rank));
  }
  Shape shape(rank);
  index_t n = 1;
  for (auto& d : shape) {
    d = read_u64(in, offset, end);
    if (d != 0 && n > std::numeric_limits<index_t>::max() / d) {
      throw SerializationError("tensor extent product overflows");
    }
    n *= d;
  }
  // Overflow-safe payload bound: compare element count against the bytes
  // actually remaining rather than forming n * sizeof(real).
  if (offset > end || n > (end - offset) / sizeof(real)) {
    throw SerializationError("truncated buffer reading tensor payload");
  }
  out_numel = n;
  return shape;
}

/// Verifies the CRC32C trailer of a serialize_tensors() message and returns
/// the logical payload size (everything before the trailer). Runs BEFORE any
/// structural parsing so damaged bytes are reported as checksum damage even
/// when the structure still happens to decode.
std::size_t verify_trailer(const ByteBuffer& in) {
  if (in.size() < sizeof(std::uint64_t) + kCrcBytes) {
    throw ChecksumError("buffer too small for count header + CRC trailer");
  }
  const std::size_t payload = in.size() - kCrcBytes;
  std::uint32_t stored = 0;
  std::memcpy(&stored, in.data() + payload, kCrcBytes);
  const std::uint32_t actual = oasis::common::crc32c(in.data(), payload);
  if (stored != actual) {
    throw ChecksumError("payload CRC32C mismatch");
  }
  return payload;
}

}  // namespace

void write_tensor(const Tensor& t, ByteBuffer& out) {
  const std::size_t at = out.size();
  out.resize(at + tensor_bytes(t));
  put_tensor(t, out.data() + at);
}

Tensor read_tensor(const ByteBuffer& in, std::size_t& offset) {
  index_t n = 0;
  Shape shape = read_header(in, offset, in.size(), n);
  std::vector<real> values(n);
  std::memcpy(values.data(), in.data() + offset, n * sizeof(real));
  offset += n * sizeof(real);
  return Tensor(std::move(shape), std::move(values));
}

ByteBuffer serialize_tensors(std::span<const Tensor* const> tensors) {
  // Size the message exactly, allocate once, and write every byte straight
  // into its final place.
  std::size_t size = sizeof(std::uint64_t) + kCrcBytes;
  for (const Tensor* t : tensors) size += tensor_bytes(*t);
  ByteBuffer out(size);
  std::uint8_t* cursor = put_u64(tensors.size(), out.data());
  for (const Tensor* t : tensors) cursor = put_tensor(*t, cursor);
  reseal_tensors(out);
  return out;
}

ByteBuffer serialize_tensors(const std::vector<Tensor>& tensors) {
  std::vector<const Tensor*> views;
  views.reserve(tensors.size());
  for (const auto& t : tensors) views.push_back(&t);
  return serialize_tensors(views);
}

void reseal_tensors(ByteBuffer& buf) {
  if (buf.size() < kCrcBytes) return;
  const std::size_t payload = buf.size() - kCrcBytes;
  const std::uint32_t crc = oasis::common::crc32c(buf.data(), payload);
  std::memcpy(buf.data() + payload, &crc, kCrcBytes);
}

std::vector<Tensor> deserialize_tensors(const ByteBuffer& in) {
  const std::size_t end = verify_trailer(in);
  std::size_t offset = 0;
  const auto count = read_u64(in, offset, end);
  if (count > (1u << 20)) {
    throw SerializationError("implausible tensor count " +
                             std::to_string(count));
  }
  std::vector<Tensor> tensors;
  tensors.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    index_t n = 0;
    Shape shape = read_header(in, offset, end, n);
    std::vector<real> values(n);
    std::memcpy(values.data(), in.data() + offset, n * sizeof(real));
    offset += n * sizeof(real);
    tensors.emplace_back(std::move(shape), std::move(values));
  }
  if (offset != end) {
    throw SerializationError("trailing bytes after tensor list");
  }
  return tensors;
}

TensorScan scan_tensors(const ByteBuffer& in) {
  const std::size_t end = verify_trailer(in);
  std::size_t offset = 0;
  const auto count = read_u64(in, offset, end);
  if (count > (1u << 20)) {
    throw SerializationError("implausible tensor count " +
                             std::to_string(count));
  }
  TensorScan scan;
  scan.tensors = count;
  scan.shapes.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    index_t n = 0;
    scan.shapes.push_back(read_header(in, offset, end, n));
    // Stream the values through a small stack buffer: the payload bytes are
    // not guaranteed to be double-aligned inside the message.
    constexpr index_t kChunk = 128;
    real buf[kChunk];
    index_t done = 0;
    while (done < n) {
      const index_t take = std::min(kChunk, n - done);
      std::memcpy(buf, in.data() + offset + done * sizeof(real),
                  take * sizeof(real));
      for (index_t k = 0; k < take; ++k) {
        if (!std::isfinite(buf[k])) scan.all_finite = false;
        scan.sum_squares += buf[k] * buf[k];
      }
      done += take;
    }
    offset += n * sizeof(real);
    scan.values += n;
  }
  if (offset != end) {
    throw SerializationError("trailing bytes after tensor list");
  }
  return scan;
}

}  // namespace oasis::tensor
