#include "tensor/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/crc32c.h"
#include "obs/obs.h"

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

/// CRC32C over a message's logical payload. Every pass goes through here,
/// so the kernel.crc32c.calls counter sees each one.
std::uint32_t message_crc(const ByteBuffer& in, std::size_t payload) {
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.crc32c.calls");
    calls.add(1);
  }
  return oasis::common::crc32c(in.data(), payload);
}

/// Returns the logical payload size of a serialize_tensors() message
/// (everything before the trailer) and, when `check_crc`, verifies the
/// trailer. The check runs BEFORE any structural parsing so damaged bytes
/// are reported as checksum damage even when the structure still happens to
/// decode.
std::size_t payload_end(const ByteBuffer& in, bool check_crc) {
  if (in.size() < sizeof(std::uint64_t) + kCrcBytes) {
    throw ChecksumError("buffer too small for count header + CRC trailer");
  }
  const std::size_t payload = in.size() - kCrcBytes;
  std::uint32_t stored = 0;
  std::memcpy(&stored, in.data() + payload, kCrcBytes);
  if (check_crc && stored != message_crc(in, payload)) {
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
  // An empty vector's data() may be null, and memcpy with a null pointer is
  // UB even for zero bytes (deserialize_tensors guards the same way).
  if (n > 0) std::memcpy(values.data(), in.data() + offset, n * sizeof(real));
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
  const std::uint32_t crc = message_crc(buf, payload);
  std::memcpy(buf.data() + payload, &crc, kCrcBytes);
}

std::vector<TensorLocation> locate_tensors(const ByteBuffer& in,
                                           bool check_crc) {
  const std::size_t end = payload_end(in, check_crc);
  std::size_t offset = 0;
  const auto count = read_u64(in, offset, end);
  if (count > (1u << 20)) {
    throw SerializationError("implausible tensor count " +
                             std::to_string(count));
  }
  // Each tensor takes at least its rank word, so the reservation is bounded
  // by the bytes present, not by the claimed count.
  std::vector<TensorLocation> found;
  found.reserve(std::min<std::uint64_t>(
      count, (end - offset) / sizeof(std::uint64_t)));
  for (std::uint64_t i = 0; i < count; ++i) {
    TensorLocation t;
    t.shape = read_header(in, offset, end, t.numel);
    t.offset = offset;
    offset += t.numel * sizeof(real);
    found.push_back(std::move(t));
  }
  if (offset != end) {
    throw SerializationError("trailing bytes after tensor list");
  }
  return found;
}

std::vector<Tensor> deserialize_tensors(const ByteBuffer& in) {
  std::vector<TensorLocation> found = locate_tensors(in);
  std::vector<Tensor> tensors;
  tensors.reserve(found.size());
  for (auto& t : found) {
    std::vector<real> values(t.numel);
    if (t.numel > 0) {
      std::memcpy(values.data(), in.data() + t.offset, t.numel * sizeof(real));
    }
    tensors.emplace_back(std::move(t.shape), std::move(values));
  }
  return tensors;
}

namespace {

/// Σ v² over `n` doubles at `p` as one ascending FMA chain: a serial
/// dependency at the FMA latency, which is why the screen asks for it only
/// under a norm bound.
double sum_squares(const std::uint8_t* p, index_t n, double sum) {
  for (index_t k = 0; k < n; ++k) {
    double v;
    std::memcpy(&v, p + k * sizeof(real), sizeof v);
    sum = std::fma(v, v, sum);
  }
  return sum;
}

}  // namespace

bool values_finite(const std::uint8_t* values, index_t n) {
  // NaN and ±Inf are the values with every exponent bit set.
  constexpr std::uint64_t kExponent = 0x7FF0000000000000ull;
  std::uint64_t bad = 0;
  for (index_t k = 0; k < n; ++k) {
    std::uint64_t bits;
    std::memcpy(&bits, values + k * sizeof(real), sizeof bits);
    bad |= static_cast<std::uint64_t>((bits & kExponent) == kExponent);
  }
  return bad == 0;
}

TensorScan scan_tensors(const ByteBuffer& in, bool with_sum_squares) {
  TensorScan scan;
  std::vector<TensorLocation> found = locate_tensors(in);
  scan.tensors = found.size();
  scan.shapes.reserve(found.size());
  for (auto& t : found) {
    const std::uint8_t* values = in.data() + t.offset;
    if (!values_finite(values, t.numel)) scan.all_finite = false;
    if (with_sum_squares) {
      scan.sum_squares = sum_squares(values, t.numel, scan.sum_squares);
    }
    scan.values += t.numel;
    scan.shapes.push_back(std::move(t.shape));
  }
  return scan;
}

}  // namespace oasis::tensor
