// Binary (de)serialization of tensors.
//
// The FL layer ships model snapshots and gradient updates between server and
// clients as byte buffers; this module defines that wire format. Layout per
// tensor: u64 rank, u64 extents..., f64 values... (little-endian host order —
// the simulator runs in one process, so no byte swapping is performed, but
// the format is versioned for forward compatibility).
//
// Deserialization is hardened against hostile payloads: every length/extent
// is bounds-checked (overflow-safely) against the bytes actually present
// BEFORE any allocation, so a truncated, bit-flipped, or oversized buffer
// throws SerializationError instead of reading past the end or attempting a
// multi-exabyte allocation. The FL server's update-validation pipeline relies
// on this boundary.
//
// serialize_tensors additionally appends a 4-byte CRC32C over the message; it
// is verified FIRST on read (ChecksumError on mismatch), so damage that
// happens to preserve structure — a bit flip inside a value — is still
// caught. write_tensor/read_tensor remain the raw, trailer-free primitives.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace oasis::tensor {

using ByteBuffer = std::vector<std::uint8_t>;

/// Appends a serialized tensor to `out`.
void write_tensor(const Tensor& t, ByteBuffer& out);

/// Reads one tensor starting at `offset`, advancing `offset` past it.
/// Throws SerializationError on truncated/malformed input.
Tensor read_tensor(const ByteBuffer& in, std::size_t& offset);

/// Serializes a list of tensors with a count header and a trailing CRC32C.
ByteBuffer serialize_tensors(const std::vector<Tensor>& tensors);

/// The same bytes from borrowed tensors, so a caller holding tensors in
/// place (a model's parameters) serializes them without copying them first.
ByteBuffer serialize_tensors(std::span<const Tensor* const> tensors);

/// Inverse of serialize_tensors. Throws ChecksumError when the CRC32C
/// trailer does not match the payload, SerializationError on malformed input.
std::vector<Tensor> deserialize_tensors(const ByteBuffer& in);

/// Recomputes and overwrites the CRC32C trailer of a serialize_tensors()
/// buffer in place. Test/fault-injection helper: lets a mutated payload keep
/// a valid checksum so the structural validation paths stay reachable.
void reseal_tensors(ByteBuffer& buf);

/// One tensor of a serialize_tensors() message, located in place: its shape
/// and the byte offset of its values in the message.
struct TensorLocation {
  Shape shape;
  std::size_t offset = 0;
  index_t numel = 0;
};

/// Validates a serialize_tensors() message — the CRC32C trailer first
/// (ChecksumError), unless `check_crc` is false because the bytes already
/// passed a checked pass, then the whole structure (SerializationError) —
/// and locates every tensor without copying a value. Readers that work in
/// place (the screen, the server's fold, a model-state load) start here.
std::vector<TensorLocation> locate_tensors(const ByteBuffer& in,
                                           bool check_crc = true);

/// Summary of a serialized tensor list produced without materialising any
/// tensor (no allocation proportional to the payload). Used by the FL
/// server's cheap screening pass over client updates.
struct TensorScan {
  std::uint64_t tensors = 0;    // list length from the count header
  std::uint64_t values = 0;     // total scalar count across all tensors
  double sum_squares = 0.0;     // Σ v² when requested, else 0 (may be inf
                                // when the values overflow)
  bool all_finite = true;       // no NaN/Inf anywhere in the payload
  std::vector<Shape> shapes;    // per-tensor shapes, list order
};

/// True when none of the `n` doubles stored at `values` is a NaN or an Inf.
/// The bytes need not be double-aligned. Branch-free, so it vectorizes and
/// runs at memory speed; scan_tensors runs it over every tensor.
bool values_finite(const std::uint8_t* values, index_t n);

/// Walks a serialize_tensors() buffer, validating the same structural
/// invariants as deserialize_tensors (throws SerializationError on malformed
/// input), and returns value statistics for plausibility screening. The
/// finite check is one memory-speed pass. `with_sum_squares` adds Σ v², one
/// ascending std::fma chain over the values in message order: a serial chain
/// several times slower than the rest of the scan, so the server asks for
/// it only when a norm bound will read it.
TensorScan scan_tensors(const ByteBuffer& in, bool with_sum_squares = true);

}  // namespace oasis::tensor
