// Durable file I/O for checkpoint containers.
//
// write_file_atomic implements the classic crash-consistent sequence:
//
//   1. write the bytes to `<path>.tmp` (chunked),
//   2. fsync the tmp file (data hits the platter before the name does),
//   3. rename(tmp, path)  — atomic on POSIX: readers see old-or-new, never
//      a mix,
//   4. fsync the parent directory (the rename itself is durable).
//
// A crash at ANY byte of this sequence leaves either the previous generation
// intact (steps 1–3 incomplete) or the new file fully in place — never a
// half-written file under the final name. The kill-point hook below turns
// that argument into a testable property: the crash harness arms a byte
// offset and the writer SIGKILLs itself at exactly that point, across every
// offset, and restore must always find a valid (possibly older) generation.
//
// Failures throw IoError carrying the path and errno (disk-full = ENOSPC
// surfaces here like any other write failure).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace oasis::ckpt {

using ByteBuffer = std::vector<std::uint8_t>;

/// Reads an entire file. Throws IoError when it cannot be opened/read.
ByteBuffer read_file(const std::string& path);

/// Crash-consistently replaces `path` with `bytes` (see file comment).
void write_file_atomic(const std::string& path, const ByteBuffer& bytes);

/// Arms the crash-injection hook: during the `save_index`-th call (0-based)
/// to write_file_atomic from now on, the process raises SIGKILL after
/// exactly `offset` bytes of the tmp file have been written. Two offsets
/// past the payload extend coverage to the metadata steps:
///   offset == size      → killed after the data, before fsync/rename
///   offset == size + 1  → killed after the rename, before the dir fsync
/// (offsets are clamped to size + 1). Also armable without code via the
/// environment variable OASIS_CKPT_KILL_AT="<save_index>:<offset>", read on
/// the first write. Test-only; never armed in normal operation.
void arm_kill_point(std::int64_t save_index, std::int64_t offset);

}  // namespace oasis::ckpt
