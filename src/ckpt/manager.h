// Checkpoint generation management: naming, retention, and restore-side
// fallback.
//
// A CheckpointManager owns one directory of snapshots named
// `ckpt-<generation>.ckpt` (generation = the protocol round the snapshot was
// taken after, zero-padded so lexicographic and numeric order agree). save()
// writes crash-consistently via write_file_atomic and prunes to the newest
// `keep` generations (plus any stale .tmp litter from earlier crashes).
// load_latest_valid() walks generations newest-first and returns the first
// one that passes full container validation — a torn or bit-rotted newest
// file silently falls back to its predecessor, and only when every retained
// generation is damaged (or none exists) does it throw
// CheckpointError{kNoValidGeneration}.
//
// The sharded and socket engines snapshot mid-round too, and number their
// generations with progress_generation(): round t at rest is t·2^20, and
// round t with `frontier` units (shards, folds) done is t·2^20 + 1 +
// frontier. The numbering is monotone across rounds and progress points, so
// newest-first restore always lands on the latest progress.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/container.h"

namespace oasis::ckpt {

/// Generation stride per round: a round may record fewer than this many
/// progress points (the engines refuse a round that could reach it).
inline constexpr std::uint64_t kProgressPerRound = 1ULL << 20;

/// The generation of round `round` at rest (`mid_round` false) or with
/// `frontier` units of progress done (`mid_round` true).
[[nodiscard]] constexpr std::uint64_t progress_generation(
    std::uint64_t round, bool mid_round, std::uint64_t frontier) {
  return round * kProgressPerRound + (mid_round ? 1 + frontier : 0);
}

class CheckpointManager {
 public:
  /// `dir` is created (with parents) on the first save. `keep` must be ≥ 1.
  explicit CheckpointManager(std::string dir, int keep = 3);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] int keep() const noexcept { return keep_; }

  /// Durably writes `bytes` as generation `generation`, prunes old
  /// generations, and returns the snapshot's path. Throws IoError on
  /// filesystem failure.
  std::string save(std::uint64_t generation, const ByteBuffer& bytes);

  struct Loaded {
    std::uint64_t generation = 0;
    Snapshot snapshot;
  };

  /// Newest generation that passes full validation (see file comment).
  /// Invalid generations encountered on the way are tallied under the
  /// `ckpt.restore.` counter prefix. Throws CheckpointError —
  /// kNoValidGeneration when the directory has no loadable snapshot.
  [[nodiscard]] Loaded load_latest_valid() const;

  /// Generations currently on disk, ascending. Missing directory → empty.
  [[nodiscard]] std::vector<std::uint64_t> generations() const;

  /// Path a given generation lives at (whether or not it exists).
  [[nodiscard]] std::string path_for(std::uint64_t generation) const;

 private:
  std::string dir_;
  int keep_;
};

}  // namespace oasis::ckpt
