// Gradient aggregation rules.
//
// Aggregation is built on one primitive — FedAvgAccumulator — a fixed-size
// streaming reducer that folds weighted client updates one at a time into a
// single running partial sum. Every engine folds through fl::RoundCore,
// which streams through this accumulator, so the floating-point fold order
// is the order add() is called in, nothing else. See DESIGN.md §5i and §5n
// for the determinism argument.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fl/message.h"
#include "tensor/tensor.h"

namespace oasis::fl {

/// Fixed-size streaming (weighted) FedAvg reducer.
///
/// Memory is O(model): one tensor list shaped like the gradients plus a
/// scalar total weight, regardless of how many updates stream through —
/// the property that lets a round over 1M virtual clients run in O(shard)
/// memory. Determinism: the result is a pure function of the SEQUENCE of
/// add() calls. Every entry point runs one fold: the first update is scaled
/// (v·w) and every later one fused into the sum (fma(w, v, total)). A
/// payload is folded straight from its bytes, with no tensor built; after a
/// reset() the next round's first update overwrites the storage the last
/// round left, so a steady state allocates nothing.
///
/// Checkpointable: partials()/total_weight()/count() expose the complete
/// accumulator state and restore() reinstates it bit-exactly, so a huge
/// round can resume from a mid-round shard-boundary snapshot.
class FedAvgAccumulator {
 public:
  /// Folds one update's payload in place, weighted by its example count
  /// (paper Eq. 1). Unless `screened` (the bytes passed
  /// Server::screen_update, which checked the CRC), the CRC32C trailer is
  /// verified first. Throws AggregationError on a zero example count,
  /// Checksum/SerializationError on a damaged payload and Error on a tensor
  /// count/shape mismatch with the running sum, before anything is folded.
  void add(const ClientUpdateMessage& update, bool screened = false);

  /// Folds pre-deserialized gradients with an explicit weight (> 0); a
  /// weight of 1 per update gives the plain 1/M average.
  void add(std::vector<tensor::Tensor> gradients, real weight);

  /// Updates folded so far.
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] real total_weight() const { return total_weight_; }
  /// The running weighted partial sum (empty before the first add()).
  [[nodiscard]] const std::vector<tensor::Tensor>& partials() const {
    return total_;
  }

  /// The weighted average over everything folded so far. Does not consume
  /// the accumulator. Throws AggregationError when count() == 0.
  [[nodiscard]] std::vector<tensor::Tensor> average() const;

  /// average()'s bytes, computed by dividing the partial sums in place: no
  /// copy. The accumulator then holds the average, not a fold, until
  /// reset(). Throws AggregationError when count() == 0.
  const std::vector<tensor::Tensor>& average_in_place();

  /// Drops all folded state (ready for the next round).
  void reset();

  /// Checkpoint restore: reinstates a previously captured state bit-exactly.
  void restore(std::vector<tensor::Tensor> partials, real total_weight,
               std::uint64_t count);

 private:
  std::vector<tensor::Tensor> total_;
  std::vector<tensor::Tensor> spare_;  // the storage reset() released
  real total_weight_ = 0.0;
  std::uint64_t count_ = 0;
};

// --- Byzantine-robust aggregation -------------------------------------------
//
// Memory/streaming trade-off (DESIGN.md §5l). FedAvg and the norm-bounded
// variant are linear folds: they stream through FedAvgAccumulator in O(model)
// memory at any cohort size. Coordinate-wise median and trimmed mean are
// per-coordinate ORDER STATISTICS — they need every accepted update resident
// at once, so selecting them buys an f < n/2 breakdown point at a documented
// O(cohort · model) memory cost. fl::RoundCore buffers for them under
// fl::Simulation; the sharded driver and the socket engine checkpoint a
// streaming fold and refuse them at construction (ConfigError). No engine
// folds them under a masking defense stack: the masks cancel only in a sum.
//
// Both order-statistic aggregators are UNWEIGHTED (example counts are
// attacker-controlled inputs, so weighting by them would hand back the very
// lever robustness removes) and permutation-invariant bit-for-bit: values are
// sorted per coordinate, so the fold order is a function of the values, not
// of update arrival order.

/// Which rule a round's fold aggregates accepted updates with.
enum class AggregatorKind : std::uint8_t {
  kFedAvg = 0,        // example-weighted mean (paper Eq. 1) — streaming
  kCoordinateMedian,  // per-coordinate median — buffers the cohort
  kTrimmedMean,       // per-coordinate trimmed mean — buffers the cohort
  kNormBounded,       // FedAvg over per-update L2-clipped gradients — streaming
};

const char* to_string(AggregatorKind kind);

struct AggregatorConfig {
  AggregatorKind kind = AggregatorKind::kFedAvg;
  /// Fraction trimmed from EACH tail per coordinate (kTrimmedMean). The
  /// breakdown point: up to floor(trim_fraction·n) arbitrary updates cannot
  /// move the result outside the honest values' range. Must be in [0, 0.5).
  real trim_fraction = 0.1;
  /// Per-update L2 clip bound (kNormBounded). Must be > 0 for that kind.
  real norm_bound = 1.0;
};

/// Parses a CLI-style aggregator spec:
///   "fedavg" | "median" | "trimmed[:frac]" | "normbound[:bound]"
/// (omitted parameters keep the AggregatorConfig defaults). Throws
/// ConfigError on unknown names or malformed/out-of-range parameters.
AggregatorConfig parse_aggregator(const std::string& spec);

/// In-place global L2 clip of a tensor list to `max_norm` (no-op when the
/// norm is already within the bound). Returns the pre-clip norm.
real clip_gradients_to_norm(std::vector<tensor::Tensor>& gradients,
                            real max_norm);

/// Per-coordinate median over the update set (unweighted; even counts
/// average the two middle order statistics). Throws AggregationError on an
/// empty set, Error on shape/count mismatch.
std::vector<tensor::Tensor> coordinate_median(
    std::span<const std::vector<tensor::Tensor>> updates);

/// Per-coordinate trimmed mean: drop floor(trim_fraction·n) values from each
/// tail, average the rest (ascending order, so the sum is permutation
/// invariant). trim_fraction == 0 is the plain unweighted mean over sorted
/// values. Throws AggregationError when trimming leaves nothing, ConfigError
/// when trim_fraction is outside [0, 0.5).
std::vector<tensor::Tensor> trimmed_mean(
    std::span<const std::vector<tensor::Tensor>> updates, real trim_fraction);

}  // namespace oasis::fl
