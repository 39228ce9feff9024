// fl::RoundCore — the server half of one round, shared by every engine
// (DESIGN.md §5n).
//
// The in-process round loop (fl::ShardedSimulation, under both of its
// drivers: fl::Simulation and the sharded one) and net::FlServer differ
// only in where updates come from. Each hands them to a RoundCore in its
// fold order; the core screens them (Server::screen_update), folds the
// accepted ones under the server's own AggregatorConfig, decides quorum and
// commits. Server::finish_round runs one RoundCore over an update list.
// FedAvg and norm-bounded stream through one FedAvgAccumulator in O(model)
// memory; median and trimmed mean buffer the accepted cohort. The float sum
// order is the fold order and nothing else, so engines that fold the same
// updates in the same order commit the same bytes.
//
// Only a streaming fold can be checkpointed mid-round. The sharded driver
// and the socket engine build their core streaming-only, which refuses the
// buffering aggregators with ConfigError; fl::Simulation's core buffers.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/codec.h"
#include "fl/aggregation.h"
#include "fl/server.h"

namespace oasis::fl {

/// A streaming fold's mid-round state, decoded from a snapshot.
struct FoldState {
  std::uint64_t count = 0;
  real total_weight = 0.0;
  std::vector<tensor::Tensor> partials;
  index_t rejected = 0;
  /// Every id the duplicate screen has claimed, ascending.
  std::vector<std::uint64_t> claimed;
};

class RoundCore {
 public:
  /// `server` must outlive the core. Opens the first fold.
  explicit RoundCore(Server& server, bool streaming_only = false);

  /// Valid-update quorum for a cohort of `m` clients: ceil(fraction·m), at
  /// least 1 when fraction > 0; 0 disables the quorum.
  static index_t quorum_needed(real fraction, index_t m);

  /// Starts a fold under the server's current aggregator: empty fold, fresh
  /// duplicate screen, zero tallies. ConfigError for a buffering aggregator
  /// on a streaming-only core.
  void open();

  /// A fresh duplicate screen, same fold. The round loop screens per
  /// shard and resets as each shard ends: cohort ids are distinct across
  /// shards, an O(cohort) id set would break its O(shard) memory contract,
  /// and every shard-boundary snapshot then carries an empty claimed list.
  void reset_screen() { screen_ = server_.begin_screen(); }

  /// Screens one update (Server::screen_update) and folds it when accepted.
  /// The one way an update reaches a fold: every engine offers its updates
  /// in its fold order, so the duplicate screen and observe_update() see
  /// the same sequence the sum does.
  RejectReason offer(const ClientUpdateMessage& update);

  [[nodiscard]] index_t accepted() const;  // folded since open()
  [[nodiscard]] index_t rejected() const { return rejected_; }

  /// Ends the round: QuorumError (model untouched) when fewer than
  /// `min_valid` updates were folded, a skipped round when none were, else
  /// the aggregate is committed. Drops the fold either way. Returns true
  /// when the model advanced.
  bool close(index_t min_valid);

  /// The fold-and-screen codec every checkpointing engine writes into its
  /// "agg" section: u64 count, f64 total weight, bytes(partials as a
  /// tensor::serialize_tensors message), u64 rejected tally, then the
  /// duplicate screen's claimed ids (u64 n, n × u64, ascending). The
  /// claimed ids include those of updates rejected for their payload, so a
  /// restored screen is the live one.
  void write_fold(ckpt::SectionWriter& w) const;
  /// Decodes write_fold()'s payload without touching live state.
  /// CheckpointError{kMalformedSection} when the partials do not decode or
  /// the ids are not strictly ascending.
  static FoldState read_fold(ckpt::SectionReader& r);
  /// Reopens a fold at a snapshot's frontier: partials, tallies and screen.
  void restore(FoldState fold);

 private:
  [[nodiscard]] bool buffers() const;
  /// Folds an accepted update. FedAvg folds it from its bytes in place,
  /// trusting the CRC the screen verified.
  void fold(const ClientUpdateMessage& update);
  void drop();  // releases the fold, the screen and the tallies

  Server& server_;
  bool streaming_only_;
  AggregatorConfig aggregator_;  // the server's, as of open()
  UpdateScreen screen_;
  FedAvgAccumulator accumulator_;                      // FedAvg, norm-bounded
  std::vector<std::vector<tensor::Tensor>> buffered_;  // median, trimmed mean
  index_t rejected_ = 0;
};

}  // namespace oasis::fl
