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
#include <span>
#include <vector>

#include "ckpt/codec.h"
#include "fl/aggregation.h"
#include "fl/server.h"

namespace oasis::fl {

/// A streaming fold's mid-round state, decoded from a snapshot.
struct FoldPartials {
  std::uint64_t count = 0;
  real total_weight = 0.0;
  std::vector<tensor::Tensor> partials;
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
  /// shard: cohort ids are distinct across shards, and an O(cohort) id set
  /// would break its O(shard) memory contract.
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

  /// Mid-round payload of a streaming fold: u64 count, f64 total weight,
  /// bytes(partials as a tensor::serialize_tensors message).
  void write_partials(ckpt::SectionWriter& w) const;
  /// Decodes a payload without touching live state. CheckpointError when
  /// the partials do not decode.
  static FoldPartials read_partials(ckpt::SectionReader& r);
  /// Reopens a fold at a snapshot's frontier, with the ids the duplicate
  /// screen had already seen.
  void restore(FoldPartials fold, index_t rejected,
               std::span<const std::uint64_t> seen_ids = {});

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
