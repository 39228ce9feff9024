#include "fl/round_core.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "tensor/serialize.h"

namespace oasis::fl {

RoundCore::RoundCore(Server& server, bool streaming_only)
    : server_(server), streaming_only_(streaming_only) {
  open();
}

index_t RoundCore::quorum_needed(real fraction, index_t m) {
  OASIS_CHECK_MSG(fraction >= 0.0 && fraction <= 1.0,
                  "quorum_fraction " << fraction << " outside [0, 1]");
  if (fraction <= 0.0) return 0;
  auto needed =
      static_cast<index_t>(std::ceil(fraction * static_cast<real>(m)));
  return needed < 1 ? 1 : needed;
}

bool RoundCore::buffers() const {
  return aggregator_.kind == AggregatorKind::kCoordinateMedian ||
         aggregator_.kind == AggregatorKind::kTrimmedMean;
}

void RoundCore::open() {
  aggregator_ = server_.aggregator();
  if (streaming_only_ && buffers()) {
    throw ConfigError(std::string(to_string(aggregator_.kind)) +
                      " buffers the whole cohort, but this engine checkpoints "
                      "a streaming fold — use fl::Simulation, or normbound");
  }
  drop();
  screen_ = server_.begin_screen();
}

void RoundCore::drop() {
  screen_ = UpdateScreen{};
  accumulator_.reset();
  buffered_.clear();
  rejected_ = 0;
}

void RoundCore::fold(const ClientUpdateMessage& update) {
  switch (aggregator_.kind) {
    case AggregatorKind::kFedAvg:
      // Straight from the screened bytes: offer() already checked the CRC.
      accumulator_.add(update, /*screened=*/true);
      break;
    case AggregatorKind::kNormBounded: {
      // FedAvg's weighted fold over the update clipped to the norm ball.
      auto gradients = tensor::deserialize_tensors(update.gradients);
      clip_gradients_to_norm(gradients, aggregator_.norm_bound);
      accumulator_.add(std::move(gradients),
                       static_cast<real>(update.num_examples));
      break;
    }
    case AggregatorKind::kCoordinateMedian:
    case AggregatorKind::kTrimmedMean:
      buffered_.push_back(tensor::deserialize_tensors(update.gradients));
      break;
  }
}

RejectReason RoundCore::offer(const ClientUpdateMessage& update) {
  const RejectReason reason = server_.screen_update(update, screen_);
  if (reason == RejectReason::kAccepted) {
    fold(update);
  } else {
    ++rejected_;
  }
  return reason;
}

index_t RoundCore::accepted() const {
  return buffers() ? buffered_.size() : accumulator_.count();
}

bool RoundCore::close(index_t min_valid) {
  const index_t valid = accepted();
  if (valid < min_valid) {
    drop();
    throw QuorumError("round " + std::to_string(server_.round()) + ": " +
                      std::to_string(valid) + " valid updates < " +
                      std::to_string(min_valid) + " required for quorum");
  }
  if (valid == 0) {
    server_.commit_skipped_round();
  } else if (aggregator_.kind == AggregatorKind::kCoordinateMedian) {
    server_.commit_round(coordinate_median(buffered_));
  } else if (aggregator_.kind == AggregatorKind::kTrimmedMean) {
    server_.commit_round(trimmed_mean(buffered_, aggregator_.trim_fraction));
  } else {
    server_.commit_round(accumulator_.average_in_place());
  }
  drop();
  return valid > 0;
}

void RoundCore::write_fold(ckpt::SectionWriter& w) const {
  OASIS_CHECK_MSG(!buffers(), "a buffered fold cannot be checkpointed");
  w.u64(accumulator_.count());
  w.f64(static_cast<double>(accumulator_.total_weight()));
  w.bytes(tensor::serialize_tensors(accumulator_.partials()));
  w.u64(rejected_);
  // Sorted, so identical state always produces identical snapshot bytes.
  std::vector<std::uint64_t> claimed(screen_.seen_ids.begin(),
                                     screen_.seen_ids.end());
  std::sort(claimed.begin(), claimed.end());
  w.u64s(claimed);
}

FoldState RoundCore::read_fold(ckpt::SectionReader& r) {
  FoldState fold;
  fold.count = r.u64();
  fold.total_weight = static_cast<real>(r.f64());
  const ckpt::ByteBuffer bytes = r.bytes();
  try {
    fold.partials = tensor::deserialize_tensors(bytes);
  } catch (const Error& e) {
    throw CheckpointError(
        CheckpointError::Reason::kMalformedSection,
        std::string("accumulator partials failed to decode: ") + e.what());
  }
  fold.rejected = r.u64();
  fold.claimed = r.u64s();
  if (std::adjacent_find(fold.claimed.begin(), fold.claimed.end(),
                         std::greater_equal<>()) != fold.claimed.end()) {
    throw CheckpointError(CheckpointError::Reason::kMalformedSection,
                          "claimed client ids are not strictly ascending");
  }
  return fold;
}

void RoundCore::restore(FoldState fold) {
  open();
  accumulator_.restore(std::move(fold.partials), fold.total_weight,
                       fold.count);
  rejected_ = fold.rejected;
  screen_.seen_ids.insert(fold.claimed.begin(), fold.claimed.end());
}

}  // namespace oasis::fl
