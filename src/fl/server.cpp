#include "fl/server.h"

#include <cmath>

#include "fl/round_core.h"
#include "nn/model_io.h"
#include "obs/obs.h"
#include "tensor/serialize.h"

namespace oasis::fl {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kAccepted: return "accepted";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kWrongRound: return "wrong_round";
    case RejectReason::kDuplicate: return "duplicate";
    case RejectReason::kZeroExamples: return "zero_examples";
    case RejectReason::kShapeMismatch: return "shape_mismatch";
    case RejectReason::kNonFinite: return "non_finite";
    case RejectReason::kNormTooLarge: return "norm_too_large";
    case RejectReason::kChecksumMismatch: return "checksum_mismatch";
  }
  return "?";
}

Server::Server(std::unique_ptr<nn::Sequential> global_model,
               real learning_rate)
    : model_(std::move(global_model)), learning_rate_(learning_rate) {
  OASIS_CHECK(model_ != nullptr);
  OASIS_CHECK(learning_rate_ > 0.0);
}

const GlobalModelMessage& Server::begin_round() {
  current_dispatch_.round = round_;
  current_dispatch_.model_state = nn::serialize_state(*model_);
  return current_dispatch_;
}

const GlobalModelMessage& Server::dispatch_to(std::uint64_t /*client_id*/) {
  return current_dispatch_;
}

UpdateScreen Server::begin_screen() const {
  UpdateScreen screen;
  for (auto* p : model_->parameters()) {
    screen.expected_shapes.push_back(p->value.shape());
  }
  return screen;
}

RejectReason Server::screen_update(const ClientUpdateMessage& update,
                                   UpdateScreen& screen) {
  static obs::Counter& accepted_c = obs::counter("fl.validate.accepted");
  static obs::Counter& rejected_c = obs::counter("fl.validate.rejected");
  static obs::Counter& malformed_c =
      obs::counter("fl.validate.reject.malformed");
  static obs::Counter& wrong_round_c =
      obs::counter("fl.validate.reject.wrong_round");
  static obs::Counter& duplicate_c =
      obs::counter("fl.validate.reject.duplicate");
  static obs::Counter& zero_examples_c =
      obs::counter("fl.validate.reject.zero_examples");
  static obs::Counter& shape_c = obs::counter("fl.validate.reject.shape");
  static obs::Counter& non_finite_c =
      obs::counter("fl.validate.reject.non_finite");
  static obs::Counter& norm_c = obs::counter("fl.validate.reject.norm");
  static obs::Counter& checksum_c =
      obs::counter("fl.validate.reject.checksum");

  observe_update(update);
  RejectReason reason = RejectReason::kAccepted;
  if (update.round != round_) {
    reason = RejectReason::kWrongRound;
  } else if (!screen.seen_ids.insert(update.client_id).second) {
    reason = RejectReason::kDuplicate;
  } else if (update.num_examples == 0) {
    reason = RejectReason::kZeroExamples;
  } else {
    // Structural walk + numeric screens without materialising tensors; a
    // hostile payload must fail HERE, inside the catch boundary, never in
    // the aggregation hot loop. Σ v² is a serial chain, so the scan sums it
    // only when a norm bound will read it.
    const bool bounded = validation_.max_grad_norm > 0.0;
    try {
      const tensor::TensorScan scan =
          tensor::scan_tensors(update.gradients, bounded);
      if (scan.shapes != screen.expected_shapes) {
        reason = RejectReason::kShapeMismatch;
      } else if (!scan.all_finite) {
        reason = RejectReason::kNonFinite;
      } else if (bounded &&
                 std::sqrt(scan.sum_squares) > validation_.max_grad_norm) {
        reason = RejectReason::kNormTooLarge;
      }
    } catch (const ChecksumError&) {
      // CRC trailer mismatch: the bytes were damaged in flight. Checked
      // first (inside scan_tensors) so a bit flip that happens to keep the
      // structure parseable is still rejected.
      reason = RejectReason::kChecksumMismatch;
    } catch (const SerializationError&) {
      reason = RejectReason::kMalformed;
    }
  }
  if (reason == RejectReason::kAccepted) {
    accepted_c.add(1);
  } else {
    rejected_c.add(1);
    switch (reason) {
      case RejectReason::kMalformed: malformed_c.add(1); break;
      case RejectReason::kWrongRound: wrong_round_c.add(1); break;
      case RejectReason::kDuplicate: duplicate_c.add(1); break;
      case RejectReason::kZeroExamples: zero_examples_c.add(1); break;
      case RejectReason::kShapeMismatch: shape_c.add(1); break;
      case RejectReason::kNonFinite: non_finite_c.add(1); break;
      case RejectReason::kNormTooLarge: norm_c.add(1); break;
      case RejectReason::kChecksumMismatch: checksum_c.add(1); break;
      case RejectReason::kAccepted: break;
    }
  }
  return reason;
}

void Server::commit_round(const std::vector<tensor::Tensor>& average) {
  auto params = model_->parameters();
  OASIS_CHECK_MSG(average.size() == params.size(),
                  "aggregated " << average.size() << " tensors for "
                                << params.size() << " parameters");
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value.add_scaled_(average[i], -learning_rate_);
  }
  ++round_;
}

void Server::commit_skipped_round() {
  // Nothing to aggregate; skip the SGD step instead of dividing by a zero
  // example count, but still advance the protocol round.
  static obs::Counter& skipped = obs::counter("fl.rounds_skipped");
  skipped.add(1);
  ++round_;
}

RoundOutcome Server::finish_round(std::span<const ClientUpdateMessage> updates,
                                  index_t min_valid) {
  RoundCore core(*this);
  RoundOutcome outcome;
  outcome.reasons.reserve(updates.size());
  for (const auto& update : updates) {
    outcome.reasons.push_back(core.offer(update));
  }
  outcome.accepted = core.accepted();
  outcome.rejected = core.rejected();
  outcome.applied = core.close(min_valid);
  return outcome;
}

void Server::set_aggregator(const AggregatorConfig& config) {
  if (config.kind == AggregatorKind::kTrimmedMean &&
      (!(config.trim_fraction >= 0.0) || config.trim_fraction >= 0.5)) {
    throw ConfigError("trim_fraction must be in [0, 0.5)");
  }
  if (config.kind == AggregatorKind::kNormBounded &&
      !(config.norm_bound > 0.0)) {
    throw ConfigError("norm_bounded aggregation needs norm_bound > 0");
  }
  aggregator_ = config;
}

MaliciousServer::MaliciousServer(std::unique_ptr<nn::Sequential> global_model,
                                 real learning_rate,
                                 ModelManipulator manipulator)
    : Server(std::move(global_model), learning_rate),
      manipulator_(std::move(manipulator)) {
  OASIS_CHECK(manipulator_ != nullptr);
}

const GlobalModelMessage& MaliciousServer::begin_round() {
  // Manipulate the live global model (the dishonest server controls it
  // outright), then dispatch the standard message — on the wire the round
  // looks like any other.
  manipulator_(*model_);
  return Server::begin_round();
}

void MaliciousServer::observe_update(const ClientUpdateMessage& update) {
  captured_.push_back(update);
}

}  // namespace oasis::fl
