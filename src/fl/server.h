// FL servers: honest FedAvg coordinator and the dishonest variant the
// paper's threat model assumes.
//
// Every incoming ClientUpdateMessage runs through screen_update() before any
// of it can touch the global model: structural deserialization checks
// (SerializationError caught at the boundary), protocol checks (round id,
// duplicate client ids, zero example counts), and numeric plausibility
// screens (NaN/Inf, gradient-norm band — the server-side detectability angle
// of Carletti et al.). Rejected updates are tallied per reason through
// oasis::obs counters and excluded from aggregation; the model advances over
// the valid subset only. fl::RoundCore (round_core.h) is the one place that
// chains screen, aggregation, quorum and commit for every engine.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "fl/aggregation.h"
#include "fl/message.h"
#include "nn/sequential.h"
#include "tensor/shape.h"

namespace oasis::fl {

/// Why an update was excluded from aggregation (kAccepted = it was not).
enum class RejectReason : std::uint8_t {
  kAccepted = 0,
  kMalformed,     // gradients failed to deserialize (structural damage)
  kWrongRound,    // stale or replayed round id
  kDuplicate,     // a second update from the same client this round
  kZeroExamples,  // FedAvg weight would be zero
  kShapeMismatch, // tensor count/shapes differ from the global model's
  kNonFinite,     // NaN/Inf anywhere in the gradients
  kNormTooLarge,  // gradient L2 norm outside the configured band
  kChecksumMismatch,  // payload CRC32C trailer does not match its bytes
};

const char* to_string(RejectReason reason);

/// The one tunable screen. The structural and protocol screens (round id,
/// duplicate, example count, shapes, finiteness) always run; the norm
/// screen is opt-in because legitimate workloads (e.g. secure-aggregation
/// masked updates, which look like white noise) have no universal norm band.
struct ValidationConfig {
  // 0 (the default) disables the norm screen, and with it the Σ v² pass:
  // the screen then reads each update once for its CRC and once for its
  // finite check. > 0 rejects an update whose L2 norm exceeds it.
  real max_grad_norm = 0.0;
};

/// What finish_round() did with one round's updates.
struct RoundOutcome {
  index_t accepted = 0;
  index_t rejected = 0;
  bool applied = false;                // global model was advanced
  std::vector<RejectReason> reasons;   // one per input update, input order
};

/// Per-round state threaded between screen_update() calls: the expected
/// parameter shapes (computed once) and the client ids claimed so far
/// (duplicate detection). An update claims its id once its round id
/// matches, before the payload checks, so a payload rejection claims it
/// too and only a wrong-round rejection leaves it free. fl::RoundCore keeps
/// one per fold, or one per shard in the in-process round loop
/// (RoundCore::reset_screen).
struct UpdateScreen {
  std::vector<tensor::Shape> expected_shapes;
  std::unordered_set<std::uint64_t> seen_ids;
};

/// Honest central server: owns the global model, dispatches it each round,
/// aggregates valid client gradients with FedAvg and applies them with SGD
/// (w ← w − η·Ḡ, paper Eq. 1).
class Server {
 public:
  Server(std::unique_ptr<nn::Sequential> global_model, real learning_rate);
  virtual ~Server() = default;

  /// Begins round `t`: serializes the model once and returns the message to
  /// dispatch to selected clients. Virtual so a dishonest server can
  /// manipulate the dispatched model.
  virtual const GlobalModelMessage& begin_round();

  /// Per-client dispatch. The honest protocol sends every client the same
  /// message (the default forwards the one begin_round() built); a dishonest
  /// server may override this to send INCONSISTENT models — the primitive
  /// behind the secure-aggregation circumvention of Pasquini et al. (2022).
  /// The message is the server's own: it stays valid and unchanged until
  /// the next begin_round(), so callers hold the reference instead of a copy.
  virtual const GlobalModelMessage& dispatch_to(std::uint64_t client_id);

  /// Screens the round's client updates, aggregates the accepted subset
  /// with the configured aggregator, and advances the global model: one
  /// fl::RoundCore fold in input order. Throws QuorumError — before touching
  /// the model — when fewer than `min_valid` updates survive validation;
  /// with zero valid updates (and min_valid == 0) the SGD step is skipped
  /// rather than dividing by a zero example count.
  RoundOutcome finish_round(std::span<const ClientUpdateMessage> updates,
                            index_t min_valid = 0);

  // --- Streaming round surface --------------------------------------------
  //
  // fl::RoundCore composes these calls for every engine, so a round over 1M
  // virtual clients never materializes an update span. Screening semantics
  // and obs tallies are IDENTICAL on every path — that is what the
  // differential tests prove byte-for-byte.

  /// Fresh per-round screening context (caches the model's parameter
  /// shapes). Create once per round, pass to every screen_update() call.
  [[nodiscard]] UpdateScreen begin_screen() const;

  /// Runs one update through the full validation pipeline (round id,
  /// duplicate, example count, structural scan, finiteness, norm band) and
  /// tallies the verdict through the fl.validate.* obs counters. Every
  /// update past the round check registers its client id in `screen` for
  /// duplicate detection, accepted or not (see UpdateScreen).
  /// Every engine screens every update it receives here, so this is also
  /// where observe_update() sees it.
  RejectReason screen_update(const ClientUpdateMessage& update,
                             UpdateScreen& screen);

  /// Applies an aggregated average (SGD step w ← w − η·Ḡ) and advances the
  /// protocol round.
  void commit_round(const std::vector<tensor::Tensor>& average);

  /// Advances the protocol round without touching the model (zero valid
  /// updates). Tallies fl.rounds_skipped.
  void commit_skipped_round();

  void set_validation(const ValidationConfig& config) { validation_ = config; }

  /// Selects the aggregation rule every engine's RoundCore applies to
  /// accepted updates. kFedAvg/kNormBounded stream; kCoordinateMedian/
  /// kTrimmedMean buffer the accepted cohort (O(cohort · model) memory — see
  /// aggregation.h), which the sharded and socket engines refuse. Throws
  /// ConfigError on an invalid trim_fraction or non-positive norm bound.
  void set_aggregator(const AggregatorConfig& config);
  [[nodiscard]] const AggregatorConfig& aggregator() const {
    return aggregator_;
  }

  [[nodiscard]] std::uint64_t round() const { return round_; }
  nn::Sequential& global_model() { return *model_; }

  /// Sets the protocol round id to an absolute value. Checkpoint restore
  /// only — the round id normally advances exclusively via finish_round.
  void restore_round(std::uint64_t round) { round_ = round; }

 protected:
  /// Called once per update screen_update() receives, before any screen
  /// runs, in the engine's fold order. The honest server ignores it.
  virtual void observe_update(const ClientUpdateMessage& /*update*/) {}

  std::unique_ptr<nn::Sequential> model_;
  real learning_rate_;
  ValidationConfig validation_;
  AggregatorConfig aggregator_;
  std::uint64_t round_ = 0;
  GlobalModelMessage current_dispatch_;  // built by begin_round()
};

/// Hook through which an attack manipulates the dispatched model — the
/// "malicious modification of global model parameters" of the threat model.
using ModelManipulator = std::function<void(nn::Sequential&)>;

/// Dishonest server: applies a manipulation to (a copy of the state of) the
/// global model before dispatch and records every client update it receives
/// so the attack can invert the gradients offline.
///
/// It still aggregates normally so training proceeds and the attack stays
/// covert — matching the paper's "modification should be minimal to avoid
/// detection" requirement.
class MaliciousServer : public Server {
 public:
  MaliciousServer(std::unique_ptr<nn::Sequential> global_model,
                  real learning_rate, ModelManipulator manipulator);

  const GlobalModelMessage& begin_round() override;

  /// All updates captured so far (most recent round last), in fold order,
  /// rejected ones included. The same under every engine.
  [[nodiscard]] const std::vector<ClientUpdateMessage>& captured() const {
    return captured_;
  }

 protected:
  void observe_update(const ClientUpdateMessage& update) override;

 private:
  ModelManipulator manipulator_;
  std::vector<ClientUpdateMessage> captured_;
};

}  // namespace oasis::fl
