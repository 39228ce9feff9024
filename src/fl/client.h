// FL client: local data, local model replica, gradient computation.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "fl/message.h"
#include "fl/preprocessor.h"
#include "nn/loss.h"
#include "nn/sequential.h"

namespace oasis::fl {

/// Builds a fresh model replica with the architecture the federation agreed
/// on. Clients instantiate locally and load the server's weights into it.
using ModelFactory = std::function<std::unique_ptr<nn::Sequential>()>;

/// Client-side audit gate over the dispatched global model, invoked on the
/// freshly loaded replica at the top of every handle_round — BEFORE any
/// local randomness is consumed, so a refusal leaves the client's RNG
/// stream untouched. The auditor refuses the round by throwing
/// common AuditError (attack::make_model_auditor builds one from the
/// implant-detection screens); engines catch it and proceed with the
/// remaining cohort.
using ModelAuditor = std::function<void(nn::Sequential& model,
                                        std::uint64_t round)>;

/// A transform of the gradient tensors a client is about to upload, in
/// parameter order. It runs before the update's one serialization.
using GradientTransform =
    std::function<void(std::vector<tensor::Tensor>& gradients)>;

/// Which training loss the federation runs.
enum class LossKind {
  /// Softmax cross-entropy — standard classification (all CNN experiments).
  kSoftmaxCrossEntropy,
  /// One-vs-all logistic regression — the Appendix D linear-model setting.
  kSigmoidBce,
};

/// How the client draws its local batch each round.
enum class BatchSampling {
  /// Uniform without replacement — the standard FL setting.
  kUniform,
  /// At most one example per class — the Appendix D linear-model setting,
  /// where the inversion requires unique labels per batch.
  kUniqueLabels,
};

/// One federated user u_j.
///
/// Per round: deserializes the dispatched global model into its replica,
/// samples a local batch D of `batch_size`, runs the (possibly OASIS)
/// preprocessor to get D', computes batch gradients of the cross-entropy
/// loss, applies the caller's gradient transform and returns them
/// serialized, once.
class Client {
 public:
  Client(std::uint64_t id, data::InMemoryDataset local_data,
         ModelFactory factory, index_t batch_size,
         PreprocessorPtr preprocessor, common::Rng rng,
         BatchSampling sampling = BatchSampling::kUniform,
         LossKind loss_kind = LossKind::kSoftmaxCrossEntropy);

  /// Installs the model-audit gate run on every dispatched global model
  /// immediately after it is loaded into the local replica. The auditor
  /// refuses the round by throwing AuditError, which propagates out of
  /// handle_round untouched; because it runs before any batch sampling or
  /// rng draw, a refused round consumes no client randomness and a
  /// re-dispatch of the same model re-refuses deterministically. Default:
  /// no audit.
  void set_model_auditor(ModelAuditor auditor);

  /// Switches the client to ROUND-KEYED stateless randomness: at the top of
  /// every handle_round the rng is re-derived as a pure function of
  /// (base_seed, dispatched round id, client id) via client_round_stream().
  /// This removes the only per-client state that persists across rounds,
  /// which is what lets the sharded engine generate clients lazily — a
  /// virtual client materialized fresh for round t behaves byte-identically
  /// to one that lived through rounds 0..t-1. A materialized fl::Simulation
  /// over round-keyed clients and the sharded streaming engine over the same
  /// population therefore produce the same bytes (the differential shard
  /// tests' contract).
  void set_round_keyed_rng(std::uint64_t base_seed);

  /// Handles one training round: trains, runs `transform` (if set) on the
  /// parameters' gradient tensors, and serializes them. Throws
  /// SerializationError on a malformed model payload.
  ClientUpdateMessage handle_round(const GlobalModelMessage& msg,
                                   const GradientTransform& transform = {});

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const data::InMemoryDataset& local_data() const {
    return local_data_;
  }
  /// The batch D sampled in the most recent round (pre-augmentation) — used
  /// by attack-evaluation harnesses as the reconstruction ground truth.
  [[nodiscard]] const data::Batch& last_raw_batch() const {
    return last_raw_batch_;
  }
  /// Loss of the most recent local step (diagnostics).
  [[nodiscard]] real last_loss() const { return last_loss_; }

  /// Checkpoint hooks. The RNG stream position is the ONLY per-client state
  /// a snapshot must carry: the model replica is overwritten from the
  /// dispatched global state at the top of every handle_round, and
  /// last_raw_batch_/last_loss_ are diagnostics regenerated by the next
  /// round before anything reads them.
  [[nodiscard]] common::Rng::State rng_state() const { return rng_.state(); }
  void restore_rng_state(const common::Rng::State& s) { rng_.set_state(s); }

 private:
  /// Indices of this round's batch under the configured sampling mode.
  std::vector<index_t> sample_batch_indices();

  std::uint64_t id_;
  data::InMemoryDataset local_data_;
  std::unique_ptr<nn::Sequential> model_;
  index_t batch_size_;
  PreprocessorPtr preprocessor_;
  ModelAuditor auditor_;  // empty = accept every model
  bool round_keyed_rng_ = false;
  std::uint64_t round_key_seed_ = 0;
  common::Rng rng_;
  BatchSampling sampling_;
  LossKind loss_kind_;
  nn::SoftmaxCrossEntropy ce_loss_;
  nn::SigmoidBce bce_loss_;
  data::Batch last_raw_batch_;
  real last_loss_ = 0.0;
};

/// The per-(round, client) rng stream of round-keyed clients: a pure
/// function of the tuple, derived through fresh split streams (the
/// fl::FaultPlan idiom) so no shared mutable state couples clients. Exposed
/// so tests and the virtual-population machinery agree on the derivation.
common::Rng client_round_stream(std::uint64_t base_seed, std::uint64_t round,
                                std::uint64_t client_id);

}  // namespace oasis::fl
