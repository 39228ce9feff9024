// Composable client-side update defenses.
//
// A Defense is one per-update transform of the gradient tensors a client is
// about to upload: L2 norm clipping, Gaussian DP noise, top-k pruning,
// pairwise secure-aggregation masking (wrapping fl::SecureAggregationSession).
// An ordered DefenseStack composes them. Every engine applies it through
// the shared client step (fl/client_step.h), on the gradient tensors before
// the update is serialized. The OASIS augmentation operates on the training
// BATCH before gradients exist (fl/preprocessor.h), so it is not a stage:
// federation builders install the preprocessor on their clients.
//
// Determinism contract. Every randomized stage draws from a stream that is a
// pure function of (stack seed, defense index, round, client id), derived
// through fresh common::Rng split roots exactly like fl::FaultPlan. Applying
// the stack inside a parallel training region is therefore safe: no state is
// shared between clients, and the bytes a client uploads are identical at
// any thread count and any stack-internal ordering of parallel bodies.
//
// Obs: fl.defense.applied counts updates that passed through a non-empty
// stack; each stage tallies fl.defense.<stage> (and fl.defense.clip.active
// when the clip actually bit).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fl/message.h"
#include "tensor/tensor.h"

namespace oasis::fl {

/// Per-application context a Defense may consult. `cohort` is the round's
/// full participant list when the engine knows it (fl::Simulation and the
/// sharded engine supply it); empty on the socket path, where cohort-aware
/// stages fall back to the stack's static cohort.
struct DefenseContext {
  std::uint64_t round = 0;
  std::uint64_t client_id = 0;
  std::span<const std::uint64_t> cohort{};
};

/// One per-update gradient transform. Implementations must be stateless
/// across apply() calls (a const stack is shared by every client on every
/// thread); all randomness comes from the caller-provided split stream.
class Defense {
 public:
  Defense() = default;
  Defense(const Defense&) = delete;
  Defense& operator=(const Defense&) = delete;
  virtual ~Defense() = default;

  virtual void apply(std::vector<tensor::Tensor>& gradients, common::Rng& rng,
                     const DefenseContext& ctx) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  /// True when apply() needs ctx.cohort — lets engines skip materializing
  /// the (possibly million-entry) cohort id list for cohort-free stacks.
  [[nodiscard]] virtual bool requires_cohort() const { return false; }
};

/// Clips the update to a global L2 norm bound (over ALL tensors): the
/// norm-bounded-sensitivity half of DP-SGD, and on its own a cheap guard
/// against scale-blowup uploads.
class ClipDefense : public Defense {
 public:
  /// Throws ConfigError unless max_norm is finite and > 0.
  explicit ClipDefense(real max_norm);
  void apply(std::vector<tensor::Tensor>& gradients, common::Rng& rng,
             const DefenseContext& ctx) const override;
  [[nodiscard]] std::string name() const override;

 private:
  real max_norm_;
};

/// Adds i.i.d. Gaussian noise to every gradient element — the DP noise
/// stage. Element order is the tensor-list order, so the draw sequence is a
/// pure function of the stream.
class GaussianNoiseDefense : public Defense {
 public:
  /// Throws ConfigError unless stddev is finite and > 0.
  explicit GaussianNoiseDefense(real stddev);
  void apply(std::vector<tensor::Tensor>& gradients, common::Rng& rng,
             const DefenseContext& ctx) const override;
  [[nodiscard]] std::string name() const override;

 private:
  real stddev_;
};

/// Keeps the largest-magnitude `keep` fraction of each gradient tensor's
/// entries (at least one) and zeroes the rest: gradient pruning (Zhu et al.).
class TopKDefense : public Defense {
 public:
  /// Throws ConfigError unless keep is in (0, 1].
  explicit TopKDefense(real keep);
  void apply(std::vector<tensor::Tensor>& gradients, common::Rng& rng,
             const DefenseContext& ctx) const override;
  [[nodiscard]] std::string name() const override;

 private:
  real keep_;
};

/// Pairwise secure-aggregation masking: wraps SecureAggregationSession with
/// the round id as the nonce. Uses ctx.cohort when the engine supplies it;
/// masks cancel in the cohort SUM only when every member's masked update is
/// aggregated with equal weight (the honest, no-dropout case the secagg_test
/// suite pins) — a rejected or dropped member leaves its pairwise masks in
/// the aggregate as noise, which is the protocol's documented behavior
/// without dropout-recovery shares.
class SecAggMaskDefense : public Defense {
 public:
  void apply(std::vector<tensor::Tensor>& gradients, common::Rng& rng,
             const DefenseContext& ctx) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] bool requires_cohort() const override { return true; }
};

/// Ordered, composable stack of defenses applied to every update before
/// upload. Stages run in add() order; the canonical DP composition is
/// clip → noise (clipping bounds sensitivity BEFORE noise calibrated to it),
/// with masking last so the wire payload is already defended when masked.
class DefenseStack {
 public:
  explicit DefenseStack(std::uint64_t seed = kDefaultSeed) : seed_(seed) {}
  DefenseStack(const DefenseStack&) = delete;
  DefenseStack& operator=(const DefenseStack&) = delete;

  static constexpr std::uint64_t kDefaultSeed = 0xDEF5;

  void add(std::unique_ptr<Defense> defense);
  [[nodiscard]] std::size_t size() const { return defenses_.size(); }
  [[nodiscard]] bool empty() const { return defenses_.empty(); }
  /// True when any stage needs the round cohort (see Defense).
  [[nodiscard]] bool requires_cohort() const;

  /// Fallback cohort for cohort-aware stages when the engine cannot supply
  /// one (the socket path, where a client never learns the round cohort).
  void set_static_cohort(std::vector<std::uint64_t> cohort) {
    static_cohort_ = std::move(cohort);
  }

  /// Applies every stage in order to a client's gradient tensors. An empty
  /// ctx.cohort falls back to the static cohort.
  void apply(std::vector<tensor::Tensor>& gradients,
             const DefenseContext& ctx) const;

  /// Deserialize → apply → reserialize; a no-op for an empty stack. No
  /// engine calls it: the client step runs the stack on the tensors before
  /// the one serialization. It stays only for roundbench's replay, which
  /// defends an already-serialized update, and goes when the replay is
  /// deleted (ROADMAP item 1).
  void apply(ClientUpdateMessage& update,
             std::span<const std::uint64_t> cohort = {}) const;

  /// "clip(10)+noise(0.01)+mask" — stage names joined in order.
  [[nodiscard]] std::string name() const;

 private:
  /// The per-(round, client, stage) stream: a pure function of the tuple,
  /// derived through fresh split roots (the fl::FaultPlan idiom).
  [[nodiscard]] common::Rng stream(std::uint64_t round,
                                   std::uint64_t client_id,
                                   std::size_t index) const;

  std::uint64_t seed_;
  std::vector<std::unique_ptr<Defense>> defenses_;
  std::vector<std::uint64_t> static_cohort_;
};

using DefenseStackPtr = std::shared_ptr<const DefenseStack>;

/// Builds a stack from a comma-separated spec, preserving stage order:
///   "clip:10,noise:0.01,mask"   (also "none" / "" → empty stack)
/// clip:<max_norm> and noise:<stddev> take a number, which the stage
/// constructor requires to be finite and positive; topk:<keep> takes a
/// fraction in (0, 1]; "mask" adds SecAggMaskDefense. OASIS augments the
/// training batch, not the update, so it is the clients' preprocessor and
/// not a stage here. Throws ConfigError on an unknown token or bad
/// parameter.
std::shared_ptr<DefenseStack> parse_defense_stack(
    const std::string& spec, std::uint64_t seed = DefenseStack::kDefaultSeed);

}  // namespace oasis::fl
