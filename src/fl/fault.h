// Seeded fault injection for the FL round engine.
//
// A FaultPlan decides, for every (round ticket, attempt, client) tuple,
// whether that client's reply is dropped, delayed past the deadline,
// corrupted on the wire, or numerically poisoned. Poison and Byzantine
// faults are the client's own doing: they rewrite its gradient tensors
// before the update's one serialization. Only corruption acts on the
// serialized bytes, at delivery (DESIGN.md §5o). Decisions are a pure
// function of (plan seed, ticket, attempt, client id) — derived through
// common::Rng split streams, never from shared mutable state — so a chaos
// run reproduces bit-identically at any thread count (the PR-1 determinism
// contract) and a single client's fault history can be queried without
// simulating anyone else.
//
// Fault taxonomy (motivated by the Carletti et al. detectability study and
// the Pasquini et al. inconsistent-model primitive already in
// fl/inconsistent_server.h — both argue the server must screen updates):
//   dropout    client never replies (crash / network partition)
//   straggler  reply delayed by a uniform tick count on the virtual clock;
//              delays past the per-attempt deadline become timeouts
//   corrupt    wire-level damage: payload truncation, random bit flips,
//              a stale/wrong round id, or duplicate delivery
//   poison     well-formed payload with hostile numerics: NaN/Inf values or
//              gradients scaled far outside the plausible norm band
//   byzantine  a PERSISTENT adversarial client: membership is a pure function
//              of (seed, client id) alone — the same clients attack every
//              round, modelling a colluding compromised fraction f of the
//              population rather than transient wire damage. Byzantine
//              updates are well-formed and finite on purpose: they pass every
//              structural screen and must be absorbed by a robust AGGREGATOR
//              (coordinate median / trimmed mean — see aggregation.h), which
//              is exactly what the Byzantine chaos suite proves.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "fl/message.h"
#include "tensor/tensor.h"

namespace oasis::fl {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kDropout,
  kStraggler,
  kCorrupt,
  kPoison,
  kByzantine,
};

enum class CorruptionKind : std::uint8_t {
  kTruncate = 0,  // payload cut short at a random byte offset
  kBitFlip,       // 1-8 random bits flipped anywhere in the payload
  kWrongRound,    // round id bumped: stale or replayed message
  kDuplicate,     // the (valid) update is delivered twice
};

enum class PoisonKind : std::uint8_t {
  kNaN = 0,    // a handful of gradient values replaced with quiet NaN
  kInf,        // ...or with ±infinity
  kNormScale,  // all gradients multiplied by kPoisonScale
};

/// Gradient multiplier for PoisonKind::kNormScale.
inline constexpr real kPoisonScale = 1e9;

enum class ByzantineKind : std::uint8_t {
  /// g → −byzantine_scale · g: the classic gradient-ascent attack. The mean
  /// is pulled off course once f·scale > (1 − f); the median is not.
  kSignFlip = 0,
  /// g → byzantine_scale · g: magnitude inflation that stays finite (and,
  /// with the norm screen off, passes validation untouched).
  kScaleBlowup,
  /// Every colluder replaces its gradients with ONE shared direction drawn
  /// from a stream keyed on (seed, ticket) only — identical payload bytes
  /// under distinct client ids, so the duplicate screen cannot see it and
  /// the colluders vote as a bloc per coordinate.
  kColludingDuplicate,
};

/// Per-fault-class injection probabilities plus shape parameters. The four
/// probabilities partition a single uniform draw, so they are mutually
/// exclusive per (ticket, attempt, client) and must sum to at most 1.
struct FaultConfig {
  real dropout_prob = 0.0;
  real straggler_prob = 0.0;
  real corrupt_prob = 0.0;
  real poison_prob = 0.0;
  /// Straggler delay drawn uniformly from [min, max] virtual-clock ticks.
  std::uint64_t straggler_min_ticks = 50;
  std::uint64_t straggler_max_ticks = 400;
  /// Fraction of the POPULATION that is persistently Byzantine. Membership
  /// is a pure function of (seed, client id) — independent of round and
  /// attempt, and NOT part of the per-delivery probability partition above
  /// (a compromised client attacks reliably, it does not also drop out).
  real byzantine_fraction = 0.0;
  ByzantineKind byzantine_kind = ByzantineKind::kSignFlip;
  /// Magnitude factor for every ByzantineKind (sign-flip uploads
  /// −byzantine_scale·g).
  real byzantine_scale = 10.0;
  std::uint64_t seed = 0x0A5150;

  [[nodiscard]] bool any() const {
    return dropout_prob > 0.0 || straggler_prob > 0.0 || corrupt_prob > 0.0 ||
           poison_prob > 0.0 || byzantine_fraction > 0.0;
  }
};

/// The fault decided for one delivery attempt of one client's update.
struct ClientFault {
  FaultKind kind = FaultKind::kNone;
  CorruptionKind corruption = CorruptionKind::kTruncate;  // when kCorrupt
  PoisonKind poison = PoisonKind::kNaN;                   // when kPoison
  std::uint64_t delay_ticks = 0;                          // when kStraggler
};

/// Deterministic fault schedule. Default-constructed plans are inert
/// (active() == false, every decision kNone) so the honest path carries no
/// fault machinery.
class FaultPlan {
 public:
  FaultPlan() = default;
  /// Throws ConfigError when the probabilities are invalid (negative or
  /// summing past 1) or the straggler tick range is inverted.
  explicit FaultPlan(FaultConfig config);

  [[nodiscard]] bool active() const { return config_.any(); }

  /// Pure function of (seed, ticket, attempt, client_id); safe to call from
  /// any thread in any order. `ticket` is the engine's monotone round-start
  /// counter (not the protocol round id, which repeats after an abort).
  [[nodiscard]] ClientFault decide(std::uint64_t ticket, std::uint64_t attempt,
                                   std::uint64_t client_id) const;

  /// Is `client_id` a persistent Byzantine attacker under this plan? Pure
  /// function of (seed, client_id); exposed so tests can count the attacker
  /// set a seed produces before asserting on its effects.
  [[nodiscard]] bool byzantine(std::uint64_t client_id) const;

  /// The client-side half of a fault: a kByzantine or kPoison fault
  /// rewrites the client's gradient tensors in place before they are
  /// serialized (fl::run_client_round). Every other kind is a no-op here.
  /// Draws from the same split-stream derivation as decide(), so the
  /// damage is reproducible and safe inside a parallel region.
  void apply(std::vector<tensor::Tensor>& gradients, const ClientFault& fault,
             std::uint64_t ticket, std::uint64_t attempt,
             std::uint64_t client_id) const;

  /// The wire half: a kCorrupt fault damages the serialized update in
  /// place (truncation, bit flips, a wrong round id). kDuplicate is a
  /// delivery-level fault — the engine posts the update twice — so the
  /// payload stays intact for it, as it does for every other kind.
  void apply(ClientUpdateMessage& update, const ClientFault& fault,
             std::uint64_t ticket, std::uint64_t attempt,
             std::uint64_t client_id) const;

 private:
  [[nodiscard]] common::Rng stream(std::uint64_t ticket, std::uint64_t attempt,
                                   std::uint64_t client_id,
                                   std::uint64_t salt) const;

  FaultConfig config_;
};

}  // namespace oasis::fl
