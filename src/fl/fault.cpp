#include "fl/fault.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace oasis::fl {

FaultPlan::FaultPlan(FaultConfig config) : config_(config) {
  const real probs[] = {config.dropout_prob, config.straggler_prob,
                        config.corrupt_prob, config.poison_prob};
  real sum = 0.0;
  for (const real p : probs) {
    if (p < 0.0 || p > 1.0) {
      throw ConfigError("fault probability outside [0, 1]");
    }
    sum += p;
  }
  if (sum > 1.0 + 1e-12) {
    throw ConfigError("fault probabilities sum past 1");
  }
  if (config.byzantine_fraction < 0.0 || config.byzantine_fraction > 1.0) {
    throw ConfigError("byzantine_fraction outside [0, 1]");
  }
  if (config.straggler_min_ticks > config.straggler_max_ticks) {
    throw ConfigError("straggler tick range inverted");
  }
}

bool FaultPlan::byzantine(std::uint64_t client_id) const {
  if (config_.byzantine_fraction <= 0.0) return false;
  // Round- and attempt-free stream: the attacker set is fixed for the plan's
  // lifetime, the way a compromised device population actually behaves.
  common::Rng root(config_.seed);
  common::Rng stream = root.split(0xB42A11CEULL).split(client_id);
  return stream.uniform() < config_.byzantine_fraction;
}

common::Rng FaultPlan::stream(std::uint64_t ticket, std::uint64_t attempt,
                              std::uint64_t client_id,
                              std::uint64_t salt) const {
  // Fresh root each call keeps this a pure function of the tuple: split()
  // consumes parent state, but the parent is rebuilt from the seed here.
  common::Rng root(config_.seed);
  common::Rng per_round = root.split(ticket * 0x9E3779B97F4A7C15ULL + attempt);
  return per_round.split(client_id * 2 + salt);
}

ClientFault FaultPlan::decide(std::uint64_t ticket, std::uint64_t attempt,
                              std::uint64_t client_id) const {
  ClientFault fault;
  if (!active()) return fault;
  if (byzantine(client_id)) {
    // Persistent attackers override the per-delivery partition: a colluding
    // client delivers its hostile update reliably, every round, every
    // attempt — reliability is what makes it dangerous.
    fault.kind = FaultKind::kByzantine;
    return fault;
  }
  common::Rng rng = stream(ticket, attempt, client_id, /*salt=*/0);
  // One uniform draw partitioned by the (mutually exclusive) class probs so
  // a config's rates compose exactly.
  const real u = rng.uniform();
  real edge = config_.dropout_prob;
  if (u < edge) {
    fault.kind = FaultKind::kDropout;
    return fault;
  }
  edge += config_.straggler_prob;
  if (u < edge) {
    fault.kind = FaultKind::kStraggler;
    fault.delay_ticks = static_cast<std::uint64_t>(rng.uniform_int(
        static_cast<std::int64_t>(config_.straggler_min_ticks),
        static_cast<std::int64_t>(config_.straggler_max_ticks)));
    return fault;
  }
  edge += config_.corrupt_prob;
  if (u < edge) {
    fault.kind = FaultKind::kCorrupt;
    fault.corruption =
        static_cast<CorruptionKind>(rng.uniform_int(0, 3));
    return fault;
  }
  edge += config_.poison_prob;
  if (u < edge) {
    fault.kind = FaultKind::kPoison;
    fault.poison = static_cast<PoisonKind>(rng.uniform_int(0, 2));
    return fault;
  }
  return fault;
}

void FaultPlan::apply(std::vector<tensor::Tensor>& gradients,
                      const ClientFault& fault, std::uint64_t ticket,
                      std::uint64_t attempt, std::uint64_t client_id) const {
  if (fault.kind == FaultKind::kByzantine) {
    // Byzantine updates stay well-formed and finite: they must survive every
    // structural/numeric screen and reach the aggregator, where robustness
    // is decided.
    switch (config_.byzantine_kind) {
      case ByzantineKind::kSignFlip:
        for (auto& t : gradients) t *= -config_.byzantine_scale;
        break;
      case ByzantineKind::kScaleBlowup:
        for (auto& t : gradients) t *= config_.byzantine_scale;
        break;
      case ByzantineKind::kColludingDuplicate: {
        // One shared direction per round ticket, identical across ALL
        // colluders (the stream is keyed on the ticket alone): the bloc
        // votes the same value in every coordinate.
        common::Rng root(config_.seed);
        common::Rng shared = root.split(0xC011DDE5ULL).split(ticket);
        for (auto& t : gradients) {
          for (auto& v : t.data()) {
            v = shared.normal(0.0, config_.byzantine_scale);
          }
        }
        break;
      }
    }
    return;
  }
  // Poison: hostile numerics in a well-formed payload, so the update
  // reaches the server's numeric screens rather than the parser.
  if (fault.kind != FaultKind::kPoison || gradients.empty()) return;
  common::Rng rng = stream(ticket, attempt, client_id, /*salt=*/1);
  switch (fault.poison) {
    case PoisonKind::kNaN:
    case PoisonKind::kInf: {
      const real bad = fault.poison == PoisonKind::kNaN
                           ? std::numeric_limits<real>::quiet_NaN()
                           : std::numeric_limits<real>::infinity();
      const std::int64_t hits = rng.uniform_int(1, 4);
      for (std::int64_t h = 0; h < hits; ++h) {
        auto& t = gradients[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(gradients.size()) - 1))];
        if (t.size() == 0) continue;
        t[static_cast<index_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(t.size()) - 1))] = bad;
      }
      break;
    }
    case PoisonKind::kNormScale:
      for (auto& t : gradients) t *= kPoisonScale;
      break;
  }
}

void FaultPlan::apply(ClientUpdateMessage& update, const ClientFault& fault,
                      std::uint64_t ticket, std::uint64_t attempt,
                      std::uint64_t client_id) const {
  if (fault.kind != FaultKind::kCorrupt) return;
  common::Rng rng = stream(ticket, attempt, client_id, /*salt=*/1);
  auto& bytes = update.gradients;
  switch (fault.corruption) {
    case CorruptionKind::kTruncate: {
      if (bytes.empty()) return;
      bytes.resize(static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size()) - 1)));
      return;
    }
    case CorruptionKind::kBitFlip: {
      if (bytes.empty()) return;
      const std::int64_t flips = rng.uniform_int(1, 8);
      for (std::int64_t f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(bytes.size()) - 1));
        bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      return;
    }
    case CorruptionKind::kWrongRound:
      update.round += static_cast<std::uint64_t>(rng.uniform_int(1, 4));
      return;
    case CorruptionKind::kDuplicate:
      return;  // delivery-level: the engine posts the update twice
  }
}

}  // namespace oasis::fl
