#include "fl/simulation.h"

#include "ckpt/codec.h"
#include "ckpt/container.h"
#include "ckpt/obs_state.h"
#include "nn/model_io.h"
#include "obs/obs.h"

namespace oasis::fl {

std::vector<std::uint64_t> Simulation::run_round() {
  std::vector<std::uint64_t> ids;
  ShardedSimulation::run_round(&ids);
  return ids;
}

// ---- Checkpoint / resume ----------------------------------------------------

tensor::ByteBuffer Simulation::encode_checkpoint() {
  return seal("meta", "rng", [&](ckpt::SectionWriter& meta,
                                 ckpt::SectionWriter& rng,
                                 ckpt::SectionWriter& /*agg*/) {
    meta.u64(server_->round());
    meta.u64(round_tickets_);
    meta.u64(clock_.now());
    // Configuration echo: a snapshot only fits the federation it came from.
    meta.u64(config_.seed);
    meta.u64(clients_.size());
    meta.u64(config_.cohort_size);
    meta.f64(static_cast<double>(config_.quorum_fraction));
    ckpt::write_rng_state(rng, rng_.state());
    rng.u32(static_cast<std::uint32_t>(clients_.size()));
    for (const auto& c : clients_) {
      rng.u64(c->id());
      ckpt::write_rng_state(rng, c->rng_state());
    }
  });
}

void Simulation::apply_snapshot(const ckpt::Snapshot& snap) {
  using Reason = CheckpointError::Reason;

  // Decode and cross-check EVERYTHING before the first mutation, so a
  // snapshot from the wrong federation (or a malformed section) leaves the
  // live simulation exactly as it was.
  ckpt::SectionReader meta(snap.section("meta"), "meta");
  const std::uint64_t round = meta.u64();
  const std::uint64_t tickets = meta.u64();
  const std::uint64_t clock_ticks = meta.u64();
  const std::uint64_t seed = meta.u64();
  const std::uint64_t num_clients = meta.u64();
  const std::uint64_t clients_per_round = meta.u64();
  const double quorum = meta.f64();
  meta.expect_end();
  if (seed != config_.seed || num_clients != clients_.size() ||
      clients_per_round != config_.cohort_size ||
      quorum != static_cast<double>(config_.quorum_fraction)) {
    throw CheckpointError(
        Reason::kStateMismatch,
        "snapshot belongs to a differently configured federation (seed " +
            std::to_string(seed) + ", " + std::to_string(num_clients) +
            " clients)");
  }

  ckpt::SectionReader rng(snap.section("rng"), "rng");
  const common::Rng::State sim_rng = ckpt::read_rng_state(rng);
  const std::uint32_t rng_clients = rng.u32();
  if (rng_clients != clients_.size()) {
    throw CheckpointError(Reason::kStateMismatch,
                          "snapshot carries RNG state for " +
                              std::to_string(rng_clients) + " clients, have " +
                              std::to_string(clients_.size()));
  }
  // Client rng states in the order the snapshot listed them: the clients'
  // own order, so a client list that differs in any id is refused.
  std::vector<common::Rng::State> client_rngs(rng_clients);
  for (std::uint32_t i = 0; i < rng_clients; ++i) {
    const std::uint64_t id = rng.u64();
    client_rngs[i] = ckpt::read_rng_state(rng);
    if (id != clients_[i]->id()) {
      throw CheckpointError(Reason::kStateMismatch,
                            "snapshot RNG state for client id " +
                                std::to_string(id) + " at position " +
                                std::to_string(i));
    }
  }
  rng.expect_end();

  restore(snap, round, tickets, sim_rng, [&] {
    clock_.restore(clock_ticks);
    for (std::uint32_t i = 0; i < rng_clients; ++i) {
      clients_[i]->restore_rng_state(client_rngs[i]);
    }
  });
}

std::uint64_t Simulation::checkpoint_generation() const {
  return server_->round();
}

}  // namespace oasis::fl
