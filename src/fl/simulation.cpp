#include "fl/simulation.h"

#include <unordered_map>
#include <unordered_set>

#include "ckpt/codec.h"
#include "ckpt/container.h"
#include "ckpt/obs_state.h"
#include "fl/client_step.h"
#include "fl/round_core.h"
#include "nn/model_io.h"
#include "obs/obs.h"

namespace oasis::fl {

Simulation::Simulation(std::unique_ptr<Server> server,
                       std::vector<std::unique_ptr<Client>> clients,
                       SimulationConfig config)
    : server_(std::move(server)),
      clients_(std::move(clients)),
      config_(config),
      rng_(config.seed) {
  OASIS_CHECK(server_ != nullptr);
  OASIS_CHECK_MSG(!clients_.empty(), "simulation needs at least one client");
  std::unordered_set<std::uint64_t> ids;
  for (const auto& c : clients_) {
    OASIS_CHECK(c != nullptr);
    OASIS_CHECK_MSG(ids.insert(c->id()).second,
                    "duplicate client id " << c->id());
  }
  OASIS_CHECK_MSG(config_.clients_per_round <= clients_.size(),
                  "M=" << config_.clients_per_round << " > N="
                       << clients_.size());
  OASIS_CHECK_MSG(config_.max_attempts >= 1, "max_attempts must be >= 1");
  OASIS_CHECK_MSG(
      config_.quorum_fraction >= 0.0 && config_.quorum_fraction <= 1.0,
      "quorum_fraction " << config_.quorum_fraction << " outside [0, 1]");
}

Client& Simulation::client(index_t i) {
  OASIS_CHECK_MSG(i < clients_.size(), "client " << i);
  return *clients_[i];
}

std::vector<std::uint64_t> Simulation::run_round() {
  const obs::ScopedTimer round_span("fl.round");
  static obs::Counter& rounds = obs::counter("fl.rounds");
  static obs::Counter& bytes_down = obs::counter("fl.bytes_dispatched");
  static obs::Counter& dropouts = obs::counter("fl.fault.dropout");
  static obs::Counter& stragglers = obs::counter("fl.fault.straggler");
  static obs::Counter& timeouts = obs::counter("fl.timeouts");
  static obs::Counter& retries = obs::counter("fl.retries");
  static obs::Counter& lost_c = obs::counter("fl.clients_lost");
  static obs::Counter& aborted = obs::counter("fl.rounds_aborted");

  const index_t m = config_.clients_per_round == 0 ? clients_.size()
                                                   : config_.clients_per_round;
  const auto selected = rng_.sample_without_replacement(clients_.size(), m);
  // The fault plan's ticket is the engine's own monotone counter, NOT the
  // protocol round id: an aborted round leaves the server's round id in
  // place, and keying faults on it would replay the identical failure.
  const std::uint64_t ticket = round_tickets_++;

  server_->begin_round();
  // Dispatch serially: a (possibly malicious) server may build per-client
  // payloads from mutable state, so only the training itself fans out.
  std::vector<GlobalModelMessage> dispatched;
  std::vector<std::uint64_t> ids;
  dispatched.reserve(m);
  ids.reserve(m);
  {
    const obs::ScopedTimer dispatch_span("dispatch");
    for (const auto idx : selected) {
      dispatched.push_back(server_->dispatch_to(clients_[idx]->id()));
      ids.push_back(clients_[idx]->id());
      bytes_down.add(dispatched.back().model_state.size());
    }
  }

  // Collection: bounded attempts against per-client deadlines in virtual
  // time. Faults are decided serially (pure functions of the plan); the
  // shared client step trains the responders in parallel and delivers them
  // in responder order, so collection order (and therefore aggregation) is
  // identical at any thread count.
  std::vector<index_t> pending(m);
  for (index_t i = 0; i < m; ++i) pending[i] = i;
  std::vector<ClientUpdateMessage> collected;
  collected.reserve(m);
  for (index_t attempt = 0;
       attempt < config_.max_attempts && !pending.empty(); ++attempt) {
    if (attempt > 0) {
      clock_.advance(attempt * config_.retry_backoff_ticks);
      retries.add(pending.size());
    }
    const auto t0 = clock_.now();
    const auto deadline = t0 + config_.deadline_ticks;

    std::vector<ClientSlot> responders;
    std::vector<index_t> responder_sel;  // index into selected/dispatched
    std::vector<index_t> still_pending;
    runtime::VirtualClock::ticks last_arrival = t0;
    for (const auto i : pending) {
      const ClientFault fault = fault_plan_.decide(ticket, attempt, ids[i]);
      if (fault.kind == FaultKind::kDropout) {
        dropouts.add(1);
        still_pending.push_back(i);
        continue;
      }
      const auto arrival = t0 + config_.base_latency_ticks + fault.delay_ticks;
      if (fault.kind == FaultKind::kStraggler) stragglers.add(1);
      if (arrival > deadline) {
        timeouts.add(1);
        still_pending.push_back(i);
        continue;
      }
      if (arrival > last_arrival) last_arrival = arrival;
      responders.push_back({ids[i], fault});
      responder_sel.push_back(i);
    }

    run_client_slots(
        responders,
        [&](index_t slot) {
          const index_t sel = responder_sel[slot];
          return run_client_round(*clients_[selected[sel]], dispatched[sel],
                                  defense_.get(), ids);
        },
        fault_plan_, ticket, attempt,
        [&](ClientUpdateMessage&& update) {
          collected.push_back(std::move(update));
        });

    pending = std::move(still_pending);
    // Time passes: to the last arrival when everyone replied, else the full
    // deadline we waited out before giving up on the stragglers.
    clock_.advance_to(pending.empty() ? last_arrival : deadline);
  }

  if (!pending.empty()) {
    lost_c.add(pending.size());
    if (config_.fail_on_lost) {
      throw TimeoutError("round " + std::to_string(server_->round()) + ": " +
                         std::to_string(pending.size()) + " of " +
                         std::to_string(m) + " clients lost after " +
                         std::to_string(config_.max_attempts) +
                         " attempts (" + clock_.to_string() + ")");
    }
  }

  const index_t needed = RoundCore::quorum_needed(config_.quorum_fraction, m);

  {
    const obs::ScopedTimer agg_span("aggregate");
    try {
      server_->finish_round(collected, needed);
    } catch (const QuorumError&) {
      // finish_round throws before touching the model.
      aborted.add(1);
      throw;
    }
  }
  rounds.add(1);
  obs::gauge("fl.clock_ticks").set(static_cast<double>(clock_.now()));
  return ids;
}

void Simulation::run(index_t rounds,
                     const std::function<void(index_t)>& on_round) {
  for (index_t r = 0; r < rounds; ++r) {
    run_round();
    if (on_round) on_round(r);
  }
}

// ---- Checkpoint / resume ----------------------------------------------------

tensor::ByteBuffer Simulation::encode_checkpoint() {
  // Counted BEFORE the obs capture so the snapshot records itself: a
  // straight-through run and a run resumed from this snapshot then agree on
  // ckpt.save_total forever after.
  static obs::Counter& saves = obs::counter("ckpt.save_total");
  saves.add(1);

  ckpt::SnapshotBuilder builder;
  {
    ckpt::SectionWriter meta;
    meta.u64(server_->round());
    meta.u64(round_tickets_);
    meta.u64(clock_.now());
    // Configuration echo: a snapshot only fits the federation it came from.
    meta.u64(config_.seed);
    meta.u64(clients_.size());
    meta.u64(config_.clients_per_round);
    meta.f64(static_cast<double>(config_.quorum_fraction));
    builder.add("meta", meta.take());
  }
  builder.add("model", nn::serialize_state(server_->global_model()));
  {
    ckpt::SectionWriter rng;
    ckpt::write_rng_state(rng, rng_.state());
    rng.u32(static_cast<std::uint32_t>(clients_.size()));
    for (const auto& c : clients_) {
      rng.u64(c->id());
      ckpt::write_rng_state(rng, c->rng_state());
    }
    builder.add("rng", rng.take());
  }
  builder.add("obs", ckpt::encode_obs(obs::Registry::global()));
  return builder.finish();
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
      clients_per_round != config_.clients_per_round ||
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
  std::unordered_map<std::uint64_t, Client*> by_id;
  for (const auto& c : clients_) by_id.emplace(c->id(), c.get());
  std::vector<std::pair<Client*, common::Rng::State>> client_rngs;
  client_rngs.reserve(rng_clients);
  for (std::uint32_t i = 0; i < rng_clients; ++i) {
    const std::uint64_t id = rng.u64();
    const common::Rng::State state = ckpt::read_rng_state(rng);
    const auto it = by_id.find(id);
    if (it == by_id.end()) {
      throw CheckpointError(Reason::kStateMismatch,
                            "snapshot RNG state for unknown client id " +
                                std::to_string(id));
    }
    client_rngs.emplace_back(it->second, state);
  }
  rng.expect_end();

  const tensor::ByteBuffer& model_bytes = snap.section("model");
  const tensor::ByteBuffer& obs_bytes = snap.section("obs");

  ckpt::load_model_section(
      [&] { nn::deserialize_state(server_->global_model(), model_bytes); });
  server_->restore_round(round);
  round_tickets_ = tickets;
  clock_.restore(clock_ticks);
  rng_.set_state(sim_rng);
  for (auto& [client, state] : client_rngs) client->restore_rng_state(state);
  ckpt::apply_obs(obs_bytes);
  obs::counter("ckpt.restore_total").add(1);
}

void Simulation::restore_checkpoint(const tensor::ByteBuffer& bytes) {
  apply_snapshot(ckpt::Snapshot::parse(bytes));
}

std::string Simulation::save_checkpoint(ckpt::CheckpointManager& manager) {
  return manager.save(server_->round(), encode_checkpoint());
}

std::uint64_t Simulation::resume_from(ckpt::CheckpointManager& manager) {
  const ckpt::CheckpointManager::Loaded loaded = manager.load_latest_valid();
  apply_snapshot(loaded.snapshot);
  return server_->round();
}

}  // namespace oasis::fl
