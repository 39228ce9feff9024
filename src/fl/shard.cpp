#include "fl/shard.h"

#include <algorithm>
#include <unordered_set>

#include "ckpt/codec.h"
#include "ckpt/container.h"
#include "ckpt/obs_state.h"
#include "fl/client_step.h"
#include "nn/model_io.h"
#include "obs/obs.h"

namespace oasis::fl {

namespace {

/// Everyone-joins sentinel for cohort_threshold (cohort == population).
constexpr std::uint64_t kFullCohort = ~std::uint64_t{0};

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer (Steele/Lea/Flood) — full avalanche, so adjacent
  // client ids land uniformly against the threshold.
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

Server& checked(const std::unique_ptr<Server>& server) {
  OASIS_CHECK(server != nullptr);
  return *server;
}

/// The hash-threshold sampler's membership hash of (seed, ticket, id).
std::uint64_t cohort_mix(std::uint64_t seed, std::uint64_t ticket,
                         std::uint64_t client_id) {
  // Two finalizer passes: the first diffuses (seed, ticket) into a round
  // key, the second diffuses the client id against it. Golden-ratio offsets
  // keep ticket 0 / id 0 away from the fixed point mix64(0) == 0.
  const std::uint64_t round_key =
      mix64(seed + 0x9E3779B97F4A7C15ULL * (ticket + 1));
  return mix64(round_key ^ (client_id + 0x9E3779B97F4A7C15ULL));
}

}  // namespace

std::uint64_t cohort_threshold(index_t cohort_size, index_t population) {
  if (population == 0) {
    throw ConfigError("cohort_threshold over an empty population");
  }
  if (cohort_size > population) {
    throw ConfigError("cohort " + std::to_string(cohort_size) +
                      " exceeds population " + std::to_string(population));
  }
  if (cohort_size == population) return kFullCohort;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(cohort_size) << 64) / population);
}

bool cohort_member(std::uint64_t seed, std::uint64_t ticket,
                   std::uint64_t client_id, std::uint64_t threshold) {
  return threshold == kFullCohort ||
         cohort_mix(seed, ticket, client_id) < threshold;
}

ShardedSimulation::ShardedSimulation(std::unique_ptr<Server> server,
                                     VirtualPopulation population,
                                     ShardedConfig config)
    : server_(std::move(server)),
      population_(std::move(population)),
      config_(config),
      rng_(config.seed),
      round_(checked(server_), /*streaming_only=*/true) {
  check_config();
}

ShardedSimulation::ShardedSimulation(
    std::unique_ptr<Server> server,
    std::vector<std::unique_ptr<Client>> clients,
    SimulationConfig config)
    : server_(std::move(server)),
      clients_(std::move(clients)),
      config_{config.clients_per_round, /*shard_size=*/clients_.size(),
              config.seed, CohortSampler::kFisherYates,
              config.quorum_fraction},
      retry_(config),
      rng_(config.seed),
      round_(checked(server_)) {
  check_config();
}

void ShardedSimulation::check_config() const {
  if (population_size() == 0) {
    throw ConfigError("a federation needs at least one client");
  }
  std::unordered_set<std::uint64_t> ids;
  for (const auto& c : clients_) {
    OASIS_CHECK(c != nullptr);
    if (!ids.insert(c->id()).second) {
      throw ConfigError("duplicate client id " + std::to_string(c->id()));
    }
  }
  if (config_.shard_size == 0) {
    throw ConfigError("shard_size must be >= 1");
  }
  if (config_.cohort_size > population_size()) {
    throw ConfigError("cohort " + std::to_string(config_.cohort_size) +
                      " exceeds population " +
                      std::to_string(population_size()));
  }
  if (config_.quorum_fraction < 0.0 || config_.quorum_fraction > 1.0) {
    throw ConfigError("quorum_fraction outside [0, 1]");
  }
  if (retry_ && retry_->max_attempts == 0) {
    throw ConfigError("max_attempts must be >= 1");
  }
}

index_t ShardedSimulation::population_size() const {
  return population_ ? population_->size() : clients_.size();
}

std::uint64_t ShardedSimulation::client_id(index_t member) const {
  return population_ ? member : clients_[member]->id();
}

void ShardedSimulation::begin_round_state() {
  // Refused before the ticket advances or anyone trains: pairwise masks
  // cancel only in FedAvg's weighted sum, so a robust aggregator folds
  // masked noise (measured at chance accuracy).
  if (defense_ && defense_->requires_cohort() &&
      server_->aggregator().kind != AggregatorKind::kFedAvg) {
    throw ConfigError(std::string("the mask defense cancels only under "
                                  "fedavg, not ") +
                      to_string(server_->aggregator().kind));
  }
  rng_at_round_start_ = rng_.state();
  ticket_ = round_tickets_++;
  draw_cohort(rng_);
  scan_pos_ = 0;
  OASIS_CHECK_MSG(num_shards_ < ckpt::kProgressPerRound,
                  num_shards_ << " shards exceed the generation-numbering "
                                 "ceiling; raise shard_size");
  round_.open();
  next_shard_ = 0;
  clients_done_ = 0;
  mid_round_ = true;
  server_->begin_round();
}

void ShardedSimulation::draw_cohort(common::Rng& selection) {
  const index_t target =
      config_.cohort_size == 0 ? population_size() : config_.cohort_size;
  // Only a mask stage needs the cohort id list (see set_defense_stack).
  const bool collect = defense_ && defense_->requires_cohort();
  if (config_.sampler == CohortSampler::kFisherYates) {
    cohort_ids_ =
        selection.sample_without_replacement(population_size(), target);
    cohort_size_ = target;
    for (index_t i = 0; collect && i < target; ++i) {
      defense_cohort_.push_back(client_id(cohort_ids_[i]));
    }
  } else {
    threshold_ = cohort_threshold(target, population_size());
    // Count the actual (binomial) cohort so quorum math and the shard count
    // are fixed before the first shard runs — ~ns per hash, and the scan
    // keeps no per-client state unless the mask needs the id list.
    cohort_size_ = 0;
    for (index_t id = 0; id < population_size(); ++id) {
      if (cohort_member(config_.seed, ticket_, id, threshold_)) {
        ++cohort_size_;
        if (collect) defense_cohort_.push_back(id);
      }
    }
  }
  num_shards_ = (cohort_size_ + config_.shard_size - 1) / config_.shard_size;
}

void ShardedSimulation::collect_shard_members(std::vector<index_t>& out) {
  out.clear();
  if (config_.sampler == CohortSampler::kFisherYates) {
    const index_t lo = next_shard_ * config_.shard_size;
    const index_t hi = std::min(lo + config_.shard_size, cohort_ids_.size());
    out.assign(cohort_ids_.begin() + lo, cohort_ids_.begin() + hi);
  } else {
    while (out.size() < config_.shard_size &&
           scan_pos_ < population_size()) {
      if (cohort_member(config_.seed, ticket_, scan_pos_, threshold_)) {
        out.push_back(scan_pos_);
      }
      ++scan_pos_;
    }
  }
}

void ShardedSimulation::process_shard() {
  static obs::Counter& bytes_down = obs::counter("fl.bytes_dispatched");
  static obs::Counter& dropouts = obs::counter("fl.fault.dropout");
  static obs::Counter& stragglers = obs::counter("fl.fault.straggler");
  static obs::Counter& timeouts = obs::counter("fl.timeouts");
  static obs::Counter& retries = obs::counter("fl.retries");
  static obs::Counter& lost_c = obs::counter("fl.clients_lost");
  static obs::Counter& shards_c = obs::counter("fl.shard.shards");
  static obs::Counter& shard_clients = obs::counter("fl.shard.clients");

  std::vector<index_t> members;
  collect_shard_members(members);

  // Serial dispatch to every member: a (possibly malicious) server may
  // build per-client payloads from mutable state, so only training fans out.
  // The messages are the server's own, stable until its next begin_round.
  std::vector<std::uint64_t> ids;
  std::vector<const GlobalModelMessage*> dispatched;
  ids.reserve(members.size());
  dispatched.reserve(members.size());
  {
    const obs::ScopedTimer dispatch_span("dispatch");
    for (const auto member : members) {
      ids.push_back(client_id(member));
      dispatched.push_back(&server_->dispatch_to(ids.back()));
      bytes_down.add(dispatched.back()->model_state.size());
    }
  }

  const index_t attempts = retry_ ? retry_->max_attempts : 1;
  std::vector<index_t> pending(members.size());  // indices into members
  for (index_t i = 0; i < pending.size(); ++i) pending[i] = i;
  for (index_t attempt = 0; attempt < attempts && !pending.empty();
       ++attempt) {
    if (attempt > 0) {
      clock_.advance(attempt * retry_->retry_backoff_ticks);
      retries.add(pending.size());
    }
    // Faults are pure functions of the plan, decided serially before
    // training, so a dropped or late member never trains.
    std::vector<ClientSlot> slots;
    std::vector<index_t> slot_member;
    std::vector<index_t> still_pending;
    runtime::VirtualClock::ticks slowest = 0;
    for (const auto i : pending) {
      const ClientFault fault = fault_plan_.decide(ticket_, attempt, ids[i]);
      if (fault.kind == FaultKind::kDropout) {
        dropouts.add(1);
        still_pending.push_back(i);
        continue;
      }
      if (fault.kind == FaultKind::kStraggler) stragglers.add(1);
      if (retry_) {
        const auto latency = retry_->base_latency_ticks + fault.delay_ticks;
        if (latency > retry_->deadline_ticks) {
          timeouts.add(1);
          still_pending.push_back(i);
          continue;
        }
        slowest = std::max(slowest, latency);
      }
      slots.push_back({ids[i], fault});
      slot_member.push_back(i);
    }

    // A population's clients are materialized INSIDE the parallel region
    // (make_client is pure, so construction order cannot matter) and die
    // with their slot. Delivery folds serially in slot order — the
    // determinism linchpin (see the file comment); a refused client still
    // counts as disposed.
    run_client_slots(
        slots,
        [&](index_t s) {
          const index_t i = slot_member[s];
          std::unique_ptr<Client> built;
          if (population_) built = population_->make_client(ids[i]);
          Client& client = built ? *built : *clients_[members[i]];
          return run_client_round(
              client, *dispatched[i],
              {defense_.get(), defense_cohort_, &fault_plan_, slots[s].fault,
               ticket_, attempt});
        },
        fault_plan_, ticket_, attempt,
        [&](ClientUpdateMessage&& update) { round_.offer(update); },
        [&](index_t s) {
          ++clients_done_;
          if (client_hook_) client_hook_(slots[s].client_id, clients_done_);
        });
    pending = std::move(still_pending);
    // Time passes: to the slowest reply when everyone replied, else the
    // full deadline waited out before giving up on the rest.
    if (retry_) {
      clock_.advance(pending.empty() ? slowest : retry_->deadline_ticks);
    }
  }

  clients_done_ += pending.size();
  lost_c.add(pending.size());
  if (!pending.empty() && retry_ && retry_->fail_on_lost) {
    clear_round_state();
    throw TimeoutError("round " + std::to_string(server_->round()) + ": " +
                       std::to_string(pending.size()) + " of " +
                       std::to_string(members.size()) + " clients lost after " +
                       std::to_string(attempts) + " attempts (" +
                       clock_.to_string() + ")");
  }
  // One screen per shard suffices: cohort member ids are distinct across
  // shards by construction (a permutation sample or an ascending id scan),
  // so the only reachable duplicates are kDuplicate faults, delivered
  // back to back within this shard. Reset here, so the boundary the hook
  // may snapshot holds an empty screen.
  round_.reset_screen();
  ++next_shard_;
  shards_c.add(1);
  shard_clients.add(members.size());
  if (shard_hook_) shard_hook_({ticket_, next_shard_ - 1, num_shards_});
}

void ShardedSimulation::clear_round_state() {
  mid_round_ = false;
  cohort_ids_.clear();
  cohort_ids_.shrink_to_fit();
  defense_cohort_.clear();
  defense_cohort_.shrink_to_fit();
  cohort_size_ = 0;
  num_shards_ = 0;
  next_shard_ = 0;
  scan_pos_ = 0;
  clients_done_ = 0;
  threshold_ = 0;
}

index_t ShardedSimulation::run_round(std::vector<std::uint64_t>* cohort) {
  const obs::ScopedTimer round_span("fl.round");
  static obs::Counter& rounds = obs::counter("fl.rounds");
  static obs::Counter& shard_rounds = obs::counter("fl.shard.rounds");
  static obs::Counter& aborted = obs::counter("fl.rounds_aborted");

  if (!mid_round_) begin_round_state();
  while (next_shard_ < num_shards_) process_shard();

  const index_t size = cohort_size_;
  if (cohort != nullptr) {
    for (const auto i : cohort_ids_) cohort->push_back(client_id(i));
  }
  try {
    round_.close(RoundCore::quorum_needed(config_.quorum_fraction, size));
  } catch (const QuorumError&) {
    // The aggregate only ever lived in the fold, so an abort needs no model
    // rollback — dropping the round state IS the rollback.
    clear_round_state();
    aborted.add(1);
    throw;
  }
  clear_round_state();
  rounds.add(1);
  shard_rounds.add(1);
  obs::gauge("fl.shard.last_cohort").set(static_cast<double>(size));
  // Only the timed driver has a clock, and only its snapshot carries one.
  if (retry_) {
    obs::gauge("fl.clock_ticks").set(static_cast<double>(clock_.now()));
  }
  return size;
}

void ShardedSimulation::run(index_t rounds,
                            const std::function<void(index_t)>& on_round) {
  for (index_t r = 0; r < rounds; ++r) {
    run_round();
    if (on_round) on_round(r);
  }
}

// ---- Checkpoint / resume ----------------------------------------------------

std::uint64_t ShardedSimulation::checkpoint_generation() const {
  // fl::Simulation numbers its generations by protocol round.
  if (!population_) return server_->round();
  // A resting snapshot after round t-1 is round t at rest; mid-round shard
  // boundaries of the round with ticket t count next_shard as progress.
  return mid_round_
             ? ckpt::progress_generation(ticket_, true, next_shard_)
             : ckpt::progress_generation(round_tickets_, false, 0);
}

tensor::ByteBuffer ShardedSimulation::encode_checkpoint() {
  ckpt::SectionWriter meta, rng;
  meta.u8(static_cast<std::uint8_t>(population_ ? ckpt::Engine::kSharded
                                                : ckpt::Engine::kSimulation));
  meta.u64(server_->round());
  meta.u64(round_tickets_);
  // Configuration echo: a snapshot only fits the federation it came from.
  meta.u64(config_.seed);
  meta.u64(population_size());
  meta.u64(config_.cohort_size);
  meta.u64(config_.shard_size);
  meta.u8(static_cast<std::uint8_t>(config_.sampler));
  meta.f64(static_cast<double>(config_.quorum_fraction));
  // The driver's word: a population echoes its seed; persistent clients
  // run on the virtual clock.
  meta.u64(population_ ? population_->config().seed : clock_.now());
  meta.u8(mid_round_ ? 1 : 0);
  ckpt::write_rng_state(rng, rng_.state());
  if (mid_round_) {
    meta.u64(ticket_);
    meta.u64(next_shard_);
    meta.u64(scan_pos_);
    meta.u64(clients_done_);
    ckpt::write_rng_state(rng, rng_at_round_start_);
  }
  if (!population_) {
    // Persistent clients' rng streams, in the clients' own order.
    rng.u32(static_cast<std::uint32_t>(clients_.size()));
    for (const auto& c : clients_) {
      rng.u64(c->id());
      ckpt::write_rng_state(rng, c->rng_state());
    }
  }
  // Counted BEFORE the obs capture so the snapshot records itself: a
  // straight-through run and a run resumed from this snapshot then agree on
  // ckpt.save_total forever after.
  static obs::Counter& saves = obs::counter("ckpt.save_total");
  saves.add(1);
  ckpt::SnapshotBuilder builder;
  builder.add("meta", meta.take());
  builder.add("model", nn::serialize_state(server_->global_model()));
  builder.add("rng", rng.take());
  if (mid_round_) {
    ckpt::SectionWriter agg;
    round_.write_fold(agg);
    builder.add("agg", agg.take());
  }
  builder.add("obs", ckpt::encode_obs(obs::Registry::global()));
  return builder.finish();
}

void ShardedSimulation::apply_snapshot(const ckpt::Snapshot& snap) {
  using Reason = CheckpointError::Reason;

  // Decode and cross-check EVERYTHING before the first mutation, so a
  // snapshot from the wrong engine or federation (or a malformed section)
  // leaves the live engine exactly as it was.
  ckpt::SectionReader meta(snap.section("meta"), "meta");
  ckpt::expect_engine(meta, population_ ? ckpt::Engine::kSharded
                                        : ckpt::Engine::kSimulation);
  const std::uint64_t round = meta.u64();
  const std::uint64_t tickets = meta.u64();
  const std::uint64_t seed = meta.u64();
  const std::uint64_t pop_size = meta.u64();
  const std::uint64_t cohort_cfg = meta.u64();
  const std::uint64_t shard_size = meta.u64();
  const std::uint8_t sampler = meta.u8();
  const double quorum = meta.f64();
  const std::uint64_t driver_word = meta.u64();
  const bool mid = meta.u8() != 0;
  std::uint64_t ticket = 0, next_shard = 0, scan_pos = 0, clients_done = 0;
  if (mid) {
    ticket = meta.u64();
    next_shard = meta.u64();
    scan_pos = meta.u64();
    clients_done = meta.u64();
  }
  meta.expect_end();
  if (mid && dynamic_cast<const MaliciousServer*>(server_.get()) != nullptr) {
    throw ConfigError(
        "a mid-round snapshot cannot be resumed under a MaliciousServer: "
        "resume re-runs begin_round(), re-applying its model manipulation");
  }
  if (seed != config_.seed || pop_size != population_size() ||
      cohort_cfg != config_.cohort_size || shard_size != config_.shard_size ||
      sampler != static_cast<std::uint8_t>(config_.sampler) ||
      quorum != static_cast<double>(config_.quorum_fraction) ||
      (population_ && driver_word != population_->config().seed)) {
    throw CheckpointError(
        Reason::kStateMismatch,
        "snapshot belongs to a differently configured federation (seed " +
            std::to_string(seed) + ", " + std::to_string(pop_size) +
            " clients, shard_size " + std::to_string(shard_size) + ")");
  }
  // The shard count re-derives with the cohort; no cohort outgrows the
  // population.
  if (mid && (ticket >= tickets || scan_pos > pop_size ||
              next_shard > (pop_size + shard_size - 1) / shard_size)) {
    throw CheckpointError(Reason::kStateMismatch,
                          "mid-round snapshot progress is inconsistent "
                          "(shard " +
                              std::to_string(next_shard) + ", ticket " +
                              std::to_string(ticket) + ")");
  }

  ckpt::SectionReader rng(snap.section("rng"), "rng");
  const common::Rng::State rng_now = ckpt::read_rng_state(rng);
  common::Rng::State rng_start{};
  if (mid) rng_start = ckpt::read_rng_state(rng);
  std::vector<common::Rng::State> client_rngs;
  if (!population_) {
    const std::uint32_t count = rng.u32();
    if (count != clients_.size()) {
      throw CheckpointError(Reason::kStateMismatch,
                            "snapshot carries RNG state for " +
                                std::to_string(count) + " clients, have " +
                                std::to_string(clients_.size()));
    }
    // In the order the snapshot listed them: the clients' own order, so a
    // client list that differs in any id is refused.
    client_rngs.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t id = rng.u64();
      client_rngs[i] = ckpt::read_rng_state(rng);
      if (id != clients_[i]->id()) {
        throw CheckpointError(Reason::kStateMismatch,
                              "snapshot RNG state for client id " +
                                  std::to_string(id) + " at position " +
                                  std::to_string(i));
      }
    }
  }
  rng.expect_end();

  FoldState fold;
  if (mid) {
    ckpt::SectionReader agg(snap.section("agg"), "agg");
    fold = RoundCore::read_fold(agg);
    agg.expect_end();
  }
  const tensor::ByteBuffer& model_bytes = snap.section("model");
  const tensor::ByteBuffer& obs_bytes = snap.section("obs");

  ckpt::load_model_section(
      [&] { nn::deserialize_state(server_->global_model(), model_bytes); });
  server_->restore_round(round);
  round_tickets_ = tickets;
  rng_.set_state(rng_now);
  clear_round_state();
  if (!population_) {
    clock_.restore(driver_word);
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      clients_[i]->restore_rng_state(client_rngs[i]);
    }
  }
  if (mid) {
    ticket_ = ticket;
    rng_at_round_start_ = rng_start;
    // Re-draw the cohort from the round-start selection state; rng_ itself
    // already holds the post-selection position.
    common::Rng replay(0);
    replay.set_state(rng_start);
    draw_cohort(replay);
    next_shard_ = next_shard;
    scan_pos_ = scan_pos;
    clients_done_ = clients_done;
    round_.restore(std::move(fold));
    // Rebuild the dispatch payload for the round in flight (honest-server
    // assumption: begin_round is idempotent given unchanged model state).
    server_->begin_round();
    mid_round_ = true;
  } else {
    round_.open();
  }
  ckpt::apply_obs(obs_bytes);
  obs::counter("ckpt.restore_total").add(1);
  if (mid) obs::counter("ckpt.restore.shard_midround").add(1);
}

void ShardedSimulation::restore_checkpoint(const tensor::ByteBuffer& bytes) {
  apply_snapshot(ckpt::Snapshot::parse(bytes));
}

std::string ShardedSimulation::save_checkpoint(
    ckpt::CheckpointManager& manager) {
  return manager.save(checkpoint_generation(), encode_checkpoint());
}

std::uint64_t ShardedSimulation::resume_from(ckpt::CheckpointManager& manager) {
  const ckpt::CheckpointManager::Loaded loaded = manager.load_latest_valid();
  apply_snapshot(loaded.snapshot);
  return server_->round();
}

}  // namespace oasis::fl
