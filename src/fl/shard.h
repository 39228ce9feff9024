// Sharded streaming round engine for million-client federations.
//
// fl::Simulation materializes every client and every update of a round in
// memory — fine for N ≤ 10^3, hopeless for N = 10^6. ShardedSimulation runs
// the SAME protocol in O(shard) memory: the round's cohort is partitioned
// into fixed-size shards, each shard's clients are materialized lazily from
// a VirtualPopulation (pure function of (population seed, client id)),
// trained in parallel, folded serially into ONE streaming fl::RoundCore
// fold, and destroyed before the next shard starts. The fold uses the
// server's own aggregator; the buffering ones (median, trimmed mean) would
// hold the whole cohort, so the constructor refuses them with ConfigError.
//
// Determinism argument (DESIGN.md §5i). The floating-point sum order of the
// aggregate is the FOLD order, and the fold is strictly serial in cohort
// order: shard k folds cohort members [k·S, (k+1)·S) in order, shards fold
// in ascending k. The order is therefore a pure function of the cohort —
// independent of the shard size S AND of the thread count (parallelism is
// confined to training within a shard, whose results land in fixed slots).
// With the Fisher–Yates sampler the cohort order equals fl::Simulation's
// selection order, and the fold order equals the order finish_round() folds
// its updates in — so the sharded engine is BYTE-IDENTICAL to the
// materialized path at any (shard size, thread count). The differential
// shard tests pin exactly this.
//
// Mid-round checkpointing. Huge rounds are made interruption-proof by
// snapshotting at shard boundaries: a snapshot carries the completed-shard
// bitmap, the fold's partial sums, the screen tallies, and the
// selection RNG state from the top of the round (so the cohort re-derives on
// resume). A SIGKILL mid-shard loses at most one shard of work and the
// resumed run is bit-identical to one that never crashed — the shard crash
// tests prove it over 50 seeds.
//
// Fault semantics. The engine is single-attempt (no virtual clock, no
// retry): dropout = lost, straggler = delivered-but-counted, corrupt/poison
// damage the payload via FaultPlan::apply, duplicate folds the update twice
// (the second screens as kDuplicate). At 10^6 clients per round the retry
// machinery would dominate wall clock for semantics nobody observes.
//
// Mid-round resume assumes an HONEST server: begin_round() must be
// idempotent given unchanged model state, because resume re-invokes it to
// rebuild the dispatch payload. A MaliciousServer's pre-dispatch
// manipulation would be applied twice, so restoring a mid-round snapshot
// under one throws ConfigError before any live state changes.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "fl/defense.h"
#include "fl/fault.h"
#include "fl/population.h"
#include "fl/round_core.h"
#include "fl/server.h"

namespace oasis::fl {

/// How the round's cohort is drawn from the population.
enum class CohortSampler : std::uint8_t {
  /// rng.sample_without_replacement(N, M) — exactly fl::Simulation's
  /// selection, in selection order. Materializes the cohort id list (O(M)
  /// memory) and an O(N) scratch permutation; the compatibility mode the
  /// differential tests run.
  kFisherYates = 0,
  /// Stateless hash-threshold membership: client `id` joins round ticket `t`
  /// iff mix(seed, t, id) < threshold(M, N). O(1) sampler state, cohort
  /// enumerated in ascending id order, cohort SIZE is binomial around M
  /// (each client joins independently with probability M/N). The scale mode.
  kHashThreshold = 1,
};

const char* to_string(CohortSampler sampler);

/// splitmix64-style mix of (seed, ticket, client_id) — the hash-threshold
/// sampler's membership hash. Pure; exposed for the property tests.
[[nodiscard]] std::uint64_t cohort_mix(std::uint64_t seed,
                                       std::uint64_t ticket,
                                       std::uint64_t client_id);

/// Membership threshold for an expected cohort of `cohort_size` out of
/// `population`: floor(cohort·2^64 / population), with cohort == population
/// mapped to the everyone-joins sentinel. Throws ConfigError when
/// cohort_size > population or population == 0.
[[nodiscard]] std::uint64_t cohort_threshold(index_t cohort_size,
                                             index_t population);

/// Does `client_id` participate in round ticket `ticket`?
[[nodiscard]] bool cohort_member(std::uint64_t seed, std::uint64_t ticket,
                                 std::uint64_t client_id,
                                 std::uint64_t threshold);

struct ShardedConfig {
  /// Cohort target M (0 = whole population). Exact under kFisherYates,
  /// expected under kHashThreshold.
  index_t cohort_size = 0;
  /// Clients materialized/trained/folded per shard. Peak memory is
  /// O(shard_size · (model + update)) regardless of population size.
  index_t shard_size = 256;
  /// Selection seed (the analogue of SimulationConfig::seed).
  std::uint64_t seed = 7;
  CohortSampler sampler = CohortSampler::kFisherYates;
  /// Fraction of the ACTUAL cohort that must survive validation for the
  /// round to commit; 0 disables (zero valid updates skip the SGD step).
  real quorum_fraction = 0.0;
};

/// Progress snapshot handed to the shard hook after each shard folds.
struct ShardProgress {
  std::uint64_t round = 0;   // protocol round in flight
  std::uint64_t ticket = 0;  // engine's monotone round-start counter
  index_t shard = 0;         // shard just completed (0-based)
  index_t num_shards = 0;
  index_t cohort_size = 0;   // resolved cohort size this round
  index_t clients_done = 0;  // cohort members disposed so far (cumulative)
};

/// Called after each completed shard — the mid-round checkpoint cadence hook
/// (a crash between two invocations loses at most one shard of work).
using ShardHook = std::function<void(const ShardProgress&)>;

/// Called after each individual client folds (serially, in fold order) —
/// the crash harness injects SIGKILL mid-shard through this.
using ClientHook =
    std::function<void(std::uint64_t client_id, index_t clients_done)>;

class ShardedSimulation {
 public:
  /// Throws ConfigError on shard_size == 0, cohort_size > population,
  /// quorum_fraction outside [0, 1], or a server aggregator that buffers the
  /// cohort (median, trimmed mean).
  ShardedSimulation(std::unique_ptr<Server> server,
                    VirtualPopulation population, ShardedConfig config);

  /// Runs one protocol round (or finishes a mid-round resume) and returns
  /// the resolved cohort size. Throws QuorumError when fewer valid updates
  /// than the quorum survive — the global model is untouched (the aggregate
  /// only ever lived in the fold), so there is nothing to roll back.
  index_t run_round();

  /// Runs `rounds` rounds, invoking `on_round` (if set) after each.
  void run(index_t rounds,
           const std::function<void(index_t round)>& on_round = {});

  /// Installs the seeded fault schedule (single-attempt semantics — see
  /// file comment). Replace with a default-constructed plan to disable.
  void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }

  void set_shard_hook(ShardHook hook) { shard_hook_ = std::move(hook); }
  void set_client_hook(ClientHook hook) { client_hook_ = std::move(hook); }

  /// Installs the client-side defense stack, applied to every update inside
  /// the shard's parallel training region (before wire faults). A
  /// cohort-free stack (clip/noise) keeps the engine strictly O(shard); a
  /// stack whose mask stage requires_cohort() materializes one O(cohort)
  /// id list per round (Fisher–Yates already pays this; hash-threshold
  /// collects ids during its existing pre-count scan). nullptr disables.
  void set_defense_stack(DefenseStackPtr stack) { defense_ = std::move(stack); }

  Server& server() { return *server_; }
  [[nodiscard]] const VirtualPopulation& population() const {
    return population_;
  }
  [[nodiscard]] const ShardedConfig& config() const { return config_; }
  /// True between a shard-boundary snapshot's round start and its commit —
  /// i.e. the engine is inside a round (only observable via checkpoints,
  /// hooks, or an aborted run_round).
  [[nodiscard]] bool mid_round() const { return mid_round_; }

  // --- Checkpoint / resume -------------------------------------------------
  //
  // Same container format and contract as fl::Simulation (sections are named
  // differently — "smeta"/"srng" — so the two engines reject each other's
  // snapshots). A snapshot taken at a shard boundary additionally carries an
  // "agg" section: completed-shard bitmap + the RoundCore fold's partials
  // (its screen tallies ride in "smeta"). Restoring it re-derives the cohort
  // from the round-start RNG state and resumes the shard loop bit-exactly.

  /// Serializes the engine into an "oasis.ckpt/v1" buffer and bumps
  /// ckpt.save_total (before the obs capture, so the snapshot counts
  /// itself).
  [[nodiscard]] tensor::ByteBuffer encode_checkpoint();

  /// Validates `bytes` exhaustively and applies it. Throws CheckpointError
  /// (kStateMismatch for a snapshot from a differently configured
  /// federation) and leaves live state untouched on validation failure.
  /// Throws ConfigError, also before any mutation, for a mid-round snapshot
  /// when the server is a MaliciousServer.
  void restore_checkpoint(const tensor::ByteBuffer& bytes);

  /// encode_checkpoint() → manager.save(generation); returns the path.
  /// Generations interleave rounds and shards monotonically
  /// (ckpt::progress_generation): ticket·2^20 + 1 + next_shard mid-round,
  /// round_tickets·2^20 at rest.
  std::string save_checkpoint(ckpt::CheckpointManager& manager);

  /// Restores from the manager's newest valid generation and returns the
  /// protocol round to continue from (the round IN FLIGHT for a mid-round
  /// snapshot). Throws CheckpointError{kNoValidGeneration} when the
  /// directory holds nothing loadable.
  std::uint64_t resume_from(ckpt::CheckpointManager& manager);

 private:
  void begin_round_state();
  void process_shard();
  void collect_shard_members(std::vector<std::uint64_t>& out);
  void clear_round_state();
  [[nodiscard]] std::uint64_t checkpoint_generation() const;
  void apply_snapshot(const ckpt::Snapshot& snap);

  std::unique_ptr<Server> server_;
  VirtualPopulation population_;
  ShardedConfig config_;
  common::Rng rng_;  // cohort selection stream (kFisherYates)
  FaultPlan fault_plan_;
  DefenseStackPtr defense_;
  ShardHook shard_hook_;
  ClientHook client_hook_;
  /// Monotone count of rounds STARTED (aborted rounds included) — the fault
  /// plan's and hash sampler's ticket, so a retried protocol round sees a
  /// fresh cohort and fresh faults.
  std::uint64_t round_tickets_ = 0;

  // --- In-flight round state (meaningful while mid_round_) ---
  bool mid_round_ = false;
  std::uint64_t ticket_ = 0;
  common::Rng::State rng_at_round_start_{};  // cohort re-derivation on resume
  index_t cohort_size_ = 0;  // resolved (actual) cohort size
  index_t num_shards_ = 0;
  index_t next_shard_ = 0;
  index_t scan_pos_ = 0;  // kHashThreshold: next population id to scan
  index_t clients_done_ = 0;
  std::uint64_t threshold_ = 0;            // kHashThreshold
  std::vector<index_t> cohort_ids_;        // kFisherYates, selection order
  /// Materialized only when the defense stack's mask stage requires the
  /// cohort (see set_defense_stack) — empty otherwise.
  std::vector<std::uint64_t> defense_cohort_;
  std::vector<bool> shard_done_;           // completed-shard bitmap
  RoundCore round_;                        // streaming-only fold
};

}  // namespace oasis::fl
