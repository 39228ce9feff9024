// The in-process round loop, and its million-client driver.
//
// ShardedSimulation is the one loop that runs the protocol of Section 2 in
// process. It draws the round's cohort, partitions it into fixed-size
// shards, and for each shard dispatches serially, decides faults, trains
// the members in parallel through the shared client step (client_step.h)
// and folds their updates serially into ONE fl::RoundCore fold. Two drivers
// run it:
//   * the public constructor: clients are materialized lazily from a
//     VirtualPopulation (a pure function of (population seed, client id))
//     and destroyed with their shard, so a round over 10^6 clients runs in
//     O(shard) memory. Collection is single-attempt: a dropout is lost, a
//     straggler is delivered and counted. The core is streaming-only, so
//     the buffering aggregators (median, trimmed mean) raise ConfigError.
//   * fl::Simulation (simulation.h): persistent clients, one shard holding
//     the whole Fisher–Yates cohort, bounded retries against deadlines on a
//     virtual clock, and a core that may buffer.
//
// Determinism argument (DESIGN.md §5i). The floating-point sum order of the
// aggregate is the FOLD order. Single-attempt collection folds strictly in
// cohort order: shard k folds cohort members [k·S, (k+1)·S) in order, shards
// fold in ascending k. The order is therefore a pure function of the cohort,
// independent of the shard size S AND of the thread count (parallelism is
// confined to training within a shard, whose results land in fixed slots).
// With the Fisher–Yates sampler the cohort order is fl::Simulation's
// selection order, so the two drivers commit the same bytes whenever
// Simulation's first attempt collects everyone it will collect. The
// differential shard and round-core tests pin exactly this.
//
// Mid-round checkpointing. Huge rounds are made interruption-proof by
// snapshotting at shard boundaries: a snapshot carries the next shard to
// run (the completed shards are always the prefix before it), the fold's
// partial sums and screen tallies, and the selection RNG state from the top
// of the round (so the cohort, and with it the shard count, re-derives on
// resume). A SIGKILL mid-shard loses at most one shard of work and the
// resumed run is bit-identical to one that never crashed — the shard crash
// tests prove it over 50 seeds.
//
// Mid-round resume assumes an HONEST server: begin_round() must be
// idempotent given unchanged model state, because resume re-invokes it to
// rebuild the dispatch payload. A MaliciousServer's pre-dispatch
// manipulation would be applied twice, so restoring a mid-round snapshot
// under one throws ConfigError before any live state changes.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "fl/defense.h"
#include "fl/fault.h"
#include "fl/population.h"
#include "fl/round_core.h"
#include "fl/server.h"
#include "runtime/virtual_clock.h"

namespace oasis::fl {

/// How the round's cohort is drawn from the population.
enum class CohortSampler : std::uint8_t {
  /// rng.sample_without_replacement(N, M), in selection order — the only
  /// sampler fl::Simulation uses. Materializes the cohort id list (O(M)
  /// memory) and an O(N) scratch permutation.
  kFisherYates = 0,
  /// Stateless hash-threshold membership: client `id` joins round ticket `t`
  /// iff mix(seed, t, id) < threshold(M, N). O(1) sampler state, cohort
  /// enumerated in ascending id order, cohort SIZE is binomial around M
  /// (each client joins independently with probability M/N). The scale mode.
  kHashThreshold = 1,
};

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
  std::uint64_t ticket = 0;  // engine's monotone round-start counter
  index_t shard = 0;         // shard just completed (0-based)
  index_t num_shards = 0;
};

/// Called after each completed shard — the mid-round checkpoint cadence hook
/// (a crash between two invocations loses at most one shard of work).
using ShardHook = std::function<void(const ShardProgress&)>;

/// Called after each individual client folds (serially, in fold order) —
/// the crash harness injects SIGKILL mid-shard through this.
using ClientHook =
    std::function<void(std::uint64_t client_id, index_t clients_done)>;

/// fl::Simulation's configuration (simulation.h).
struct SimulationConfig {
  /// Clients selected per round (M ≤ N). 0 means "all clients".
  index_t clients_per_round = 0;
  std::uint64_t seed = 7;

  // --- Fault-tolerant collection semantics (virtual-clock time) ---
  /// Fraction of the M selected clients that must survive validation for
  /// the round to commit; ceil(quorum_fraction·M), at least 1 when > 0.
  /// 0 disables the quorum (a round with zero valid updates skips its SGD
  /// step instead of aborting).
  real quorum_fraction = 0.0;
  /// Collection attempts per client (1 initial + retries). Must be ≥ 1.
  index_t max_attempts = 3;
  /// Per-attempt reply deadline: replies arriving later are timeouts.
  runtime::VirtualClock::ticks deadline_ticks = 500;
  /// Extra wait inserted before each retry attempt (linear backoff:
  /// attempt k waits k·retry_backoff_ticks on top of the deadline).
  runtime::VirtualClock::ticks retry_backoff_ticks = 100;
  /// Nominal round-trip latency of a healthy reply.
  runtime::VirtualClock::ticks base_latency_ticks = 10;
  /// Strict mode: throw TimeoutError when any selected client is still
  /// missing after the last attempt (before quorum/aggregation run).
  bool fail_on_lost = false;
};

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
  /// only ever lived in the fold), so there is nothing to roll back. Throws
  /// ConfigError before the round starts when the defense stack masks
  /// (requires_cohort) and the aggregator is not FedAvg: pairwise masks
  /// cancel only in the plain example-weighted sum.
  index_t run_round() { return run_round(nullptr); }

  /// Runs `rounds` rounds, invoking `on_round` (if set) after each.
  void run(index_t rounds,
           const std::function<void(index_t round)>& on_round = {});

  /// Installs the seeded fault schedule, decided per member and attempt
  /// (see the file comment for each driver's collection). Replace with a
  /// default-constructed plan to disable.
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
  /// True between a shard-boundary snapshot's round start and its commit —
  /// i.e. the engine is inside a round (only observable via checkpoints,
  /// hooks, or an aborted run_round).
  [[nodiscard]] bool mid_round() const { return mid_round_; }

  // --- Checkpoint / resume -------------------------------------------------
  //
  // One schema for both drivers (DESIGN.md §5g): sections "meta" (engine
  // tag, round, tickets, configuration echo, the driver's word — the
  // population seed, or fl::Simulation's clock — and the shard frontier
  // while mid-round), "model", "rng" (selection stream, its round-start
  // state while mid-round, and fl::Simulation's (id, rng) client list),
  // "agg" while mid-round (RoundCore::write_fold) and "obs". The engine tag
  // tells the drivers apart, so each refuses the other's snapshots.
  // Restoring a mid-round snapshot re-derives the cohort from the
  // round-start RNG state and resumes the shard loop bit-exactly.

  /// Serializes the engine into an "oasis.ckpt/v2" buffer and bumps
  /// ckpt.save_total (before the obs capture, so the snapshot counts
  /// itself).
  [[nodiscard]] tensor::ByteBuffer encode_checkpoint();

  /// Validates `bytes` exhaustively and applies it. Throws CheckpointError
  /// (kStateMismatch for a snapshot from another engine or a differently
  /// configured federation) and leaves live state untouched on validation
  /// failure. Throws ConfigError, also before any mutation, for a mid-round
  /// snapshot when the server is a MaliciousServer.
  void restore_checkpoint(const tensor::ByteBuffer& bytes);

  /// encode_checkpoint() → manager.save(generation); returns the path.
  /// Generations interleave rounds and shards monotonically
  /// (ckpt::progress_generation): ticket·2^20 + 1 + next_shard mid-round,
  /// round_tickets·2^20 at rest. fl::Simulation numbers them by protocol
  /// round.
  std::string save_checkpoint(ckpt::CheckpointManager& manager);

  /// Restores from the manager's newest valid generation and returns the
  /// protocol round to continue from (the round IN FLIGHT for a mid-round
  /// snapshot). Throws CheckpointError{kNoValidGeneration} when the
  /// directory holds nothing loadable.
  std::uint64_t resume_from(ckpt::CheckpointManager& manager);

 private:
  friend class Simulation;

  /// fl::Simulation's driver: `clients` are the population, one shard holds
  /// the whole cohort, and the core may buffer.
  ShardedSimulation(std::unique_ptr<Server> server,
                    std::vector<std::unique_ptr<Client>> clients,
                    SimulationConfig config);

  void check_config() const;
  [[nodiscard]] index_t population_size() const;
  [[nodiscard]] std::uint64_t client_id(index_t member) const;
  /// Appends the cohort's client ids in fold order when `cohort` is set.
  index_t run_round(std::vector<std::uint64_t>* cohort);
  void begin_round_state();
  /// Draws this round's cohort from `selection` (rng_, or on resume a
  /// replay of the round-start state) and derives the shard count.
  void draw_cohort(common::Rng& selection);
  void process_shard();
  void collect_shard_members(std::vector<index_t>& out);
  void clear_round_state();
  [[nodiscard]] std::uint64_t checkpoint_generation() const;
  void apply_snapshot(const ckpt::Snapshot& snap);

  std::unique_ptr<Server> server_;
  // The client source: a lazily materializing population, or (fl::
  // Simulation) persistent clients that keep their cross-round rng.
  std::optional<VirtualPopulation> population_;
  std::vector<std::unique_ptr<Client>> clients_;
  ShardedConfig config_;
  /// fl::Simulation's collection rule, applied per shard. Unset for the
  /// public driver: one attempt, no deadline, no clock.
  std::optional<SimulationConfig> retry_;
  runtime::VirtualClock clock_;  // advanced only under retry_
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
  RoundCore round_;  // streaming-only under the public driver
};

}  // namespace oasis::fl
