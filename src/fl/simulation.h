// Round orchestration: wires server and clients into the iterative protocol
// of Section 2 (random M-of-N client selection per round).
//
// Simulation is a driver of the one in-process round loop,
// fl::ShardedSimulation (shard.h). Its persistent clients are the
// population, one shard holds the whole Fisher–Yates cohort, and the core
// may buffer, so every aggregator works. Collection runs against per-client
// deadlines on a deterministic virtual clock with bounded retry/backoff, an
// optional quorum fraction decides whether a round may commit, and rounds
// that miss quorum abort with QuorumError before the model is touched.
// Faults (dropout, stragglers, wire corruption, numeric poison) are injected
// between dispatch and collection by a seeded fl::FaultPlan — see fault.h.
// With no plan and default config the engine reduces exactly to the legacy
// always-succeeds protocol.
#pragma once

#include <memory>
#include <vector>

#include "fl/shard.h"

namespace oasis::fl {

/// In-process federation of one server and N clients.
class Simulation : private ShardedSimulation {
 public:
  /// Throws ConfigError on an empty client list, duplicate client ids,
  /// M > N, max_attempts == 0 or quorum_fraction outside [0, 1].
  Simulation(std::unique_ptr<Server> server,
             std::vector<std::unique_ptr<Client>> clients,
             SimulationConfig config)
      : ShardedSimulation(std::move(server), std::move(clients), config) {}

  /// Runs one protocol round; returns the ids of participating clients.
  /// Throws QuorumError (model untouched) when fewer valid updates than the
  /// configured quorum survive collection + validation, and TimeoutError in
  /// strict mode when clients are lost. A client whose model-audit gate
  /// refuses the dispatched model (AuditError) is excluded for the round —
  /// no retry, since the same model re-refuses deterministically — and the
  /// round proceeds with the remaining cohort. Throws ConfigError, before
  /// the round starts, for a masking defense stack under any aggregator
  /// but FedAvg (ShardedSimulation::run_round).
  std::vector<std::uint64_t> run_round();

  /// Runs `rounds` rounds, invoking `on_round` (if set) after each.
  using ShardedSimulation::run;

  /// Installs the seeded fault schedule applied between dispatch and
  /// collection. Replace with a default-constructed plan to disable.
  using ShardedSimulation::set_fault_plan;

  /// Installs the client-side defense stack (clip / noise / topk / secagg
  /// mask), applied by the shared client step (fl/client_step.h) to every
  /// update right after local training — inside the parallel region, before
  /// wire faults touch the payload. The stack is
  /// shared immutable state: its per-stage rng streams are pure functions of
  /// (stack seed, round, client), so results stay bit-identical at any
  /// thread count. The mask stage receives this round's selected cohort.
  /// nullptr (default) disables defenses.
  using ShardedSimulation::set_defense_stack;

  /// The engine's deterministic clock (advanced only by run_round).
  [[nodiscard]] const runtime::VirtualClock& clock() const { return clock_; }

  using ShardedSimulation::server;

  // --- Checkpoint / resume -------------------------------------------------
  //
  // A snapshot captures EVERYTHING the next run_round reads: the global
  // model (params + buffers), the protocol round id, the fault-plan ticket
  // counter, the virtual clock, the selection RNG stream position, every
  // client's RNG stream position, and the full obs registry. Restoring it
  // therefore makes a resumed run bit-identical to one that never stopped,
  // at any thread count — the contract the crash harness proves. The one
  // exclusion: counters under the "ckpt.restore" prefix, which record the
  // restore itself (see ckpt/obs_state.h). The codec is the round loop's
  // (ShardedSimulation, DESIGN.md §5g); this driver's engine tag, clock and
  // (id, rng) client list tell its snapshots apart.

  /// Serializes the simulation into an "oasis.ckpt/v2" container buffer and
  /// bumps the `ckpt.save_total` counter (before capturing obs, so the
  /// snapshot already counts itself).
  using ShardedSimulation::encode_checkpoint;

  /// Validates `bytes` exhaustively and applies it. Throws CheckpointError
  /// (kStateMismatch when the snapshot belongs to another engine or to a
  /// differently configured federation) and leaves live state untouched on
  /// validation failure.
  using ShardedSimulation::restore_checkpoint;

  /// encode_checkpoint() → manager.save(protocol round); returns the path.
  using ShardedSimulation::save_checkpoint;

  /// Restores from the manager's newest VALID generation (corrupt newer
  /// generations are skipped, see CheckpointManager::load_latest_valid) and
  /// returns the protocol round to continue from. Throws CheckpointError
  /// {kNoValidGeneration} when the directory holds nothing loadable.
  using ShardedSimulation::resume_from;
};

}  // namespace oasis::fl
