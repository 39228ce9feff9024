// Round orchestration: wires server and clients into the iterative protocol
// of Section 2 (random M-of-N client selection per round).
//
// The round engine is fault-tolerant: collection runs against per-client
// deadlines on a deterministic virtual clock with bounded retry/backoff, an
// optional quorum fraction decides whether a round may commit, and rounds
// that miss quorum abort with QuorumError after rolling the global model
// back bit-exactly. Faults (dropout, stragglers, wire corruption, numeric
// poison) are injected between dispatch and collection by a seeded
// fl::FaultPlan — see fault.h. With no plan and default config the engine
// reduces exactly to the legacy always-succeeds protocol.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "fl/client.h"
#include "fl/defense.h"
#include "fl/fault.h"
#include "fl/server.h"
#include "runtime/virtual_clock.h"

namespace oasis::fl {

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

/// In-process federation of one server and N clients.
class Simulation {
 public:
  Simulation(std::unique_ptr<Server> server,
             std::vector<std::unique_ptr<Client>> clients,
             SimulationConfig config);

  /// Runs one protocol round; returns the ids of participating clients.
  /// Throws QuorumError (model rolled back bit-exactly) when fewer valid
  /// updates than the configured quorum survive collection + validation,
  /// and TimeoutError in strict mode when clients are lost. A client whose
  /// model-audit gate refuses the dispatched model (AuditError) is excluded
  /// for the round — no retry, since the same model re-refuses
  /// deterministically — and the round proceeds with the remaining cohort.
  std::vector<std::uint64_t> run_round();

  /// Runs `rounds` rounds, invoking `on_round` (if set) after each.
  void run(index_t rounds,
           const std::function<void(index_t round)>& on_round = {});

  /// Installs the seeded fault schedule applied between dispatch and
  /// collection. Replace with a default-constructed plan to disable.
  void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }

  /// Installs the client-side defense stack (clip / noise / topk / secagg
  /// mask), applied by the shared client step (fl/client_step.h) to every
  /// update right after local training — inside the parallel region, before
  /// wire faults touch the payload. The stack is
  /// shared immutable state: its per-stage rng streams are pure functions of
  /// (stack seed, round, client), so results stay bit-identical at any
  /// thread count. The mask stage receives this round's selected cohort.
  /// nullptr (default) disables defenses.
  void set_defense_stack(DefenseStackPtr stack) { defense_ = std::move(stack); }

  /// The engine's deterministic clock (advanced only by run_round).
  [[nodiscard]] const runtime::VirtualClock& clock() const { return clock_; }

  Server& server() { return *server_; }
  [[nodiscard]] index_t num_clients() const { return clients_.size(); }
  Client& client(index_t i);

  // --- Checkpoint / resume -------------------------------------------------
  //
  // A snapshot captures EVERYTHING the next run_round reads: the global
  // model (params + buffers), the protocol round id, the fault-plan ticket
  // counter, the virtual clock, the selection RNG stream position, every
  // client's RNG stream position, and the full obs registry. Restoring it
  // therefore makes a resumed run bit-identical to one that never stopped,
  // at any thread count — the contract the crash harness proves. The one
  // exclusion: counters under the "ckpt.restore" prefix, which record the
  // restore itself (see ckpt/obs_state.h).

  /// Serializes the simulation into an "oasis.ckpt/v1" container buffer and
  /// bumps the `ckpt.save_total` counter (before capturing obs, so the
  /// snapshot already counts itself).
  [[nodiscard]] tensor::ByteBuffer encode_checkpoint();

  /// Validates `bytes` exhaustively and applies it. Throws CheckpointError
  /// (kStateMismatch when the snapshot belongs to a differently configured
  /// federation) and leaves live state untouched on validation failure.
  void restore_checkpoint(const tensor::ByteBuffer& bytes);

  /// encode_checkpoint() → manager.save(protocol round); returns the path.
  std::string save_checkpoint(ckpt::CheckpointManager& manager);

  /// Restores from the manager's newest VALID generation (corrupt newer
  /// generations are skipped, see CheckpointManager::load_latest_valid) and
  /// returns the protocol round to continue from. Throws CheckpointError
  /// {kNoValidGeneration} when the directory holds nothing loadable.
  std::uint64_t resume_from(ckpt::CheckpointManager& manager);

 private:
  void apply_snapshot(const ckpt::Snapshot& snap);
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  SimulationConfig config_;
  common::Rng rng_;
  FaultPlan fault_plan_;
  DefenseStackPtr defense_;
  runtime::VirtualClock clock_;
  /// Monotone count of rounds STARTED (aborted rounds included) — the fault
  /// plan's ticket, so a retried protocol round sees fresh faults.
  std::uint64_t round_tickets_ = 0;
};

}  // namespace oasis::fl
