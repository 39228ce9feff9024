// The client half of one round, shared by every engine (DESIGN.md §5o).
//
// run_client_round is one client's step: train, refuse, transform, and
// serialize once. The client's own transforms (the defense stack, then a
// Byzantine or poison fault) run on its gradient tensors; only wire damage
// acts on the serialized bytes, at delivery. The in-process round loop
// (fl::ShardedSimulation, which also drives fl::Simulation) and
// net::FlClient both call it. run_client_slots is the loop's batch step: it
// trains slots in parallel and delivers them serially in slot order, so
// what the loop folds is identical at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "fl/client.h"
#include "fl/defense.h"
#include "fl/fault.h"

namespace oasis::fl {

/// What a client does to its own update between training and serializing:
/// `defense` (may be null) with `cohort` (empty: the stack's static cohort),
/// then `fault`'s Byzantine or poison transform under `faults` (may be
/// null), drawn for (`ticket`, `attempt`). Each is a pure function of its
/// seeds and (round or ticket, attempt, client), so it runs inside the
/// parallel training region.
struct ClientTransforms {
  const DefenseStack* defense = nullptr;
  std::span<const std::uint64_t> cohort{};
  const FaultPlan* faults = nullptr;
  ClientFault fault{};
  std::uint64_t ticket = 0;
  index_t attempt = 0;
};

/// Client::handle_round under `transforms`. nullopt when the client's audit
/// gate refused the dispatched model (AuditError): no upload at all.
std::optional<ClientUpdateMessage> run_client_round(
    Client& client, const GlobalModelMessage& msg,
    const ClientTransforms& transforms = {});

/// One slot of a batch: who trains, and the fault decided for this delivery.
struct ClientSlot {
  std::uint64_t client_id = 0;
  ClientFault fault;
};

/// Trains slot i (run_client_round's contract); runs concurrently.
using SlotTrainer =
    std::function<std::optional<ClientUpdateMessage>(index_t slot)>;
/// Receives each delivered update in slot order, twice for a duplicate.
using UpdateSink = std::function<void(ClientUpdateMessage&& update)>;
/// Runs after slot i is disposed, delivered or refused.
using SlotSettled = std::function<void(index_t slot)>;

/// Trains every slot under a kRoot `fl.client_round` span, then delivers in
/// slot order inside an `aggregate` span: tallies fl.clients_trained,
/// fl.fault.{corrupt,poison,byzantine,duplicate} and fl.bytes_uploaded, and
/// applies the slot's wire corruption (FaultPlan::apply with `ticket`,
/// `attempt`) before `deliver`. The trainer applies the slot's Byzantine or
/// poison fault itself (ClientTransforms).
void run_client_slots(std::span<const ClientSlot> slots,
                      const SlotTrainer& train, const FaultPlan& faults,
                      std::uint64_t ticket, index_t attempt,
                      const UpdateSink& deliver, const SlotSettled& settled);

}  // namespace oasis::fl
