// The client half of one round, shared by every engine (DESIGN.md §5o).
//
// run_client_round is one client's step: train, refuse, defend.
// fl::Simulation, fl::ShardedSimulation and net::FlClient all call it.
// run_client_slots is the in-process engines' batch step: it trains slots in
// parallel and delivers them serially in slot order, so what the caller
// receives is identical at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "fl/client.h"
#include "fl/defense.h"
#include "fl/fault.h"

namespace oasis::fl {

/// Client::handle_round, then `defense` (may be null) with `cohort` (empty:
/// the stack's static cohort). nullopt when the client's audit gate refused
/// the dispatched model (AuditError): no upload at all.
std::optional<ClientUpdateMessage> run_client_round(
    Client& client, const GlobalModelMessage& msg, const DefenseStack* defense,
    std::span<const std::uint64_t> cohort = {});

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
/// slot order: tallies fl.clients_trained, fl.fault.{corrupt,poison,
/// byzantine,duplicate} and fl.bytes_uploaded, and applies the slot's fault
/// (FaultPlan::apply with `ticket`, `attempt`) before `deliver`. The
/// delivery loop runs inside a `deliver_span` span when one is named.
void run_client_slots(std::span<const ClientSlot> slots,
                      const SlotTrainer& train, const FaultPlan& faults,
                      std::uint64_t ticket, index_t attempt,
                      const UpdateSink& deliver,
                      const SlotSettled& settled = {},
                      const char* deliver_span = nullptr);

}  // namespace oasis::fl
