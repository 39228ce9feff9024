#include "fl/client_step.h"

#include <vector>

#include "common/error.h"
#include "obs/obs.h"
#include "runtime/parallel.h"

namespace oasis::fl {

std::optional<ClientUpdateMessage> run_client_round(
    Client& client, const GlobalModelMessage& msg,
    const ClientTransforms& t) {
  const GradientTransform transform = [&](std::vector<tensor::Tensor>& g) {
    if (t.defense != nullptr) {
      t.defense->apply(g, DefenseContext{msg.round, client.id(), t.cohort});
    }
    if (t.faults != nullptr) {
      t.faults->apply(g, t.fault, t.ticket, t.attempt, client.id());
    }
  };
  try {
    return client.handle_round(msg, transform);
  } catch (const AuditError&) {
    // Not a retry candidate: re-auditing the same model re-refuses.
    return std::nullopt;
  }
}

void run_client_slots(std::span<const ClientSlot> slots,
                      const SlotTrainer& train, const FaultPlan& faults,
                      std::uint64_t ticket, index_t attempt,
                      const UpdateSink& deliver, const SlotSettled& settled) {
  static obs::Counter& trained = obs::counter("fl.clients_trained");
  static obs::Counter& bytes_up = obs::counter("fl.bytes_uploaded");
  static obs::Counter& corrupted = obs::counter("fl.fault.corrupt");
  static obs::Counter& poisoned = obs::counter("fl.fault.poison");
  static obs::Counter& byzantine = obs::counter("fl.fault.byzantine");
  static obs::Counter& duplicates = obs::counter("fl.fault.duplicate");

  // Refusals stay inside the region as empty slots (no cross-region throw)
  // and are tallied serially below.
  std::vector<std::optional<ClientUpdateMessage>> updates(slots.size());
  runtime::parallel_for(0, slots.size(), 1, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      // kRoot: the span path must not depend on whether this chunk runs
      // inline (threads=1) or on a pool worker.
      const obs::ScopedTimer client_span("fl.client_round",
                                         obs::ScopedTimer::kRoot);
      updates[i] = train(i);
    }
  });
  index_t refusals = 0;
  for (const auto& u : updates) refusals += u ? 0 : 1;
  trained.add(slots.size() - refusals);

  const obs::ScopedTimer span("aggregate");
  for (index_t i = 0; i < slots.size(); ++i) {
    const ClientSlot& s = slots[i];
    if (updates[i]) {
      ClientUpdateMessage& update = *updates[i];
      if (s.fault.kind == FaultKind::kCorrupt) corrupted.add(1);
      if (s.fault.kind == FaultKind::kPoison) poisoned.add(1);
      if (s.fault.kind == FaultKind::kByzantine) byzantine.add(1);
      faults.apply(update, s.fault, ticket, attempt, s.client_id);
      bytes_up.add(update.gradients.size());
      if (s.fault.kind == FaultKind::kCorrupt &&
          s.fault.corruption == CorruptionKind::kDuplicate) {
        duplicates.add(1);
        deliver(ClientUpdateMessage(update));
      }
      deliver(std::move(update));
    }
    settled(i);
  }
}

}  // namespace oasis::fl
