// Model-inconsistency attack server (Pasquini et al., CCS 2022).
//
// Under secure aggregation the server only sees Σ_j G_j, which mixes the
// victim's gradients with everyone else's. A dishonest server eludes this
// WITHOUT breaking the aggregation protocol: it sends the live malicious
// model only to the target and a "deadened" variant (malicious-layer biases
// at −∞ for ReLU, so the layer never fires) to every other cohort member.
// The non-targets' malicious-layer gradients are then exactly zero, and the
// aggregate's malicious-layer rows equal the victim's alone — gradient
// inversion proceeds as if there were no secure aggregation at all.
#pragma once

#include "fl/server.h"

namespace oasis::fl {

class InconsistentMaliciousServer : public MaliciousServer {
 public:
  /// `target` is the victim's client id; everyone else receives the
  /// deadened model. `dead_bias` must be negative enough that no input can
  /// activate the malicious layer (−1e9 dwarfs any pixel measurement).
  InconsistentMaliciousServer(std::unique_ptr<nn::Sequential> global_model,
                              real learning_rate,
                              ModelManipulator manipulator,
                              std::uint64_t target, real dead_bias = -1e9);

  const GlobalModelMessage& begin_round() override;
  const GlobalModelMessage& dispatch_to(std::uint64_t client_id) override;

  [[nodiscard]] std::uint64_t target() const { return target_; }

 private:
  std::uint64_t target_;
  real dead_bias_;
  GlobalModelMessage dead_dispatch_;  // rebuilt each round
};

}  // namespace oasis::fl
