#include "fl/inconsistent_server.h"

#include "nn/dense.h"
#include "nn/model_io.h"

namespace oasis::fl {

InconsistentMaliciousServer::InconsistentMaliciousServer(
    std::unique_ptr<nn::Sequential> global_model, real learning_rate,
    ModelManipulator manipulator, std::uint64_t target, real dead_bias)
    : MaliciousServer(std::move(global_model), learning_rate,
                      std::move(manipulator)),
      target_(target),
      dead_bias_(dead_bias) {
  OASIS_CHECK_MSG(dead_bias_ < 0.0, "dead bias must be negative");
}

const GlobalModelMessage& InconsistentMaliciousServer::begin_round() {
  // Manipulate + serialize the live malicious model (for the target).
  const GlobalModelMessage& live = MaliciousServer::begin_round();

  // Deaden a copy for everyone else: push the malicious layer's biases so
  // far negative that its ReLU can never fire, leaving those clients'
  // malicious-layer gradients identically zero.
  auto state = nn::snapshot_state(*model_);
  {
    // Find the first Dense the same way the attacks do and overwrite its
    // bias inside the snapshot. Parameters precede buffers in the snapshot,
    // in model order: locate the bias by matching the Dense's tensor.
    for (index_t i = 0; i < model_->size(); ++i) {
      if (auto* dense = dynamic_cast<nn::Dense*>(&model_->at(i))) {
        // Position of this Dense's bias within parameters().
        const auto params = model_->parameters();
        for (std::size_t p = 0; p < params.size(); ++p) {
          if (params[p] == &dense->bias()) {
            state[p].fill(dead_bias_);
            break;
          }
        }
        break;
      }
    }
  }
  dead_dispatch_.round = live.round;
  dead_dispatch_.model_state = tensor::serialize_tensors(state);
  return live;
}

const GlobalModelMessage& InconsistentMaliciousServer::dispatch_to(
    std::uint64_t client_id) {
  return client_id == target_ ? MaliciousServer::dispatch_to(client_id)
                              : dead_dispatch_;
}

}  // namespace oasis::fl
