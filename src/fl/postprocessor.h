// Client-side update postprocessing hook.
//
// Where OASIS preprocesses the BATCH, the classical defenses the paper's
// Related Work discusses postprocess the GRADIENTS before upload (DP noise,
// pruning/compression). This hook lets them plug into the same client so the
// baseline comparison runs over the identical protocol path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace oasis::fl {

class UpdatePostprocessor {
 public:
  UpdatePostprocessor() = default;
  UpdatePostprocessor(const UpdatePostprocessor&) = delete;
  UpdatePostprocessor& operator=(const UpdatePostprocessor&) = delete;
  virtual ~UpdatePostprocessor() = default;

  /// Maps the computed parameter gradients to the gradients actually
  /// uploaded. Called once per round with the client's RNG.
  [[nodiscard]] virtual std::vector<tensor::Tensor> process(
      std::vector<tensor::Tensor> gradients, common::Rng& rng) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

using PostprocessorPtr = std::shared_ptr<const UpdatePostprocessor>;

}  // namespace oasis::fl
