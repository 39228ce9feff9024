// Loss functions.
#pragma once

#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace oasis::nn {

/// Loss value plus the gradient w.r.t. the logits, ready to feed into
/// Module::backward of the network's last layer.
struct LossResult {
  real loss = 0.0;
  tensor::Tensor grad_logits;
};

/// How per-sample losses combine into the batch loss. `kMean` matches the
/// usual training convention; `kSum` matches the summed-gradient formulation
/// in the paper's attack analysis. The two differ only by the constant 1/B,
/// which cancels in the reconstruction ratio ΔW_i / Δb_i, so attacks succeed
/// identically under either.
enum class Reduction { kMean, kSum };

/// Softmax + cross-entropy fused (numerically stable log-sum-exp form).
class SoftmaxCrossEntropy {
 public:
  explicit SoftmaxCrossEntropy(Reduction reduction = Reduction::kMean)
      : reduction_(reduction) {}

  /// logits: [B, k]; labels: B class indices in [0, k).
  [[nodiscard]] LossResult compute(const tensor::Tensor& logits,
                                   std::span<const index_t> labels) const;

 private:
  Reduction reduction_;
};

/// One-vs-all logistic-regression loss: independent sigmoid + binary
/// cross-entropy per class, one-hot targets. This is the loss of the
/// Appendix D linear-model experiment — unlike softmax CE it is not
/// shift-invariant, so a confident (large-negative-bias) linear model has
/// per-class gradients that isolate the single sample carrying that label.
class SigmoidBce {
 public:
  explicit SigmoidBce(Reduction reduction = Reduction::kMean)
      : reduction_(reduction) {}

  /// logits: [B, k]; labels: B class indices (one-hot targets).
  [[nodiscard]] LossResult compute(const tensor::Tensor& logits,
                                   std::span<const index_t> labels) const;

 private:
  Reduction reduction_;
};

}  // namespace oasis::nn
