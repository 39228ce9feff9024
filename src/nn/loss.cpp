#include "nn/loss.h"

#include <cmath>

#include "tensor/ops.h"

namespace oasis::nn {

LossResult SoftmaxCrossEntropy::compute(
    const tensor::Tensor& logits, std::span<const index_t> labels) const {
  OASIS_CHECK_MSG(logits.rank() == 2,
                  "SoftmaxCrossEntropy: logits "
                      << tensor::to_string(logits.shape()));
  const index_t batch = logits.dim(0), k = logits.dim(1);
  OASIS_CHECK_MSG(labels.size() == batch,
                  "SoftmaxCrossEntropy: " << labels.size() << " labels for batch "
                                          << batch);
  const tensor::Tensor log_p = tensor::log_softmax_rows(logits);

  LossResult result;
  result.grad_logits = tensor::softmax_rows(logits);
  real loss = 0.0;
  for (index_t i = 0; i < batch; ++i) {
    OASIS_CHECK_MSG(labels[i] < k, "label " << labels[i] << " >= " << k);
    loss -= log_p.at2(i, labels[i]);
    result.grad_logits.at2(i, labels[i]) -= 1.0;
  }
  if (reduction_ == Reduction::kMean) {
    loss /= static_cast<real>(batch);
    result.grad_logits *= 1.0 / static_cast<real>(batch);
  }
  result.loss = loss;
  return result;
}

LossResult SigmoidBce::compute(const tensor::Tensor& logits,
                               std::span<const index_t> labels) const {
  OASIS_CHECK_MSG(logits.rank() == 2,
                  "SigmoidBce: logits " << tensor::to_string(logits.shape()));
  const index_t batch = logits.dim(0), k = logits.dim(1);
  OASIS_CHECK_MSG(labels.size() == batch,
                  "SigmoidBce: " << labels.size() << " labels for batch "
                                 << batch);
  LossResult result;
  result.grad_logits = tensor::Tensor({batch, k});
  real loss = 0.0;
  for (index_t i = 0; i < batch; ++i) {
    OASIS_CHECK_MSG(labels[i] < k, "label " << labels[i] << " >= " << k);
    for (index_t j = 0; j < k; ++j) {
      const real z = logits.at2(i, j);
      const real y = labels[i] == j ? 1.0 : 0.0;
      // Numerically stable: log(1+e^z) = max(z,0) + log1p(e^{-|z|}).
      loss += std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::abs(z)));
      const real sigma = 1.0 / (1.0 + std::exp(-z));
      result.grad_logits.at2(i, j) = sigma - y;
    }
  }
  if (reduction_ == Reduction::kMean) {
    const real scale = 1.0 / static_cast<real>(batch * k);
    loss *= scale;
    result.grad_logits *= scale;
  }
  result.loss = loss;
  return result;
}

}  // namespace oasis::nn
