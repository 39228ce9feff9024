#include "nn/dense.h"

#include <cstring>

#include "nn/init.h"
#include "runtime/workspace.h"
#include "tensor/gemm/gemm.h"
#include "tensor/ops.h"

namespace oasis::nn {

Dense::Dense(index_t in_features, index_t out_features, common::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("dense.weight",
              init::kaiming_uniform({out_features, in_features}, in_features,
                                    rng)),
      bias_("dense.bias", tensor::Tensor({out_features})) {}

tensor::Tensor Dense::forward(const tensor::Tensor& x, bool /*training*/) {
  OASIS_CHECK_MSG(x.rank() == 2 && x.dim(1) == in_,
                  "Dense(" << in_ << "->" << out_ << "): bad input "
                           << tensor::to_string(x.shape()));
  cached_input_ = x;
  const index_t batch = x.dim(0);
  // y = x · Wᵀ directly from the NT kernel — W stays in its (out×in) layout,
  // no transpose copy.
  tensor::Tensor y({batch, out_});
  tensor::gemm::run(tensor::gemm::Variant::NT, batch, in_, out_,
                    x.data().data(), weight_.value.data().data(),
                    y.data().data());
  tensor::add_row_vector(y, bias_.value);
  return y;
}

void Dense::backward_params(const tensor::Tensor& grad_out) {
  OASIS_CHECK_MSG(grad_out.rank() == 2 && grad_out.dim(1) == out_,
                  "Dense backward: bad grad "
                      << tensor::to_string(grad_out.shape()));
  OASIS_CHECK_MSG(grad_out.dim(0) == cached_input_.dim(0),
                  "Dense backward: batch mismatch");
  const index_t batch = grad_out.dim(0);
  // grad_W[o, i] = Σ_b grad_out[b, o] * x[b, i]  — the batch-summed gradient
  // the attacks invert. TN kernel: no transpose copy of grad_out, and the
  // temporary product lives in the per-thread workspace, not the heap.
  {
    runtime::Workspace& ws = runtime::Workspace::tls();
    runtime::Workspace::Scope scope(ws);
    real* tile = ws.alloc(out_ * in_);
    std::memset(tile, 0, sizeof(real) * out_ * in_);
    tensor::gemm::run(tensor::gemm::Variant::TN, out_, batch, in_,
                      grad_out.data().data(), cached_input_.data().data(),
                      tile);
    real* gw = weight_.grad.data().data();
    for (index_t i = 0; i < out_ * in_; ++i) gw[i] += tile[i];
  }
  bias_.grad += tensor::sum_rows(grad_out);
}

tensor::Tensor Dense::backward(const tensor::Tensor& grad_out) {
  Dense::backward_params(grad_out);
  // grad_x = grad_out · W.
  const index_t batch = grad_out.dim(0);
  tensor::Tensor grad_x({batch, in_});
  tensor::gemm::run(tensor::gemm::Variant::NN, batch, out_, in_,
                    grad_out.data().data(), weight_.value.data().data(),
                    grad_x.data().data());
  return grad_x;
}

}  // namespace oasis::nn
