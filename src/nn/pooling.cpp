#include "nn/pooling.h"

#include <limits>

#include "tensor/ops.h"

namespace oasis::nn {

MaxPool2d::MaxPool2d(index_t kernel, index_t stride)
    : k_(kernel), stride_(stride) {
  OASIS_CHECK(kernel >= 1 && stride >= 1);
}

tensor::Tensor MaxPool2d::forward(const tensor::Tensor& x, bool /*training*/) {
  OASIS_CHECK_MSG(x.rank() == 4,
                  "MaxPool2d: bad input " << tensor::to_string(x.shape()));
  in_shape_ = x.shape();
  const index_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t oh = tensor::conv_out_extent(h, k_, stride_, 0);
  const index_t ow = tensor::conv_out_extent(w, k_, stride_, 0);
  tensor::Tensor y({b, c, oh, ow});
  argmax_.assign(b * c * oh * ow, 0);
  for (index_t n = 0; n < b; ++n) {
    for (index_t ch = 0; ch < c; ++ch) {
      for (index_t oi = 0; oi < oh; ++oi) {
        for (index_t oj = 0; oj < ow; ++oj) {
          real best = -std::numeric_limits<real>::infinity();
          index_t best_idx = 0;
          for (index_t ki = 0; ki < k_; ++ki) {
            for (index_t kj = 0; kj < k_; ++kj) {
              const index_t si = oi * stride_ + ki;
              const index_t sj = oj * stride_ + kj;
              const index_t flat = ((n * c + ch) * h + si) * w + sj;
              const real v = x.data()[flat];
              if (v > best) {
                best = v;
                best_idx = flat;
              }
            }
          }
          const index_t out_flat = ((n * c + ch) * oh + oi) * ow + oj;
          y.data()[out_flat] = best;
          argmax_[out_flat] = best_idx;
        }
      }
    }
  }
  return y;
}

tensor::Tensor MaxPool2d::backward(const tensor::Tensor& grad_out) {
  OASIS_CHECK_MSG(grad_out.size() == argmax_.size(),
                  "MaxPool2d backward: grad size mismatch");
  tensor::Tensor grad_in(in_shape_);
  for (index_t i = 0; i < argmax_.size(); ++i) {
    grad_in.data()[argmax_[i]] += grad_out.data()[i];
  }
  return grad_in;
}

tensor::Tensor GlobalAvgPool::forward(const tensor::Tensor& x,
                                      bool /*training*/) {
  OASIS_CHECK_MSG(x.rank() == 4,
                  "GlobalAvgPool: bad input " << tensor::to_string(x.shape()));
  in_shape_ = x.shape();
  const index_t b = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  const real inv = 1.0 / static_cast<real>(hw);
  tensor::Tensor y({b, c});
  for (index_t n = 0; n < b; ++n)
    for (index_t ch = 0; ch < c; ++ch) {
      real s = 0.0;
      for (index_t p = 0; p < hw; ++p) s += x.data()[(n * c + ch) * hw + p];
      y.at2(n, ch) = s * inv;
    }
  return y;
}

tensor::Tensor GlobalAvgPool::backward(const tensor::Tensor& grad_out) {
  const index_t b = in_shape_[0], c = in_shape_[1];
  const index_t hw = in_shape_[2] * in_shape_[3];
  const real inv = 1.0 / static_cast<real>(hw);
  tensor::Tensor grad_in(in_shape_);
  for (index_t n = 0; n < b; ++n)
    for (index_t ch = 0; ch < c; ++ch) {
      const real g = grad_out.at2(n, ch) * inv;
      for (index_t p = 0; p < hw; ++p)
        grad_in.data()[(n * c + ch) * hw + p] = g;
    }
  return grad_in;
}

tensor::Tensor Flatten::forward(const tensor::Tensor& x, bool training) {
  return forward(tensor::Tensor(x), training);
}

tensor::Tensor Flatten::forward(tensor::Tensor&& x, bool /*training*/) {
  OASIS_CHECK_MSG(x.rank() >= 2,
                  "Flatten: bad input " << tensor::to_string(x.shape()));
  in_shape_ = x.shape();
  x.reshape({x.dim(0), x.size() / x.dim(0)});
  return std::move(x);
}

tensor::Tensor Flatten::backward(const tensor::Tensor& grad_out) {
  return backward(tensor::Tensor(grad_out));
}

tensor::Tensor Flatten::backward(tensor::Tensor&& grad_out) {
  grad_out.reshape(in_shape_);
  return std::move(grad_out);
}

}  // namespace oasis::nn
