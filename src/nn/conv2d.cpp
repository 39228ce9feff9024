#include "nn/conv2d.h"

#include <cstring>
#include <utility>

#include "nn/init.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "tensor/gemm/gemm.h"
#include "tensor/ops.h"

namespace oasis::nn {

Conv2d::Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
               index_t stride, index_t pad, common::Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      weight_("conv.weight",
              init::kaiming_uniform({out_channels, in_channels * kernel * kernel},
                                    in_channels * kernel * kernel, rng)),
      bias_("conv.bias", tensor::Tensor({out_channels})) {
  OASIS_CHECK(kernel >= 1 && stride >= 1);
}

void Conv2d::check_input(const tensor::Tensor& x) const {
  OASIS_CHECK_MSG(x.rank() == 4 && x.dim(1) == in_ch_,
                  "Conv2d: bad input " << tensor::to_string(x.shape()));
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& x, bool /*training*/) {
  check_input(x);
  cached_x_ = x;
  return forward_cached();
}

tensor::Tensor Conv2d::forward(tensor::Tensor&& x, bool /*training*/) {
  check_input(x);
  cached_x_ = std::move(x);
  return forward_cached();
}

void Conv2d::lower(index_t n, real* cols) const {
  const index_t h = cached_x_.dim(2), w = cached_x_.dim(3);
  tensor::im2col_into(cached_x_.data().data() + n * in_ch_ * h * w, in_ch_, h,
                      w, k_, k_, stride_, pad_, cols);
}

tensor::Tensor Conv2d::forward_cached() {
  const index_t batch = cached_x_.dim(0);
  const index_t oh =
      tensor::conv_out_extent(cached_x_.dim(2), k_, stride_, pad_);
  const index_t ow =
      tensor::conv_out_extent(cached_x_.dim(3), k_, stride_, pad_);
  const index_t pix = oh * ow;
  const index_t cols_rows = in_ch_ * k_ * k_;
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.conv2d.forward.calls");
    static obs::Counter& flops = obs::counter("kernel.conv2d.forward.flops");
    calls.add(1);
    flops.add(static_cast<std::uint64_t>(2 * batch * out_ch_ * cols_rows *
                                         pix));
  }

  tensor::Tensor y({batch, out_ch_, oh, ow});
  const real* pw = weight_.value.data().data();
  real* py = y.data().data();
  // Samples are independent: each writes its own output slice, lowered
  // through its thread's workspace (one sample's columns stay cache-sized),
  // so the batch loop parallelizes with no ordering effects.
  runtime::parallel_for(0, batch, 1, [&](index_t n0, index_t n1) {
    runtime::Workspace& ws = runtime::Workspace::tls();
    runtime::Workspace::Scope scope(ws);
    real* cols = ws.alloc(cols_rows * pix);
    for (index_t n = n0; n < n1; ++n) {
      lower(n, cols);
      // y slice is zero-initialized, so the accumulating GEMM leaves exactly
      // W·cols in it; the bias is then one add per output element.
      real* y_n = py + n * out_ch_ * pix;
      tensor::gemm::run(tensor::gemm::Variant::NN, out_ch_, cols_rows, pix, pw,
                        cols, y_n);
      for (index_t c = 0; c < out_ch_; ++c) {
        const real b = bias_.value[c];
        real* y_row = y_n + c * pix;
        for (index_t p = 0; p < pix; ++p) y_row[p] += b;
      }
    }
  });
  return y;
}

void Conv2d::backward_params(const tensor::Tensor& grad_out) {
  OASIS_CHECK_MSG(cached_x_.rank() == 4, "Conv2d backward before forward");
  const index_t batch = cached_x_.dim(0);
  OASIS_CHECK_MSG(grad_out.rank() == 4 && grad_out.dim(0) == batch &&
                      grad_out.dim(1) == out_ch_,
                  "Conv2d backward: bad grad "
                      << tensor::to_string(grad_out.shape()));
  const index_t pix = grad_out.dim(2) * grad_out.dim(3);
  const index_t cols_rows = in_ch_ * k_ * k_;
  OASIS_CHECK_MSG(
      grad_out.dim(2) ==
              tensor::conv_out_extent(cached_x_.dim(2), k_, stride_, pad_) &&
          grad_out.dim(3) ==
              tensor::conv_out_extent(cached_x_.dim(3), k_, stride_, pad_),
      "Conv2d backward: grad spatial extent mismatch");
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.conv2d.backward.calls");
    static obs::Counter& flops = obs::counter("kernel.conv2d.backward.flops");
    calls.add(1);
    flops.add(static_cast<std::uint64_t>(2 * batch * out_ch_ * cols_rows *
                                         pix));
  }
  const real* gy_base = grad_out.data().data();

  // Per sample, one NT GEMM — gy_n · cols_nᵀ — into its own zeroed tile,
  // followed by the sample's ascending-p bias sums. The tiles are disjoint,
  // so the samples run in parallel, each re-lowering its columns into its
  // thread's workspace.
  const index_t w_size = out_ch_ * cols_rows;
  const index_t tile_size = w_size + out_ch_;
  runtime::Workspace& ws = runtime::Workspace::tls();
  runtime::Workspace::Scope scope(ws);
  real* tiles = ws.alloc(batch * tile_size);
  runtime::parallel_for(0, batch, 1, [&](index_t n0, index_t n1) {
    runtime::Workspace& tws = runtime::Workspace::tls();
    runtime::Workspace::Scope tscope(tws);
    real* cols = tws.alloc(cols_rows * pix);
    for (index_t n = n0; n < n1; ++n) {
      const real* gy_n = gy_base + n * out_ch_ * pix;
      real* tile = tiles + n * tile_size;
      lower(n, cols);
      std::memset(tile, 0, sizeof(real) * w_size);
      tensor::gemm::run(tensor::gemm::Variant::NT, out_ch_, pix, cols_rows,
                        gy_n, cols, tile);
      for (index_t c = 0; c < out_ch_; ++c) {
        const real* gy_row = gy_n + c * pix;
        real s = 0.0;
        for (index_t p = 0; p < pix; ++p) s += gy_row[p];
        tile[w_size + c] = s;
      }
    }
  });
  // The fold runs serially in ascending n: every gradient element sums its
  // per-sample terms in one fixed order, whatever the thread count.
  real* gw = weight_.grad.data().data();
  real* gb = bias_.grad.data().data();
  for (index_t n = 0; n < batch; ++n) {
    const real* tile = tiles + n * tile_size;
    for (index_t i = 0; i < w_size; ++i) gw[i] += tile[i];
    for (index_t c = 0; c < out_ch_; ++c) gb[c] += tile[w_size + c];
  }
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_out) {
  Conv2d::backward_params(grad_out);
  const index_t batch = cached_x_.dim(0), h = cached_x_.dim(2),
                w = cached_x_.dim(3);
  const index_t pix = grad_out.dim(2) * grad_out.dim(3);
  const index_t cols_rows = in_ch_ * k_ * k_;
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& flops = obs::counter("kernel.conv2d.backward.flops");
    flops.add(static_cast<std::uint64_t>(2 * batch * out_ch_ * cols_rows *
                                         pix));
  }
  const real* gy_base = grad_out.data().data();
  const real* pw = weight_.value.data().data();

  // Input gradient, parallel over samples: each writes its own slice of the
  // zero-initialized grad_x, via a per-thread workspace column buffer.
  tensor::Tensor grad_x({batch, in_ch_, h, w});
  real* gx_base = grad_x.data().data();
  const index_t x_size = in_ch_ * h * w;
  runtime::parallel_for(0, batch, 1, [&](index_t n0, index_t n1) {
    runtime::Workspace& ws = runtime::Workspace::tls();
    runtime::Workspace::Scope scope(ws);
    real* gcols = ws.alloc(cols_rows * pix);
    for (index_t n = n0; n < n1; ++n) {
      const real* gy_n = gy_base + n * out_ch_ * pix;
      std::memset(gcols, 0, sizeof(real) * cols_rows * pix);
      tensor::gemm::run(tensor::gemm::Variant::TN, cols_rows, out_ch_, pix, pw,
                        gy_n, gcols);
      tensor::col2im_add(gcols, in_ch_, h, w, k_, k_, stride_, pad_,
                         gx_base + n * x_size);
    }
  });
  return grad_x;
}

}  // namespace oasis::nn
