#include "nn/conv2d.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "nn/init.h"
#include "obs/obs.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "tensor/gemm/gemm.h"
#include "tensor/ops.h"

namespace oasis::nn {

namespace {

typedef real vec4 __attribute__((vector_size(32)));
typedef real vec4_u __attribute__((vector_size(32), aligned(8), may_alias));
static_assert(tensor::gemm::kNR == 2 * 4, "a packed row is two vec4");

/// sums[c] = Σ_p gy[c][p], each channel's chain over p ascending from +0.0,
/// read from gyᵀ (pix × channels) packed as GEMM B panels: a panel row holds
/// kNR channels' values at one pixel, so the chains run kNR lanes at a time
/// and the padding lanes (zero sums) are dropped.
void bias_sums(const real* bp, index_t pix, index_t channels, real* sums) {
  using tensor::gemm::kNR;
  for (index_t c0 = 0; c0 < channels; c0 += kNR) {
    const real* panel = bp + c0 * pix;
    vec4 lo = {0.0, 0.0, 0.0, 0.0}, hi = lo;
    for (index_t p = 0; p < pix; ++p) {
      lo += *reinterpret_cast<const vec4_u*>(panel + p * kNR);
      hi += *reinterpret_cast<const vec4_u*>(panel + p * kNR + 4);
    }
    const index_t live = std::min(kNR, channels - c0);
    for (index_t j = 0; j < live; ++j) sums[c0 + j] = j < 4 ? lo[j] : hi[j - 4];
  }
}

}  // namespace

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

tensor::Tensor Conv2d::forward_cached() {
  const index_t batch = cached_x_.dim(0), h = cached_x_.dim(2),
                w = cached_x_.dim(3);
  const index_t oh = tensor::conv_out_extent(h, k_, stride_, pad_);
  const index_t ow = tensor::conv_out_extent(w, k_, stride_, pad_);
  const index_t pix = oh * ow;
  const index_t taps = in_ch_ * k_ * k_;
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.conv2d.forward.calls");
    static obs::Counter& flops = obs::counter("kernel.conv2d.forward.flops");
    calls.add(1);
    flops.add(static_cast<std::uint64_t>(2 * batch * out_ch_ * taps * pix));
  }

  tensor::Tensor y({batch, out_ch_, oh, ow});
  const real* px = cached_x_.data().data();
  const real* pb = bias_.value.data().data();
  real* py = y.data().data();
  // Roles swapped (im2row): per sample outᵀ(pix×out) = colsᵀ·Wᵀ, so the
  // pixels fill whole 6-row register tiles. Wᵀ is packed once per call and
  // read by every sample.
  runtime::Workspace& ws = runtime::Workspace::tls();
  runtime::Workspace::Scope scope(ws);
  real* wp = ws.alloc(tensor::gemm::packed_b_size(taps, out_ch_));
  tensor::gemm::pack_b(tensor::gemm::Variant::NT, taps, out_ch_,
                       weight_.value.data().data(), wp);
  // Samples are independent: each lowers its pixels straight into packed
  // panels in its thread's workspace and writes its own output slice, so the
  // batch loop parallelizes with no ordering effects.
  runtime::parallel_for(0, batch, 1, [&](index_t n0, index_t n1) {
    runtime::Workspace& tws = runtime::Workspace::tls();
    runtime::Workspace::Scope tscope(tws);
    real* ap = tws.alloc(tensor::gemm::packed_a_size(pix, taps));
    real* yt = tws.alloc(pix * out_ch_);
    for (index_t n = n0; n < n1; ++n) {
      tensor::im2row_packed(px + n * in_ch_ * h * w, in_ch_, h, w, k_,
                            stride_, pad_, ap);
      // From +0.0 the accumulating GEMM leaves exactly the ascending-k chain
      // of W·cols in yt; the bias is then one add per output element, in the
      // write-back that transposes yt into the sample's CHW slice.
      std::fill(yt, yt + pix * out_ch_, 0.0);
      tensor::gemm::run_packed(pix, taps, out_ch_, ap, wp, yt);
      real* y_n = py + n * out_ch_ * pix;
      for (index_t c = 0; c < out_ch_; ++c) {
        const real b = pb[c];
        real* y_row = y_n + c * pix;
        for (index_t p = 0; p < pix; ++p) y_row[p] = yt[p * out_ch_ + c] + b;
      }
    }
  });
  return y;
}

void Conv2d::backward_params(const tensor::Tensor& grad_out) {
  OASIS_CHECK_MSG(cached_x_.rank() == 4, "Conv2d backward before forward");
  const index_t batch = cached_x_.dim(0), h = cached_x_.dim(2),
                w = cached_x_.dim(3);
  OASIS_CHECK_MSG(grad_out.rank() == 4 && grad_out.dim(0) == batch &&
                      grad_out.dim(1) == out_ch_,
                  "Conv2d backward: bad grad "
                      << tensor::to_string(grad_out.shape()));
  const index_t pix = grad_out.dim(2) * grad_out.dim(3);
  const index_t taps = in_ch_ * k_ * k_;
  OASIS_CHECK_MSG(
      grad_out.dim(2) == tensor::conv_out_extent(h, k_, stride_, pad_) &&
          grad_out.dim(3) == tensor::conv_out_extent(w, k_, stride_, pad_),
      "Conv2d backward: grad spatial extent mismatch");
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.conv2d.backward.calls");
    static obs::Counter& flops = obs::counter("kernel.conv2d.backward.flops");
    calls.add(1);
    flops.add(static_cast<std::uint64_t>(2 * batch * out_ch_ * taps * pix));
  }
  const real* px = cached_x_.data().data();
  const real* gy_base = grad_out.data().data();

  // Per sample, one product with the roles swapped — gWᵀ(taps×out) =
  // cols·gyᵀ, the chain over p ascending as in gy·colsᵀ — into its own
  // zeroed tile, followed by the sample's bias sums. The tiles are
  // disjoint, so the samples run in parallel, each lowering its columns and
  // packing its gyᵀ in its thread's workspace.
  const index_t w_size = out_ch_ * taps;
  const index_t tile_size = w_size + out_ch_;
  runtime::Workspace& ws = runtime::Workspace::tls();
  runtime::Workspace::Scope scope(ws);
  real* tiles = ws.alloc(batch * tile_size);
  runtime::parallel_for(0, batch, 1, [&](index_t n0, index_t n1) {
    runtime::Workspace& tws = runtime::Workspace::tls();
    runtime::Workspace::Scope tscope(tws);
    real* ap = tws.alloc(tensor::gemm::packed_a_size(taps, pix));
    real* bp = tws.alloc(tensor::gemm::packed_b_size(pix, out_ch_));
    for (index_t n = n0; n < n1; ++n) {
      const real* gy_n = gy_base + n * out_ch_ * pix;
      real* tile = tiles + n * tile_size;
      tensor::im2col_packed(px + n * in_ch_ * h * w, in_ch_, h, w, k_,
                            stride_, pad_, ap);
      tensor::gemm::pack_b(tensor::gemm::Variant::NT, pix, out_ch_, gy_n, bp);
      std::fill(tile, tile + w_size, 0.0);
      tensor::gemm::run_packed(taps, pix, out_ch_, ap, bp, tile);
      bias_sums(bp, pix, out_ch_, tile + w_size);
    }
  });
  // The fold runs serially in ascending n: every gradient element sums its
  // per-sample terms in one fixed order, whatever the thread count. The
  // tiles hold gWᵀ, so the fold transposes them into gW.
  real* gw = weight_.grad.data().data();
  real* gb = bias_.grad.data().data();
  for (index_t n = 0; n < batch; ++n) {
    const real* tile = tiles + n * tile_size;
    for (index_t c = 0; c < out_ch_; ++c) {
      real* gw_row = gw + c * taps;
      for (index_t kk = 0; kk < taps; ++kk)
        gw_row[kk] += tile[kk * out_ch_ + c];
    }
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
