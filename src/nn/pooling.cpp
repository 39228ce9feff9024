#include "nn/pooling.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "tensor/ops.h"

namespace oasis::nn {

namespace {

constexpr std::uint8_t kDroppedCode = 0xFF;

// Four windows per step, one per lane. The lanes make the scan's selects
// branch-free: a scalar scan compiles to branches that random activations
// mispredict at nearly every window.
typedef double vec4 __attribute__((vector_size(32)));
typedef double vec4_u __attribute__((vector_size(32), aligned(8), may_alias));
typedef std::int64_t ivec4 __attribute__((vector_size(32)));
typedef std::uint8_t code4 __attribute__((vector_size(4)));

/// Lane l's window of a row group starting at output column j0: the row
/// tail repeats the row's last window, whose lanes then write the same
/// bytes twice.
index_t lane_col(index_t j0, index_t l, index_t ow) {
  return std::min(j0 + l, ow - 1);
}

/// One step of the window scan: tap `o` of four windows, `tap` its values.
/// The scan keeps the first strict maximum, from −inf, so NaN never wins
/// and a window with no element above −inf routes to its first element.
/// With `Relu` it scans max(v, 0), the values a ReLU in front would have
/// produced.
template <bool Relu>
void scan_tap(const vec4& tap, std::int64_t o, vec4& best, ivec4& off) {
  const vec4 zero = {0.0, 0.0, 0.0, 0.0};
  vec4 v = tap;
  if (Relu) v = v < zero ? zero : v;  // std::max(v, 0.0)
  const ivec4 gt = v > best;
  best = gt ? v : best;
  off = gt ? ivec4{o, o, o, o} : off;
}

/// The scan's start: −inf in every lane, routed to offset 0.
void scan_start(vec4& best, ivec4& off) {
  best = vec4{0.0, 0.0, 0.0, 0.0} - std::numeric_limits<real>::infinity();
  off = ivec4{0, 0, 0, 0};
}

/// The fused scan codes the windows whose routed element its ReLU dropped.
/// The ReLU keeps its input's gradient iff !(input <= 0). The routed
/// element's ReLU output is the window's value, which is ±0 exactly when
/// that input was <= 0 (NaN and −inf-only windows are kept).
void code_drops(const vec4& best, ivec4& off) {
  const std::int64_t drop = kDroppedCode;
  off = best == vec4{0.0, 0.0, 0.0, 0.0} ? ivec4{drop, drop, drop, drop} : off;
}

/// Pools one row of windows: output j's window starts at top + j·stride.
/// With `Relu` the scan is the fused pair's (scan_tap, code_drops).
template <bool Relu>
void pool_row(const real* top, index_t w, index_t k, index_t stride,
              index_t ow, real* y, std::uint8_t* code) {
  for (index_t j0 = 0; j0 < ow; j0 += 4) {
    const real* win[4];
    for (index_t l = 0; l < 4; ++l) win[l] = top + lane_col(j0, l, ow) * stride;
    vec4 best;
    ivec4 off;
    scan_start(best, off);
    for (index_t ki = 0; ki < k; ++ki) {
      for (index_t kj = 0; kj < k; ++kj) {
        const index_t e = ki * w + kj;
        scan_tap<Relu>(vec4{win[0][e], win[1][e], win[2][e], win[3][e]},
                       static_cast<std::int64_t>(ki * k + kj), best, off);
      }
    }
    if (Relu) code_drops(best, off);
    for (index_t l = 0; l < 4; ++l) {
      const index_t j = lane_col(j0, l, ow);
      y[j] = best[l];
      code[j] = static_cast<std::uint8_t>(off[l]);
    }
  }
}

/// The fused pair's input gradient for one row of windows (stride == k):
/// each window is written whole, the routed element getting the unfused
/// pair's +0.0 + g (which turns −0.0 into +0.0) and the rest +0.0.
void unpool_row(const real* g, const std::uint8_t* code, index_t w,
                index_t k, index_t ow, real* top) {
  const vec4 zero = {0.0, 0.0, 0.0, 0.0};
  for (index_t j0 = 0; j0 < ow; j0 += 4) {
    index_t j[4];
    for (index_t l = 0; l < 4; ++l) j[l] = lane_col(j0, l, ow);
    const vec4 v = vec4{g[j[0]], g[j[1]], g[j[2]], g[j[3]]} + 0.0;
    const ivec4 c = {code[j[0]], code[j[1]], code[j[2]], code[j[3]]};
    for (index_t ki = 0; ki < k; ++ki) {
      for (index_t kj = 0; kj < k; ++kj) {
        const auto o = static_cast<std::int64_t>(ki * k + kj);
        const vec4 out = c == ivec4{o, o, o, o} ? v : zero;
        for (index_t l = 0; l < 4; ++l)
          top[j[l] * k + ki * w + kj] = out[l];
      }
    }
  }
}

// ---- The 2×2 fused pair -----------------------------------------------------
//
// With k = stride = 2, four adjacent windows span eight contiguous elements
// of each input row: two vector loads per row, whose even and odd lanes are
// the windows' taps (0, w) and (1, w+1). The forward deinterleaves them in
// registers and the backward interleaves the per-tap outputs back, so
// neither gathers nor scatters a lane. A row's ragged tail is one more
// step ending at the row's last window, which rewrites the windows it
// shares with the step before it with the same bytes. Rows of fewer than
// four windows take the general row functions.

const vec4_u* at(const real* p) { return reinterpret_cast<const vec4_u*>(p); }
vec4_u* at(real* p) { return reinterpret_cast<vec4_u*>(p); }

/// Output columns j..j+3 of the fused 2×2 scan: taps in the order 0, 1, w,
/// w+1, as pool_row<true> scans them.
void pool2_step(const real* top, index_t w, index_t j, real* y,
                std::uint8_t* code) {
  const real* t = top + 2 * j;
  const vec4 t0 = *at(t), t1 = *at(t + 4);
  const vec4 b0 = *at(t + w), b1 = *at(t + w + 4);
  vec4 best;
  ivec4 off;
  scan_start(best, off);
  scan_tap<true>(__builtin_shufflevector(t0, t1, 0, 2, 4, 6), 0, best, off);
  scan_tap<true>(__builtin_shufflevector(t0, t1, 1, 3, 5, 7), 1, best, off);
  scan_tap<true>(__builtin_shufflevector(b0, b1, 0, 2, 4, 6), 2, best, off);
  scan_tap<true>(__builtin_shufflevector(b0, b1, 1, 3, 5, 7), 3, best, off);
  code_drops(best, off);
  *at(y + j) = best;
  const code4 bytes = __builtin_convertvector(off, code4);
  std::memcpy(code + j, &bytes, sizeof(bytes));
}

/// unpool_row's writes for output columns j..j+3 of a 2×2 row.
void unpool2_step(const real* g, const std::uint8_t* code, index_t w,
                  index_t j, real* top) {
  const vec4 zero = {0.0, 0.0, 0.0, 0.0};
  const vec4 v = *at(g + j) + 0.0;
  code4 bytes;
  std::memcpy(&bytes, code + j, sizeof(bytes));
  const ivec4 c = __builtin_convertvector(bytes, ivec4);
  vec4 out[4];
  for (std::int64_t o = 0; o < 4; ++o) {
    out[o] = c == ivec4{o, o, o, o} ? v : zero;
  }
  real* t = top + 2 * j;
  *at(t) = __builtin_shufflevector(out[0], out[1], 0, 4, 1, 5);
  *at(t + 4) = __builtin_shufflevector(out[0], out[1], 2, 6, 3, 7);
  *at(t + w) = __builtin_shufflevector(out[2], out[3], 0, 4, 1, 5);
  *at(t + w + 4) = __builtin_shufflevector(out[2], out[3], 2, 6, 3, 7);
}

/// The step origins of a row of ow >= 4 windows: every fourth column, the
/// last step moved back to end at column ow − 1.
template <typename Step>
void for_each_step(index_t ow, Step step) {
  for (index_t j0 = 0; j0 < ow; j0 += 4) step(std::min(j0, ow - 4));
}

}  // namespace

MaxPool2d::MaxPool2d(index_t kernel, index_t stride)
    : k_(kernel), stride_(stride) {
  OASIS_CHECK(kernel >= 1 && stride >= 1);
  OASIS_CHECK_MSG(kernel * kernel < kDroppedCode,
                  "MaxPool2d: kernel " << kernel << " above 15");
}

tensor::Tensor MaxPool2d::forward(const tensor::Tensor& x, bool /*training*/) {
  OASIS_CHECK_MSG(x.rank() == 4,
                  "MaxPool2d: bad input " << tensor::to_string(x.shape()));
  in_shape_ = x.shape();
  relu_fused_ = false;
  consumed_ = tensor::Tensor();
  const index_t planes = x.dim(0) * x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t oh = tensor::conv_out_extent(h, k_, stride_, 0);
  const index_t ow = tensor::conv_out_extent(w, k_, stride_, 0);
  tensor::Tensor y({x.dim(0), x.dim(1), oh, ow});
  code_.resize(y.size());
  const real* px = x.data().data();
  real* py = y.data().data();
  std::uint8_t* code = code_.data();
  for (index_t plane = 0; plane < planes; ++plane) {
    const real* src = px + plane * h * w;
    for (index_t oi = 0; oi < oh; ++oi, py += ow, code += ow) {
      pool_row<false>(src + oi * stride_ * w, w, k_, stride_, ow, py, code);
    }
  }
  return y;
}

tensor::Tensor MaxPool2d::backward(const tensor::Tensor& grad_out) {
  OASIS_CHECK_MSG(!relu_fused_,
                  "MaxPool2d backward after a fused ReLU forward");
  OASIS_CHECK_MSG(grad_out.size() == code_.size(),
                  "MaxPool2d backward: grad size mismatch");
  tensor::Tensor grad_in(in_shape_);
  const index_t h = in_shape_[2], w = in_shape_[3];
  const index_t oh = tensor::conv_out_extent(h, k_, stride_, 0);
  const index_t ow = tensor::conv_out_extent(w, k_, stride_, 0);
  const real* g = grad_out.data().data();
  real* gx = grad_in.data().data();
  // Ascending output order, so an input that several overlapping windows
  // route to sums their gradients in one fixed order.
  // Each window offset's displacement from the window origin.
  std::vector<index_t> delta(k_ * k_);
  for (index_t off = 0; off < delta.size(); ++off) {
    delta[off] = off / k_ * w + off % k_;
  }
  const std::uint8_t* code = code_.data();
  for (index_t plane = 0; plane < code_.size() / (oh * ow); ++plane) {
    real* dst = gx + plane * h * w;
    for (index_t oi = 0; oi < oh; ++oi) {
      real* row = dst + oi * stride_ * w;
      for (index_t oj = 0; oj < ow; ++oj, ++g, ++code) {
        row[oj * stride_ + delta[*code]] += *g;
      }
    }
  }
  return grad_in;
}

bool MaxPool2d::tiles(const tensor::Tensor& x) const {
  return fuses_relu() && x.rank() == 4 && x.dim(2) >= k_ && x.dim(3) >= k_ &&
         x.dim(2) % k_ == 0 && x.dim(3) % k_ == 0;
}

tensor::Tensor MaxPool2d::forward_relu(tensor::Tensor&& x, bool training) {
  OASIS_CHECK_MSG(tiles(x), "MaxPool2d: windows do not tile "
                                << tensor::to_string(x.shape()));
  in_shape_ = x.shape();
  relu_fused_ = true;
  const index_t planes = x.dim(0) * x.dim(1), h = x.dim(2), w = x.dim(3);
  const index_t oh = h / k_, ow = w / k_;
  tensor::Tensor y({x.dim(0), x.dim(1), oh, ow});
  code_.resize(y.size());
  const real* px = x.data().data();
  real* py = y.data().data();
  std::uint8_t* code = code_.data();
  // Output rows run across planes: with stride == k, output row r's
  // windows start at input row r·k.
  for (index_t r = 0; r < planes * oh; ++r) {
    const real* top = px + r * k_ * w;
    real* y_row = py + r * ow;
    std::uint8_t* code_row = code + r * ow;
    if (k_ == 2 && ow >= 4) {
      for_each_step(ow, [&](index_t j) {
        pool2_step(top, w, j, y_row, code_row);
      });
    } else {
      pool_row<true>(top, w, k_, k_, ow, y_row, code_row);
    }
  }
  consumed_ = training ? std::move(x) : tensor::Tensor();
  return y;
}

tensor::Tensor MaxPool2d::backward_relu(const tensor::Tensor& grad_out) {
  OASIS_CHECK_MSG(relu_fused_, "MaxPool2d backward_relu without forward_relu");
  OASIS_CHECK_MSG(grad_out.size() == code_.size(),
                  "MaxPool2d backward: grad size mismatch");
  // Every element lies in exactly one window and is written below, so the
  // consumed input's storage needs no zero fill. An eval forward kept none.
  tensor::Tensor grad_in = consumed_.shape() == in_shape_
                               ? std::move(consumed_)
                               : tensor::Tensor(in_shape_);
  consumed_ = tensor::Tensor();
  const index_t w = in_shape_[3], ow = w / k_;
  const real* g = grad_out.data().data();
  real* gx = grad_in.data().data();
  for (index_t r = 0; r < code_.size() / ow; ++r) {
    const real* g_row = g + r * ow;
    const std::uint8_t* code_row = code_.data() + r * ow;
    real* top = gx + r * k_ * w;
    if (k_ == 2 && ow >= 4) {
      for_each_step(ow, [&](index_t j) {
        unpool2_step(g_row, code_row, w, j, top);
      });
    } else {
      unpool_row(g_row, code_row, w, k_, ow, top);
    }
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
