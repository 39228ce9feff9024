#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/obs.h"
#include "tensor/gemm/gemm.h"

namespace oasis::tensor {
namespace {

void check_rank2(const Tensor& t, const char* op) {
  if (t.rank() != 2) {
    throw ShapeError(std::string(op) + ": expected rank-2, got " +
                     to_string(t.shape()));
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_rank2(a, "matmul");
  check_rank2(b, "matmul");
  const index_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  OASIS_CHECK_MSG(b.dim(0) == k, "matmul: " << to_string(a.shape()) << " · "
                                            << to_string(b.shape()));
  Tensor c({m, n});
  gemm::run(gemm::Variant::NN, m, k, n, a.data().data(), b.data().data(),
            c.data().data());
  return c;
}

Tensor transpose(const Tensor& a) {
  check_rank2(a, "transpose");
  const index_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) t.at2(j, i) = a.at2(i, j);
  return t;
}

Tensor sum_rows(const Tensor& a) {
  check_rank2(a, "sum_rows");
  const index_t m = a.dim(0), n = a.dim(1);
  Tensor s({n});
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) s[j] += a.at2(i, j);
  return s;
}

void add_row_vector(Tensor& a, const Tensor& bias) {
  check_rank2(a, "add_row_vector");
  OASIS_CHECK_MSG(bias.rank() == 1 && bias.dim(0) == a.dim(1),
                  "add_row_vector: " << to_string(a.shape()) << " + "
                                     << to_string(bias.shape()));
  const index_t m = a.dim(0), n = a.dim(1);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) a.at2(i, j) += bias[j];
}

void relu_(Tensor& a, ReluMask& mask) {
  mask.shape = a.shape();
  mask.keep.resize(a.size());
  // Raw pointers: a byte store through the vector would alias every load.
  real* v = a.data().data();
  std::uint8_t* keep = mask.keep.data();
  const index_t n = a.size();
  for (index_t i = 0; i < n; ++i) {
    keep[i] = !(v[i] <= 0.0);
    v[i] = std::max(v[i], 0.0);
  }
}

void relu_backward_(Tensor& grad, const ReluMask& mask) {
  check_same_shape(grad.shape(), mask.shape, "relu_backward");
  real* g = grad.data().data();
  const std::uint8_t* keep = mask.keep.data();
  const index_t n = grad.size();
  for (index_t i = 0; i < n; ++i) g[i] = keep[i] ? g[i] : 0.0;
}

Tensor softmax_rows(const Tensor& logits) {
  check_rank2(logits, "softmax_rows");
  const index_t m = logits.dim(0), n = logits.dim(1);
  Tensor p = logits;
  for (index_t i = 0; i < m; ++i) {
    real mx = p.at2(i, 0);
    for (index_t j = 1; j < n; ++j) mx = std::max(mx, p.at2(i, j));
    real sum = 0.0;
    for (index_t j = 0; j < n; ++j) {
      const real e = std::exp(p.at2(i, j) - mx);
      p.at2(i, j) = e;
      sum += e;
    }
    for (index_t j = 0; j < n; ++j) p.at2(i, j) /= sum;
  }
  return p;
}

Tensor log_softmax_rows(const Tensor& logits) {
  check_rank2(logits, "log_softmax_rows");
  const index_t m = logits.dim(0), n = logits.dim(1);
  Tensor out = logits;
  for (index_t i = 0; i < m; ++i) {
    real mx = out.at2(i, 0);
    for (index_t j = 1; j < n; ++j) mx = std::max(mx, out.at2(i, j));
    real sum = 0.0;
    for (index_t j = 0; j < n; ++j) sum += std::exp(out.at2(i, j) - mx);
    const real lse = mx + std::log(sum);
    for (index_t j = 0; j < n; ++j) out.at2(i, j) -= lse;
  }
  return out;
}

index_t conv_out_extent(index_t in, index_t k, index_t stride, index_t pad) {
  OASIS_CHECK_MSG(in + 2 * pad >= k,
                  "conv: kernel " << k << " larger than padded input "
                                  << in + 2 * pad);
  return (in + 2 * pad - k) / stride + 1;
}

Tensor im2col(const Tensor& image, index_t kh, index_t kw, index_t stride,
              index_t pad) {
  OASIS_CHECK_MSG(image.rank() == 3,
                  "im2col: expected [C,H,W], got " << to_string(image.shape()));
  OASIS_CHECK(stride >= 1);
  const index_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  const index_t oh = conv_out_extent(h, kh, stride, pad);
  const index_t ow = conv_out_extent(w, kw, stride, pad);
  Tensor cols({c * kh * kw, oh * ow});
  im2col_into(image.data().data(), c, h, w, kh, kw, stride, pad,
              cols.data().data());
  return cols;
}

namespace {

/// Output columns [lo, hi) of a kernel column `kj` whose source column
/// oj*stride + kj - pad lies inside [0, width); the columns outside read
/// padding.
struct ColSpan {
  index_t lo, hi;
};

ColSpan valid_cols(index_t kj, index_t stride, index_t pad, index_t width,
                   index_t ow) {
  // First oj with oj*stride + kj >= pad, and one past the last with
  // oj*stride + kj - pad <= width - 1.
  const index_t lo =
      std::min(ow, kj >= pad ? 0 : (pad - kj + stride - 1) / stride);
  const index_t hi =
      kj > width - 1 + pad
          ? 0
          : std::min(ow, (width - 1 + pad - kj) / stride + 1);
  return {lo, std::max(lo, hi)};
}

}  // namespace

void im2col_into(const real* src, index_t c, index_t h, index_t w, index_t kh,
                 index_t kw, index_t stride, index_t pad, real* dst) {
  const index_t oh = conv_out_extent(h, kh, stride, pad);
  const index_t ow = conv_out_extent(w, kw, stride, pad);
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.im2col.calls");
    calls.add(1);
  }
  const index_t out_cols = oh * ow;
  for (index_t ch = 0; ch < c; ++ch) {
    for (index_t ki = 0; ki < kh; ++ki) {
      for (index_t kj = 0; kj < kw; ++kj) {
        real* drow = dst + ((ch * kh + ki) * kw + kj) * out_cols;
        const ColSpan span = valid_cols(kj, stride, pad, w, ow);
        for (index_t oi = 0; oi < oh; ++oi) {
          real* out = drow + oi * ow;
          // Source row index may be out of bounds when padding is in effect.
          const index_t si_pad = oi * stride + ki;
          if (si_pad < pad || si_pad - pad >= h || span.lo == span.hi) {
            std::fill(out, out + ow, 0.0);
            continue;
          }
          const real* srow = src + (ch * h + si_pad - pad) * w +
                             (span.lo * stride + kj - pad);
          std::fill(out, out + span.lo, 0.0);
          if (stride == 1) {
            std::memcpy(out + span.lo, srow,
                        sizeof(real) * (span.hi - span.lo));
          } else {
            for (index_t oj = span.lo; oj < span.hi; ++oj) {
              out[oj] = srow[(oj - span.lo) * stride];
            }
          }
          std::fill(out + span.hi, out + ow, 0.0);
        }
      }
    }
  }
}

Tensor col2im(const Tensor& cols, index_t channels, index_t height,
              index_t width, index_t kh, index_t kw, index_t stride,
              index_t pad) {
  const index_t oh = conv_out_extent(height, kh, stride, pad);
  const index_t ow = conv_out_extent(width, kw, stride, pad);
  OASIS_CHECK_MSG(cols.rank() == 2 && cols.dim(0) == channels * kh * kw &&
                      cols.dim(1) == oh * ow,
                  "col2im: bad cols shape " << to_string(cols.shape()));
  Tensor image({channels, height, width});
  col2im_add(cols.data().data(), channels, height, width, kh, kw, stride, pad,
             image.data().data());
  return image;
}

void col2im_add(const real* src, index_t channels, index_t height,
                index_t width, index_t kh, index_t kw, index_t stride,
                index_t pad, real* dst) {
  const index_t oh = conv_out_extent(height, kh, stride, pad);
  const index_t ow = conv_out_extent(width, kw, stride, pad);
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.col2im.calls");
    calls.add(1);
  }
  const index_t out_cols = oh * ow;
  for (index_t ch = 0; ch < channels; ++ch) {
    for (index_t ki = 0; ki < kh; ++ki) {
      for (index_t kj = 0; kj < kw; ++kj) {
        const real* srow = src + ((ch * kh + ki) * kw + kj) * out_cols;
        const ColSpan span = valid_cols(kj, stride, pad, width, ow);
        for (index_t oi = 0; oi < oh; ++oi) {
          const index_t si_pad = oi * stride + ki;
          if (si_pad < pad || si_pad - pad >= height || span.lo == span.hi) {
            continue;
          }
          // Each image element still receives its terms in the loop order
          // of the element-wise fold; the span only drops the padding ones.
          const real* in = srow + oi * ow;
          real* drow = dst + (ch * height + si_pad - pad) * width +
                       (span.lo * stride + kj - pad);
          if (stride == 1) {
            for (index_t oj = span.lo; oj < span.hi; ++oj) {
              drow[oj - span.lo] += in[oj];
            }
          } else {
            for (index_t oj = span.lo; oj < span.hi; ++oj) {
              drow[(oj - span.lo) * stride] += in[oj];
            }
          }
        }
      }
    }
  }
}

real max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a.shape(), b.shape(), "max_abs_diff");
  real m = 0.0;
  auto pa = a.data();
  auto pb = b.data();
  for (index_t i = 0; i < pa.size(); ++i)
    m = std::max(m, std::abs(pa[i] - pb[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, real rtol, real atol) {
  if (a.shape() != b.shape()) return false;
  auto pa = a.data();
  auto pb = b.data();
  for (index_t i = 0; i < pa.size(); ++i) {
    if (std::abs(pa[i] - pb[i]) > atol + rtol * std::abs(pb[i])) return false;
  }
  return true;
}

}  // namespace oasis::tensor
