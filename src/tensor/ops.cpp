#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "obs/obs.h"
#include "runtime/workspace.h"
#include "tensor/gemm/gemm.h"

namespace oasis::tensor {
namespace {

// Four doubles, and the same vector at double alignment, aliasing double,
// for loads and stores in place.
typedef real vec4 __attribute__((vector_size(32)));
typedef real vec4_u __attribute__((vector_size(32), aligned(8), may_alias));

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
  transpose_block(a.data().data(), m, n, n, t.data().data(), m);
  return t;
}

namespace {

/// One 4×4 block: rows s, s + lds, … become columns of d.
void transpose4x4(const real* s, index_t lds, real* d, index_t ldd) {
  const vec4 r0 = *reinterpret_cast<const vec4_u*>(s);
  const vec4 r1 = *reinterpret_cast<const vec4_u*>(s + lds);
  const vec4 r2 = *reinterpret_cast<const vec4_u*>(s + 2 * lds);
  const vec4 r3 = *reinterpret_cast<const vec4_u*>(s + 3 * lds);
  // Even and odd lanes of the row pairs (0, 1) and (2, 3), then their low
  // and high halves.
  const vec4 e01 = __builtin_shufflevector(r0, r1, 0, 4, 2, 6);
  const vec4 o01 = __builtin_shufflevector(r0, r1, 1, 5, 3, 7);
  const vec4 e23 = __builtin_shufflevector(r2, r3, 0, 4, 2, 6);
  const vec4 o23 = __builtin_shufflevector(r2, r3, 1, 5, 3, 7);
  *reinterpret_cast<vec4_u*>(d) = __builtin_shufflevector(e01, e23, 0, 1, 4, 5);
  *reinterpret_cast<vec4_u*>(d + ldd) =
      __builtin_shufflevector(o01, o23, 0, 1, 4, 5);
  *reinterpret_cast<vec4_u*>(d + 2 * ldd) =
      __builtin_shufflevector(e01, e23, 2, 3, 6, 7);
  *reinterpret_cast<vec4_u*>(d + 3 * ldd) =
      __builtin_shufflevector(o01, o23, 2, 3, 6, 7);
}

}  // namespace

void transpose_block(const real* src, index_t rows, index_t cols,
                     index_t lds, real* dst, index_t ldd) {
  const index_t rows4 = rows / 4 * 4, cols4 = cols / 4 * 4;
  // Source columns outermost: a GEMM panel (a few rows of B, kc columns)
  // then fills whole destination rows before moving on.
  for (index_t j = 0; j < cols4; j += 4)
    for (index_t i = 0; i < rows4; i += 4)
      transpose4x4(src + i * lds + j, lds, dst + j * ldd + i, ldd);
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = i < rows4 ? cols4 : 0; j < cols; ++j)
      dst[j * ldd + i] = src[i * lds + j];
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

/// One image's convolution geometry for the panel lowerings. With padding,
/// `img` is a zero-padded copy of the [C, H, W] image in the calling
/// thread's workspace, so every tap of every output pixel reads in bounds
/// and the lowering loops carry no bounds tests.
struct Lowering {
  const real* img;
  index_t k, stride, hp, wp, oh, ow;

  /// Offset of tap kk = (channel, ki, kj) from its pixel's window origin.
  [[nodiscard]] index_t tap(index_t kk) const {
    const index_t ch = kk / (k * k), r = kk % (k * k);
    return (ch * hp + r / k) * wp + r % k;
  }
  /// Offset of output pixel p's window origin.
  [[nodiscard]] index_t pixel(index_t p) const {
    return (p / ow) * stride * wp + (p % ow) * stride;
  }
};

Lowering lower_setup(const real* src, index_t c, index_t h, index_t w,
                     index_t k, index_t stride, index_t pad,
                     runtime::Workspace& ws) {
  Lowering g{src,
             k,
             stride,
             h + 2 * pad,
             w + 2 * pad,
             conv_out_extent(h, k, stride, pad),
             conv_out_extent(w, k, stride, pad)};
  if (obs::kernel_metrics_enabled()) {
    static obs::Counter& calls = obs::counter("kernel.im2col.calls");
    calls.add(1);
  }
  if (pad == 0) return g;
  real* padded = ws.alloc(c * g.hp * g.wp);
  std::fill(padded, padded + c * g.hp * g.wp, 0.0);
  for (index_t ch = 0; ch < c; ++ch)
    for (index_t i = 0; i < h; ++i)
      std::memcpy(padded + (ch * g.hp + i + pad) * g.wp + pad,
                  src + (ch * h + i) * w, sizeof(real) * w);
  g.img = padded;
  return g;
}

static_assert(gemm::kMR == 6, "transpose_taps interleaves six taps");

/// Writes the 4·kMR values dst[q·kMR + r] = s[r][at + q] (q < 4, r < kMR;
/// taps r >= live read as zero): four adjacent pixels' tap groups.
void transpose_taps(const real* const* s, index_t live, index_t at,
                    real* dst) {
  vec4 v[6];
  for (index_t r = 0; r < 6; ++r) {
    v[r] = r < live ? vec4(*reinterpret_cast<const vec4_u*>(s[r] + at))
                    : vec4{0.0, 0.0, 0.0, 0.0};
  }
  // t[2i] = {v_a[0], v_b[0], v_a[2], v_b[2]}, t[2i+1] the odd lanes, for
  // the tap pairs (a, b) = (0, 1), (2, 3), (4, 5).
  vec4 t[6];
  for (index_t i = 0; i < 3; ++i) {
    t[2 * i] = __builtin_shufflevector(v[2 * i], v[2 * i + 1], 0, 4, 2, 6);
    t[2 * i + 1] =
        __builtin_shufflevector(v[2 * i], v[2 * i + 1], 1, 5, 3, 7);
  }
  // Low halves {x[0], x[1], y[0], y[1]} and high halves {x[2], x[3], y[2],
  // y[3]} of pairs of t: pixel 0 taps 0-3; pixel 0 taps 4-5 and pixel 1
  // taps 0-1; pixel 1 taps 2-5; then the same for pixels 2 and 3.
  vec4_u* out = reinterpret_cast<vec4_u*>(dst);
  out[0] = __builtin_shufflevector(t[0], t[2], 0, 1, 4, 5);
  out[1] = __builtin_shufflevector(t[4], t[1], 0, 1, 4, 5);
  out[2] = __builtin_shufflevector(t[3], t[5], 0, 1, 4, 5);
  out[3] = __builtin_shufflevector(t[0], t[2], 2, 3, 6, 7);
  out[4] = __builtin_shufflevector(t[4], t[1], 2, 3, 6, 7);
  out[5] = __builtin_shufflevector(t[3], t[5], 2, 3, 6, 7);
}

}  // namespace

void im2row_packed(const real* src, index_t c, index_t h, index_t w,
                   index_t k, index_t stride, index_t pad, real* ap) {
  using gemm::kMR;
  runtime::Workspace& ws = runtime::Workspace::tls();
  runtime::Workspace::Scope scope(ws);
  const Lowering g = lower_setup(src, c, h, w, k, stride, pad, ws);
  const index_t pix = g.oh * g.ow, taps = c * k * k;
  for (index_t p0 = 0; p0 < pix; p0 += kMR) {
    real* dst = ap + p0 * taps;  // panel p0 / kMR
    const index_t live = std::min(kMR, pix - p0);
    if (live == kMR && p0 % g.ow + kMR <= g.ow && stride == 1) {
      // The panel's pixels run along one output row: each tap reads kMR
      // adjacent source elements.
      const real* base = g.img + g.pixel(p0);
      for (index_t ch = 0; ch < c; ++ch)
        for (index_t ki = 0; ki < k; ++ki) {
          const real* row = base + (ch * g.hp + ki) * g.wp;
          for (index_t kj = 0; kj < k; ++kj, dst += kMR)
            std::memcpy(dst, row + kj, sizeof(real) * kMR);
        }
      continue;
    }
    index_t at[kMR];
    for (index_t r = 0; r < live; ++r) at[r] = g.pixel(p0 + r);
    for (index_t kk = 0; kk < taps; ++kk, dst += kMR) {
      const real* s = g.img + g.tap(kk);
      for (index_t r = 0; r < live; ++r) dst[r] = s[at[r]];
      for (index_t r = live; r < kMR; ++r) dst[r] = 0.0;
    }
  }
}

void im2col_packed(const real* src, index_t c, index_t h, index_t w,
                   index_t k, index_t stride, index_t pad, real* ap) {
  using gemm::kMR;
  runtime::Workspace& ws = runtime::Workspace::tls();
  runtime::Workspace::Scope scope(ws);
  const Lowering g = lower_setup(src, c, h, w, k, stride, pad, ws);
  const index_t pix = g.oh * g.ow, taps = c * k * k;
  for (index_t kk0 = 0; kk0 < taps; kk0 += kMR) {
    real* dst = ap + kk0 * pix;  // panel kk0 / kMR
    const index_t live = std::min(kMR, taps - kk0);
    const real* s[kMR];
    for (index_t r = 0; r < live; ++r) s[r] = g.img + g.tap(kk0 + r);
    for (index_t oi = 0; oi < g.oh; ++oi) {
      const index_t row = oi * stride * g.wp;
      index_t oj = 0;
      if (stride == 1) {
        // Four pixels at a time: one vector of each tap's row, transposed
        // into the four pixels' kMR-tap groups.
        for (; oj + 4 <= g.ow; oj += 4, dst += 4 * kMR) {
          transpose_taps(s, live, row + oj, dst);
        }
      }
      for (; oj < g.ow; ++oj, dst += kMR) {
        const index_t at = row + oj * stride;
        for (index_t r = 0; r < live; ++r) dst[r] = s[r][at];
        for (index_t r = live; r < kMR; ++r) dst[r] = 0.0;
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
