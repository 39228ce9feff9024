#include "augment/affine.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "data/image.h"

namespace oasis::augment {
namespace {

void check_square_for_quarter_turn(const tensor::Tensor& image) {
  OASIS_CHECK_MSG(image.dim(1) == image.dim(2),
                  "quarter-turn rotation requires square images, got "
                      << tensor::to_string(image.shape()));
}

}  // namespace

AffineMatrix rotation_matrix(real theta, index_t height, index_t width) {
  // Inverse map for a counter-clockwise rotation by theta about the center
  // (so rotate(img, π/2) agrees with the exact rotate90). In image row/col
  // coordinates (y grows downward) ccw means sampling the source at R(θ).
  const real cx = (static_cast<real>(width) - 1.0) / 2.0;
  const real cy = (static_cast<real>(height) - 1.0) / 2.0;
  const real c = std::cos(theta), s = std::sin(theta);
  return AffineMatrix{c,  -s, cx - c * cx + s * cy,
                      s,  c,  cy - s * cx - c * cy};
}

tensor::Tensor rotate90(const tensor::Tensor& image) {
  data::check_image(image);
  check_square_for_quarter_turn(image);
  const index_t c = image.dim(0), n = image.dim(1);
  tensor::Tensor out({c, n, n});
  // 90° counter-clockwise: out(i, j) = in(j, n-1-i).
  for (index_t ch = 0; ch < c; ++ch)
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j)
        out.at3(ch, i, j) = image.at3(ch, j, n - 1 - i);
  return out;
}

tensor::Tensor rotate180(const tensor::Tensor& image) {
  data::check_image(image);
  const index_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  tensor::Tensor out({c, h, w});
  for (index_t ch = 0; ch < c; ++ch)
    for (index_t i = 0; i < h; ++i)
      for (index_t j = 0; j < w; ++j)
        out.at3(ch, i, j) = image.at3(ch, h - 1 - i, w - 1 - j);
  return out;
}

tensor::Tensor rotate270(const tensor::Tensor& image) {
  data::check_image(image);
  check_square_for_quarter_turn(image);
  const index_t c = image.dim(0), n = image.dim(1);
  tensor::Tensor out({c, n, n});
  // 270° ccw == 90° cw: out(i, j) = in(n-1-j, i).
  for (index_t ch = 0; ch < c; ++ch)
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j)
        out.at3(ch, i, j) = image.at3(ch, n - 1 - j, i);
  return out;
}

tensor::Tensor flip_horizontal(const tensor::Tensor& image) {
  data::check_image(image);
  const index_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  tensor::Tensor out({c, h, w});
  for (index_t ch = 0; ch < c; ++ch)
    for (index_t i = 0; i < h; ++i)
      for (index_t j = 0; j < w; ++j)
        out.at3(ch, i, j) = image.at3(ch, i, w - 1 - j);
  return out;
}

tensor::Tensor flip_vertical(const tensor::Tensor& image) {
  data::check_image(image);
  const index_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  tensor::Tensor out({c, h, w});
  for (index_t ch = 0; ch < c; ++ch)
    for (index_t i = 0; i < h; ++i)
      for (index_t j = 0; j < w; ++j)
        out.at3(ch, i, j) = image.at3(ch, h - 1 - i, j);
  return out;
}

namespace {

constexpr real kPi = 3.14159265358979323846;

// Periodic (Dirichlet) sinc kernel of period n evaluated at offset t — the
// interpolator under which a circular shift of a length-n sequence is
// exactly invertible: shifting by δ and then by −δ composes to the identity
// up to floating-point rounding (the even-n Nyquist bin is carried as a
// cosine, whose |cos²(πδ)| attenuation is the only sub-ulp-breaking term).
real dirichlet(index_t n, real t) {
  t -= static_cast<real>(n) * std::round(t / static_cast<real>(n));
  if (std::abs(t) < 1e-12) return 1.0;
  const real num = std::sin(kPi * t);
  const real arg = kPi * t / static_cast<real>(n);
  if (n % 2 == 0) return num / (static_cast<real>(n) * std::tan(arg));
  return num / (static_cast<real>(n) * std::sin(arg));
}

// Circular shift of length-n sequences by `delta`,
// out[i] = Σ_k in[k] · D_n(i − delta − k). Shears prepare it once per row
// (or column) and apply it to that row in every channel, since delta
// depends only on the row index.
class CircularShift {
 public:
  explicit CircularShift(index_t n) : n_(n), taps_(2 * n), out_(n) {}

  void set_delta(real delta) {
    // Integer shifts are pure (exact) rotations of the sequence.
    const real rounded = std::round(delta);
    whole_ = std::abs(delta - rounded) < 1e-12;
    if (whole_) {
      const auto n = static_cast<std::ptrdiff_t>(n_);
      rotate_by_ = static_cast<index_t>(
          (static_cast<std::ptrdiff_t>(rounded) % n + n) % n);
      return;
    }
    // The kernel laid out twice, taps[m] = D_n(m mod n − delta) for m in
    // [0, 2n), so tap (i − k) mod n is taps[i − k + n] with no modulo.
    for (index_t j = 0; j < n_; ++j) {
      taps_[j] = taps_[j + n_] = dirichlet(n_, static_cast<real>(j) - delta);
    }
  }

  // Shifts the sequence at `seq` (elements `stride` apart) in place.
  void apply(real* seq, index_t stride) {
    real* out = out_.data();
    if (whole_) {
      for (index_t i = 0; i < n_; ++i) {
        const index_t k = i >= rotate_by_ ? i - rotate_by_ : i + n_ - rotate_by_;
        out[i] = seq[k * stride];
      }
    } else {
      // k outer, i inner: every out[i] still sums its terms in ascending k
      // with one rounding per term, and the inner loop vectorizes. The
      // explicit fma pins the bytes regardless of -ffp-contract and -march.
      std::fill(out_.begin(), out_.end(), 0.0);
      for (index_t k = 0; k < n_; ++k) {
        const real v = seq[k * stride];
        const real* t = taps_.data() + n_ - k;
        for (index_t i = 0; i < n_; ++i) out[i] = std::fma(v, t[i], out[i]);
      }
    }
    for (index_t i = 0; i < n_; ++i) seq[i * stride] = out[i];
  }

 private:
  index_t n_;
  bool whole_ = false;
  index_t rotate_by_ = 0;
  std::vector<real> taps_;
  std::vector<real> out_;
};

// In-place horizontal shear x' = x + a·(y − cy): every row circularly
// shifted through the Dirichlet interpolator.
void shear_rows(tensor::Tensor& image, real a) {
  const index_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  const real cy = (static_cast<real>(h) - 1.0) / 2.0;
  CircularShift shift(w);
  real* base = image.data().data();
  for (index_t y = 0; y < h; ++y) {
    shift.set_delta(a * (static_cast<real>(y) - cy));
    for (index_t ch = 0; ch < c; ++ch) shift.apply(base + (ch * h + y) * w, 1);
  }
}

// In-place vertical shear y' = y + b·(x − cx): every column shifted.
void shear_cols(tensor::Tensor& image, real b) {
  const index_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  const real cx = (static_cast<real>(w) - 1.0) / 2.0;
  CircularShift shift(h);
  real* base = image.data().data();
  for (index_t x = 0; x < w; ++x) {
    shift.set_delta(b * (static_cast<real>(x) - cx));
    for (index_t ch = 0; ch < c; ++ch) shift.apply(base + ch * h * w + x, w);
  }
}

// Zeroes every pixel whose inverse-map source falls outside the frame,
// recovering the zero-fill semantics of a conventional resampling warp
// (minor rotation loses corner mass — deliberately NOT mean-preserving).
void mask_out_of_frame(tensor::Tensor& image, const AffineMatrix& m) {
  const index_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  constexpr real kEps = 1e-9;
  for (index_t y = 0; y < h; ++y) {
    for (index_t x = 0; x < w; ++x) {
      const real sx = m[0] * x + m[1] * y + m[2];
      const real sy = m[3] * x + m[4] * y + m[5];
      if (sx >= -kEps && sx <= static_cast<real>(w) - 1.0 + kEps &&
          sy >= -kEps && sy <= static_cast<real>(h) - 1.0 + kEps) {
        continue;
      }
      for (index_t ch = 0; ch < c; ++ch) image.at3(ch, y, x) = 0.0;
    }
  }
}

}  // namespace

tensor::Tensor rotate(const tensor::Tensor& image, real theta) {
  data::check_image(image);
  // Reduce to (−π, π] and take exact quarter-turn permutations when the
  // angle lands on one (grid points map to grid points).
  real t = std::remainder(theta, 2.0 * kPi);
  constexpr real kSnap = 1e-12;
  const bool square = image.dim(1) == image.dim(2);
  if (std::abs(t) < kSnap) return image;
  if (std::abs(std::abs(t) - kPi) < kSnap) return rotate180(image);
  if (square && std::abs(t - kPi / 2.0) < kSnap) return rotate90(image);
  if (square && std::abs(t + kPi / 2.0) < kSnap) return rotate270(image);
  // Pull large angles into (−π/2, π/2) through exact quarter turns so the
  // shear factors stay small (tan(t/2) < 1).
  tensor::Tensor base = image;
  if (square && t > kPi / 2.0) {
    base = rotate90(base);
    t -= kPi / 2.0;
  } else if (square && t < -kPi / 2.0) {
    base = rotate270(base);
    t += kPi / 2.0;
  }
  // Three-shear rotation (Unser/Paeth), each shear an exactly invertible
  // circular sinc shift: rotate(−θ) undoes rotate(θ) to machine precision
  // on the unmasked interior — the inverse-consistency property the
  // round-trip sweeps check, which no local resampling kernel can provide
  // on broadband (noise) images.
  const real alpha = std::tan(t / 2.0);
  const real beta = -std::sin(t);
  shear_rows(base, alpha);
  shear_cols(base, beta);
  shear_rows(base, alpha);
  mask_out_of_frame(base,
                    rotation_matrix(theta, image.dim(1), image.dim(2)));
  return base;
}

tensor::Tensor shear(const tensor::Tensor& image, real mu) {
  data::check_image(image);
  // Single exact circular shear pass: x' = x + mu·(y − cy). Row content
  // wraps instead of vanishing, so shear(−mu) inverts shear(mu) exactly and
  // every row keeps its mean bit-for-bit.
  tensor::Tensor out = image;
  shear_rows(out, mu);
  return out;
}

}  // namespace oasis::augment
