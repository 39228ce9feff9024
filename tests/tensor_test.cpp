// Unit tests for the tensor engine: construction, arithmetic, matmul
// variants, im2col/col2im adjointness, reductions, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "nn/model_io.h"
#include "nn/models.h"
#include "tensor/gemm/gemm.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace oasis::tensor {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (const auto v : t.data()) EXPECT_EQ(v, 0.0);
}

TEST(Tensor, FromValuesAndAt) {
  Tensor t({2, 2}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(t.at({0, 0}), 1.0);
  EXPECT_EQ(t.at({0, 1}), 2.0);
  EXPECT_EQ(t.at({1, 0}), 3.0);
  EXPECT_EQ(t.at2(1, 1), 4.0);
}

TEST(Tensor, ShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0, 2.0}), Error);
  Tensor a({2, 2});
  Tensor b({2, 3});
  EXPECT_THROW(a += b, ShapeError);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at({2, 0}), Error);
  EXPECT_THROW(t.at({0, 0, 0}), Error);
}

TEST(Tensor, ArithmeticOps) {
  Tensor a({3}, {1.0, 2.0, 3.0});
  Tensor b({3}, {4.0, 5.0, 6.0});
  Tensor c = a + b;
  EXPECT_EQ(c[0], 5.0);
  EXPECT_EQ(c[2], 9.0);
  c -= a;
  EXPECT_EQ(c[1], 5.0);
  c *= 2.0;
  EXPECT_EQ(c[2], 12.0);
  c.add_scaled_(a, -1.0);
  EXPECT_EQ(c[0], 7.0);
  Tensor d = a;
  d.mul_(b);
  EXPECT_EQ(d[1], 10.0);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, {3.0, -1.0, 4.0, 2.0});
  EXPECT_DOUBLE_EQ(t.sum(), 8.0);
  EXPECT_DOUBLE_EQ(t.mean(), 2.0);
  EXPECT_DOUBLE_EQ(t.min(), -1.0);
  EXPECT_DOUBLE_EQ(t.max(), 4.0);
  EXPECT_EQ(t.argmax(), 2u);
  EXPECT_DOUBLE_EQ(t.norm(), std::sqrt(9.0 + 1.0 + 16.0 + 4.0));
}

TEST(Tensor, ReshapeAndSlice) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at2(1, 0), 3.0);
  EXPECT_THROW(t.reshaped({4, 2}), Error);
  Tensor row = t.row(1);
  EXPECT_EQ(row.shape(), (Shape{3}));
  EXPECT_EQ(row[0], 4.0);
  Tensor s = t.slice(0);
  EXPECT_EQ(s.shape(), (Shape{3}));
  EXPECT_EQ(s[2], 3.0);
}

TEST(Ops, MatmulKnownValues) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_DOUBLE_EQ(c.at2(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at2(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at2(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at2(1, 1), 154.0);
}

TEST(Ops, MatmulShapeMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Ops, TransposedVariantsAgreeWithExplicitTranspose) {
  common::Rng rng(7);
  Tensor a = Tensor::randn({5, 4}, rng);
  Tensor b = Tensor::randn({5, 6}, rng);
  // TN: aᵀ(4×5) · b(5×6) == transpose(a) @ b
  Tensor tn({4, 6});
  gemm::run(gemm::Variant::TN, 4, 5, 6, a.data().data(), b.data().data(),
            tn.data().data());
  EXPECT_TRUE(allclose(tn, matmul(transpose(a), b)));
  Tensor c = Tensor::randn({3, 4}, rng);
  Tensor d = Tensor::randn({6, 4}, rng);
  // NT: c(3×4) · dᵀ(4×6) == c @ transpose(d)
  Tensor nt({3, 6});
  gemm::run(gemm::Variant::NT, 3, 4, 6, c.data().data(), d.data().data(),
            nt.data().data());
  EXPECT_TRUE(allclose(nt, matmul(c, transpose(d))));
}

TEST(Ops, TransposeStridesRank2) {
  // Non-square so a row/column stride mix-up cannot cancel out.
  Tensor a({2, 3}, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  const Tensor t = transpose(a);
  ASSERT_EQ(t.dim(0), 3u);
  ASSERT_EQ(t.dim(1), 2u);
  for (index_t i = 0; i < 2; ++i) {
    for (index_t j = 0; j < 3; ++j) EXPECT_EQ(t.at2(j, i), a.at2(i, j));
  }
  // Row-major layout of the result: element (j, i) lives at j*2 + i.
  EXPECT_EQ(t[0], 1.0);
  EXPECT_EQ(t[1], 4.0);
  EXPECT_EQ(t[2], 2.0);
  EXPECT_EQ(t[3], 5.0);
  EXPECT_EQ(t[4], 3.0);
  EXPECT_EQ(t[5], 6.0);
  // Involution: transposing twice restores the original bits.
  const Tensor back = transpose(t);
  ASSERT_EQ(back.shape(), a.shape());
  for (index_t i = 0; i < a.size(); ++i) EXPECT_EQ(back[i], a[i]);
  EXPECT_THROW(transpose(Tensor({2, 2, 2})), ShapeError);
  EXPECT_THROW(transpose(Tensor({4})), ShapeError);
}

TEST(Ops, SumRowsAndAddRowVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = sum_rows(a);
  EXPECT_DOUBLE_EQ(s[0], 5.0);
  EXPECT_DOUBLE_EQ(s[2], 9.0);
  Tensor bias({3}, {10, 20, 30});
  add_row_vector(a, bias);
  EXPECT_DOUBLE_EQ(a.at2(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(a.at2(1, 2), 36.0);
}

TEST(Ops, ReluAndBackward) {
  Tensor a({4}, {-1.0, 0.0, 0.5, 2.0});
  ReluMask mask;
  relu_(a, mask);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[3], 2.0);
  Tensor gi({4}, {1, 1, 1, 1});
  relu_backward_(gi, mask);
  EXPECT_DOUBLE_EQ(gi[0], 0.0);
  EXPECT_DOUBLE_EQ(gi[1], 0.0);  // boundary: z == 0 gives zero grad
  EXPECT_DOUBLE_EQ(gi[2], 1.0);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  common::Rng rng(3);
  Tensor logits = Tensor::randn({4, 7}, rng, 0.0, 5.0);
  Tensor p = softmax_rows(logits);
  for (index_t i = 0; i < 4; ++i) {
    real s = 0.0;
    for (index_t j = 0; j < 7; ++j) {
      EXPECT_GE(p.at2(i, j), 0.0);
      s += p.at2(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  common::Rng rng(4);
  Tensor logits = Tensor::randn({3, 5}, rng, 0.0, 3.0);
  Tensor lp = log_softmax_rows(logits);
  Tensor p = softmax_rows(logits);
  for (index_t i = 0; i < lp.size(); ++i) {
    EXPECT_NEAR(std::exp(lp[i]), p[i], 1e-12);
  }
}

/// The plain column matrix [C*k*k, out_h*out_w] of a [C, H, W] image,
/// unpacked from the panels tensor::im2col_packed writes.
Tensor im2col(const Tensor& image, index_t k, index_t stride, index_t pad) {
  const index_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  const index_t pix =
      conv_out_extent(h, k, stride, pad) * conv_out_extent(w, k, stride, pad);
  const index_t taps = c * k * k;
  std::vector<real> panels(gemm::packed_a_size(taps, pix));
  im2col_packed(image.data().data(), c, h, w, k, stride, pad, panels.data());
  Tensor cols({taps, pix});
  for (index_t kk = 0; kk < taps; ++kk)
    for (index_t p = 0; p < pix; ++p)
      cols.at2(kk, p) =
          panels[(kk / gemm::kMR * pix + p) * gemm::kMR + kk % gemm::kMR];
  return cols;
}

TEST(Ops, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1, no padding: im2col is a reshape.
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  Tensor cols = im2col(img, 1, 1, 0);
  EXPECT_EQ(cols.shape(), (Shape{1, 4}));
  EXPECT_DOUBLE_EQ(cols.at2(0, 3), 4.0);
}

TEST(Ops, Im2ColKnownPatch) {
  // 2x2 image, 2x2 kernel: single output position contains the whole image.
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  Tensor cols = im2col(img, 2, 1, 0);
  EXPECT_EQ(cols.shape(), (Shape{4, 1}));
  EXPECT_DOUBLE_EQ(cols.at2(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cols.at2(3, 0), 4.0);
}

TEST(Ops, Im2ColPaddingProducesZeros) {
  Tensor img({1, 1, 1}, {5.0});
  Tensor cols = im2col(img, 3, 1, 1);
  EXPECT_EQ(cols.shape(), (Shape{9, 1}));
  // Center tap sees the pixel; corners see padding.
  EXPECT_DOUBLE_EQ(cols.at2(4, 0), 5.0);
  EXPECT_DOUBLE_EQ(cols.at2(0, 0), 0.0);
}

TEST(Ops, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // the conv backward pass relies on.
  common::Rng rng(11);
  const index_t c = 2, h = 6, w = 5, k = 3, stride = 2, pad = 1;
  Tensor x = Tensor::randn({c, h, w}, rng);
  const index_t oh = conv_out_extent(h, k, stride, pad);
  const index_t ow = conv_out_extent(w, k, stride, pad);
  Tensor y = Tensor::randn({c * k * k, oh * ow}, rng);
  const Tensor ix = im2col(x, k, stride, pad);
  real lhs = 0.0;
  for (index_t i = 0; i < ix.size(); ++i) lhs += ix[i] * y[i];
  const Tensor cy = col2im(y, c, h, w, k, k, stride, pad);
  real rhs = 0.0;
  for (index_t i = 0; i < x.size(); ++i) rhs += x[i] * cy[i];
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST(Serialize, RoundTripSingle) {
  common::Rng rng(5);
  Tensor t = Tensor::randn({3, 4, 5}, rng);
  ByteBuffer buf;
  write_tensor(t, buf);
  std::size_t offset = 0;
  Tensor u = read_tensor(buf, offset);
  EXPECT_EQ(offset, buf.size());
  EXPECT_TRUE(t == u);
}

void append_u64(std::uint64_t v, ByteBuffer& out) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(v));
}

/// The wire format spelled out from the raw primitives: count header, each
/// tensor through write_tensor, then the CRC32C of everything before it.
ByteBuffer reference_message(const std::vector<Tensor>& ts) {
  ByteBuffer out;
  append_u64(ts.size(), out);
  for (const auto& t : ts) write_tensor(t, out);
  const std::uint32_t crc = oasis::common::crc32c(out.data(), out.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(&crc);
  out.insert(out.end(), p, p + sizeof(crc));
  return out;
}

TEST(Serialize, WriteTensorLayoutIsRankExtentsValues) {
  ByteBuffer want;
  append_u64(1, want);
  append_u64(2, want);
  for (const double v : {1.5, -2.0}) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    want.insert(want.end(), p, p + sizeof(v));
  }
  ByteBuffer got;
  write_tensor(Tensor({2}, {1.5, -2.0}), got);
  EXPECT_EQ(got, want);
}

// serialize_tensors sizes its buffer up front and writes in place; the bytes
// must be exactly the primitives' concatenation, for random lists that
// include rank-0 tensors, zero extents, empty lists and several tensors.
TEST(Serialize, ExactSizeCodecMatchesRawPrimitives) {
  common::Rng rng(41);
  std::vector<std::vector<Tensor>> lists{
      {},
      {Tensor(Shape{})},
      {Tensor::randn({3, 0, 2}, rng), Tensor(Shape{}), Tensor::randn({5}, rng)},
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Tensor> ts;
    const auto count = rng.uniform_int(1, 6);
    for (std::int64_t i = 0; i < count; ++i) {
      Shape shape(static_cast<std::size_t>(rng.uniform_int(0, 4)));
      for (auto& d : shape) d = static_cast<index_t>(rng.uniform_int(0, 5));
      ts.push_back(Tensor::randn(shape, rng));
    }
    lists.push_back(std::move(ts));
  }
  for (const auto& ts : lists) {
    const ByteBuffer want = reference_message(ts);
    EXPECT_EQ(serialize_tensors(ts), want);
    std::vector<const Tensor*> views;
    for (const auto& t : ts) views.push_back(&t);
    EXPECT_EQ(serialize_tensors(views), want);
    EXPECT_EQ(serialize_tensors(deserialize_tensors(want)), want);
  }
}

// serialize_state writes the module's tensors in place; it must produce the
// bytes of the snapshot path, and a deserialize_state round trip must
// reproduce them exactly (parameters and BatchNorm buffers alike).
TEST(Serialize, ModelStateCodecIsByteExact) {
  common::Rng rng(42);
  const nn::ImageSpec spec{3, 8, 8};
  auto a = nn::make_mini_resnet(spec, 5, rng, 4);
  auto b = nn::make_mini_resnet(spec, 5, rng, 4);  // different init
  const ByteBuffer bytes = nn::serialize_state(*a);
  EXPECT_EQ(bytes, serialize_tensors(nn::snapshot_state(*a)));
  ASSERT_NE(nn::serialize_state(*b), bytes);
  nn::deserialize_state(*b, bytes);
  EXPECT_EQ(nn::serialize_state(*b), bytes);
}

TEST(Serialize, RoundTripList) {
  common::Rng rng(6);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({2, 2}, rng));
  ts.push_back(Tensor::randn({7}, rng));
  ts.push_back(Tensor({1, 1}));
  ByteBuffer buf = serialize_tensors(ts);
  auto us = deserialize_tensors(buf);
  ASSERT_EQ(us.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(ts[i] == us[i]);
}

TEST(Serialize, TruncatedThrows) {
  common::Rng rng(8);
  ByteBuffer buf = serialize_tensors({Tensor::randn({4, 4}, rng)});
  buf.resize(buf.size() - 7);
  EXPECT_THROW(deserialize_tensors(buf), SerializationError);
}

TEST(Serialize, TrailingBytesThrow) {
  // Appending a byte breaks the CRC trailer (the stored CRC is no longer at
  // the end), so this surfaces as checksum damage…
  ByteBuffer buf = serialize_tensors({Tensor({2})});
  buf.push_back(0);
  EXPECT_THROW(deserialize_tensors(buf), ChecksumError);
  // …and with the trailer recomputed over the padded payload, the structural
  // trailing-bytes check must still fire.
  ByteBuffer padded = serialize_tensors({Tensor({2})});
  padded.insert(padded.end() - 4, 0);
  reseal_tensors(padded);
  EXPECT_THROW(deserialize_tensors(padded), SerializationError);
  EXPECT_THROW(scan_tensors(padded), SerializationError);
}

TEST(Serialize, BitFlipAnywhereFailsTheChecksum) {
  // A single bit flip that PRESERVES structure (flips inside a value) used
  // to pass scan_tensors; the CRC32C trailer closes that gap. CRC32 detects
  // every single-bit error, so sweep a representative set of positions.
  common::Rng rng(11);
  const ByteBuffer clean = serialize_tensors({Tensor::randn({3, 3}, rng)});
  for (std::size_t pos = 0; pos < clean.size(); pos += 3) {
    for (int bit = 0; bit < 8; bit += 5) {
      ByteBuffer flipped = clean;
      flipped[pos] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW(deserialize_tensors(flipped), ChecksumError)
          << "byte " << pos << " bit " << bit;
      EXPECT_THROW(scan_tensors(flipped), ChecksumError)
          << "byte " << pos << " bit " << bit;
    }
  }
  EXPECT_EQ(deserialize_tensors(clean).size(), 1u);  // clean still parses
}

TEST(Serialize, ResealRepairsAMutatedPayload) {
  common::Rng rng(12);
  ByteBuffer buf = serialize_tensors({Tensor::randn({2, 2}, rng)});
  buf[buf.size() - 12] ^= 0x01;  // mutate a value byte
  EXPECT_THROW(deserialize_tensors(buf), ChecksumError);
  reseal_tensors(buf);
  EXPECT_EQ(deserialize_tensors(buf).size(), 1u);
}

TEST(Serialize, TruncationSweepEveryByteOffsetThrows) {
  // Malformed-payload regression: a "small model" of three mixed-rank
  // tensors, truncated at EVERY byte offset, must throw SerializationError
  // from both the deserializer and the scanner — never read past the buffer
  // or attempt a hostile allocation.
  common::Rng rng(9);
  std::vector<Tensor> model;
  model.push_back(Tensor::randn({4, 3}, rng));    // weight
  model.push_back(Tensor::randn({4}, rng));       // bias
  model.push_back(Tensor::randn({2, 4}, rng));    // head
  const ByteBuffer full = serialize_tensors(model);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const ByteBuffer cut(full.begin(), full.begin() + len);
    EXPECT_THROW(deserialize_tensors(cut), SerializationError) << len;
    EXPECT_THROW(scan_tensors(cut), SerializationError) << len;
  }
  // The untruncated buffer still parses, so the sweep tested real prefixes.
  EXPECT_EQ(deserialize_tensors(full).size(), 3u);
}

TEST(Serialize, OversizedExtentsThrowInsteadOfAllocating) {
  // A header claiming 2^62 × 2^62 elements must be rejected by the
  // overflow-safe bounds check, not wrap to a small count or reach the
  // allocator.
  auto put_u64 = [](ByteBuffer& b, std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    b.insert(b.end(), p, p + sizeof(v));
  };
  // Give each hand-built hostile buffer a VALID CRC trailer: the checksum
  // screen runs first, and these tests exist to exercise the structural
  // hardening behind it.
  auto seal = [](ByteBuffer& b) {
    const std::uint32_t crc = oasis::common::crc32c(b.data(), b.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(&crc);
    b.insert(b.end(), p, p + sizeof(crc));
  };
  ByteBuffer evil;
  put_u64(evil, 1);                      // one tensor
  put_u64(evil, 2);                      // rank 2
  put_u64(evil, std::uint64_t{1} << 62); // extents whose product wraps
  put_u64(evil, std::uint64_t{1} << 62);
  seal(evil);
  EXPECT_THROW(deserialize_tensors(evil), SerializationError);
  EXPECT_THROW(scan_tensors(evil), SerializationError);

  // A single huge-but-non-wrapping extent with no payload behind it.
  ByteBuffer sparse;
  put_u64(sparse, 1);
  put_u64(sparse, 1);
  put_u64(sparse, std::uint64_t{1} << 40);
  seal(sparse);
  EXPECT_THROW(deserialize_tensors(sparse), SerializationError);

  // Implausible rank and implausible tensor count.
  ByteBuffer ranky;
  put_u64(ranky, 1);
  put_u64(ranky, 9);  // rank cap is 8
  seal(ranky);
  EXPECT_THROW(deserialize_tensors(ranky), SerializationError);
  ByteBuffer county;
  put_u64(county, std::uint64_t{1} << 32);
  seal(county);
  EXPECT_THROW(deserialize_tensors(county), SerializationError);
}

TEST(Serialize, ScanMatchesDeserializedContents) {
  common::Rng rng(10);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({5, 3}, rng));
  ts.push_back(Tensor::randn({200}, rng));  // exercises the chunked walk
  const ByteBuffer buf = serialize_tensors(ts);
  const TensorScan scan = scan_tensors(buf);
  EXPECT_EQ(scan.tensors, 2u);
  EXPECT_EQ(scan.values, 215u);
  EXPECT_TRUE(scan.all_finite);
  ASSERT_EQ(scan.shapes.size(), 2u);
  EXPECT_EQ(scan.shapes[0], Shape({5, 3}));
  EXPECT_EQ(scan.shapes[1], Shape({200}));
  double sq = 0.0;
  for (const auto& t : ts) {
    for (const auto v : t.data()) sq += v * v;
  }
  EXPECT_NEAR(scan.sum_squares, sq, 1e-12 * sq);

  ts[1][7] = std::numeric_limits<real>::quiet_NaN();
  EXPECT_FALSE(scan_tensors(serialize_tensors(ts)).all_finite);
}

// The screen's finite check is an OR over the exponent bits, not a call to
// std::isfinite per value: it must agree with std::isfinite on every class
// of double, at every position, across the vector-width seams, and on
// values that are not double-aligned.
TEST(ScanTensors, FiniteCheckMatchesIsfinite) {
  using limits = std::numeric_limits<real>;
  const std::vector<real> finite = {
      1.0,  -0.0, 0.0, limits::denorm_min(), -limits::denorm_min(),
      limits::min() / 2, limits::max(), -limits::max(), limits::min()};
  const real poisons[] = {limits::quiet_NaN(), limits::infinity(),
                          -limits::infinity()};
  const auto all_isfinite = [](const std::vector<real>& v) {
    return std::all_of(v.begin(), v.end(),
                       [](real x) { return std::isfinite(x); });
  };
  const auto scanned = [](const std::vector<Tensor>& ts, bool with_sum) {
    return scan_tensors(serialize_tensors(ts), with_sum).all_finite;
  };
  for (const index_t n : {1, 7, 8, 9, 4099}) {
    std::vector<real> clean(n);
    for (index_t k = 0; k < n; ++k) clean[k] = finite[k % finite.size()];
    ASSERT_TRUE(all_isfinite(clean));
    for (const bool with_sum : {false, true}) {
      EXPECT_TRUE(scanned({Tensor({n}, clean)}, with_sum)) << n;
    }
    for (const real poison : poisons) {
      for (const index_t slot : {index_t{0}, n / 2, n - 1}) {
        std::vector<real> v = clean;
        v[slot] = poison;
        ASSERT_FALSE(all_isfinite(v));
        for (const bool with_sum : {false, true}) {
          EXPECT_FALSE(scanned({Tensor({n}, v)}, with_sum))
              << n << " " << poison << " at " << slot;
          // Poison in the second tensor only.
          EXPECT_FALSE(scanned({Tensor({n}, clean), Tensor({n}, v)}, with_sum))
              << n << " " << poison << " at " << slot;
        }

        // The same values at an odd byte offset.
        std::vector<std::uint8_t> bytes(1 + n * sizeof(real));
        std::memcpy(bytes.data() + 1, v.data(), n * sizeof(real));
        EXPECT_FALSE(values_finite(bytes.data() + 1, n));
        std::memcpy(bytes.data() + 1, clean.data(), n * sizeof(real));
        EXPECT_TRUE(values_finite(bytes.data() + 1, n));
      }
    }
  }
}

// The norm screen's Σ v² is one ascending FMA chain over the values in
// message order, so a bounded screen decides exactly as it always has. The
// magnitudes span 16 decades, so a reordered or split sum would round
// differently.
TEST(ScanTensors, SumSquaresIsTheAscendingFmaChain) {
  common::Rng rng(32);
  std::vector<Tensor> ts;
  ts.push_back(Tensor::randn({5, 3}, rng));
  ts.push_back(Tensor::randn({4099}, rng));
  ts.push_back(Tensor::randn({9}, rng));
  for (auto& t : ts) {
    for (auto& v : t.data()) v *= std::pow(10.0, rng.uniform(-8.0, 8.0));
  }
  const ByteBuffer buf = serialize_tensors(ts);

  double chain = 0.0;
  for (const auto& t : ts) {
    for (const auto v : t.data()) chain = std::fma(v, v, chain);
  }
  const TensorScan scan = scan_tensors(buf, /*with_sum_squares=*/true);
  std::uint64_t want, got;
  std::memcpy(&want, &chain, sizeof want);
  std::memcpy(&got, &scan.sum_squares, sizeof got);
  EXPECT_EQ(got, want) << scan.sum_squares << " vs " << chain;

  const TensorScan unsummed = scan_tensors(buf, /*with_sum_squares=*/false);
  EXPECT_EQ(unsummed.sum_squares, 0.0);
  EXPECT_EQ(unsummed.values, scan.values);
  EXPECT_EQ(unsummed.shapes, scan.shapes);
  EXPECT_TRUE(unsummed.all_finite);
}

TEST(Rng, DeterministicAndSplit) {
  common::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  common::Rng c = a.split(1);
  common::Rng d = a.split(1);
  // Splits from different parent states differ.
  EXPECT_NE(c(), d());
}

TEST(Rng, StateRoundTripResumesTheStreamExactly) {
  common::Rng a(99);
  a.normal();  // leaves a Box–Muller spare cached → has_spare must travel
  common::Rng b(1);
  b.set_state(a.state());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.normal(), b.normal());
    EXPECT_EQ(a(), b());
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntRange) {
  common::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NormalMoments) {
  common::Rng rng(10);
  real sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const real v = rng.normal(2.0, 3.0);
    sum += v;
    sum2 += v * v;
  }
  const real mean = sum / n;
  const real var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, InverseNormalCdfRoundTrip) {
  for (const real p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const real x = common::inverse_normal_cdf(p);
    EXPECT_NEAR(common::normal_cdf(x), p, 1e-9) << "p=" << p;
  }
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  common::Rng rng(12);
  auto s = rng.sample_without_replacement(20, 10);
  ASSERT_EQ(s.size(), 10u);
  std::sort(s.begin(), s.end());
  EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
  for (const auto v : s) EXPECT_LT(v, 20u);
}

}  // namespace
}  // namespace oasis::tensor
