// Unit and property tests for the dense tensor substrate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using omniboost::tensor::Shape;
using omniboost::tensor::shape_size;
using omniboost::tensor::Tensor;

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.rank(), 0u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillValueConstructor) {
  Tensor t({4}, 2.5f);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, ZeroExtentRejected) {
  EXPECT_THROW(Tensor({2, 0, 3}), std::invalid_argument);
}

TEST(Tensor, RowMajorLayout) {
  Tensor t({2, 3});
  t.at({1, 2}) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);  // offset 1*3 + 2
  t.at({0, 1}) = 3.0f;
  EXPECT_EQ(t[1], 3.0f);
}

TEST(Tensor, OffsetMatchesAt) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.offset({1, 2, 3}), 1u * 12 + 2u * 4 + 3u);
  EXPECT_EQ(t.offset({0, 0, 0}), 0u);
}

TEST(Tensor, BoundsChecked) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), std::invalid_argument);
  EXPECT_THROW(t.at({0, 3}), std::invalid_argument);
  EXPECT_THROW(t.at({0}), std::invalid_argument);  // rank mismatch
  EXPECT_THROW(t[6], std::invalid_argument);
  EXPECT_THROW(t.extent(2), std::invalid_argument);
}

TEST(Tensor, FromVectorAndFromData) {
  const Tensor v = Tensor::from_vector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(v.rank(), 1u);
  EXPECT_EQ(v[1], 2.0f);
  const Tensor m = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(m.at({1, 0}), 3.0f);
  EXPECT_THROW(Tensor::from_data({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  const Tensor t = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at({2, 1}), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ElementwiseArithmetic) {
  const Tensor a = Tensor::from_vector({1, 2, 3});
  const Tensor b = Tensor::from_vector({10, 20, 30});
  EXPECT_EQ((a + b)[2], 33.0f);
  EXPECT_EQ((b - a)[0], 9.0f);
  EXPECT_EQ((a * b)[1], 40.0f);
  EXPECT_EQ((a * 2.0f)[2], 6.0f);
  EXPECT_EQ((2.0f * a)[2], 6.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2, 2});
  Tensor b({4});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a *= b, std::invalid_argument);
}

TEST(Tensor, Reductions) {
  const Tensor t = Tensor::from_vector({-1, 5, 2, -7});
  EXPECT_FLOAT_EQ(t.sum(), -1.0f);
  EXPECT_FLOAT_EQ(t.mean(), -0.25f);
  EXPECT_FLOAT_EQ(t.min(), -7.0f);
  EXPECT_FLOAT_EQ(t.max(), 5.0f);
  EXPECT_EQ(t.argmax(), 1u);
  EXPECT_FLOAT_EQ(t.l2_norm(), std::sqrt(1.0f + 25.0f + 4.0f + 49.0f));
}

TEST(Tensor, EmptyReductionsThrow) {
  Tensor t;
  EXPECT_THROW(t.min(), std::invalid_argument);
  EXPECT_THROW(t.max(), std::invalid_argument);
  EXPECT_THROW(t.argmax(), std::invalid_argument);
  EXPECT_EQ(t.mean(), 0.0f);
}

TEST(Tensor, ApplyTransformsEveryElement) {
  Tensor t = Tensor::from_vector({1, 2, 3});
  t.apply([](float x) { return x * x; });
  EXPECT_EQ(t[2], 9.0f);
}

TEST(Tensor, EqualityIsStructural) {
  const Tensor a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(a, b);
  b[0] = 9.0f;
  EXPECT_NE(a, b);
  EXPECT_NE(a, a.reshaped({4}));  // same data, different shape
}

TEST(Tensor, ShapeSizeHelper) {
  EXPECT_EQ(shape_size({}), 1u);
  EXPECT_EQ(shape_size({3, 4, 5}), 60u);
}

TEST(Tensor, ShapeStreamFormat) {
  // Shape is an alias of std::vector, so ADL will not find the inserter;
  // call it qualified as library code does.
  std::ostringstream os;
  omniboost::tensor::operator<<(os, Shape{3, 11, 37});
  EXPECT_EQ(os.str(), "[3, 11, 37]");
}

// Property: (a + b) - b == a for random tensors.
class TensorAlgebraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TensorAlgebraProperty, AddSubRoundTrip) {
  omniboost::util::Rng rng(GetParam());
  Tensor a({3, 5, 2}), b({3, 5, 2});
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.uniform(-10, 10));
    b[i] = static_cast<float>(rng.uniform(-10, 10));
  }
  const Tensor c = (a + b) - b;
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(c[i], a[i], 1e-4f);
}

TEST_P(TensorAlgebraProperty, ScalarDistributes) {
  omniboost::util::Rng rng(GetParam() ^ 0xabcd);
  Tensor a({4, 4});
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>(rng.uniform(-5, 5));
  const Tensor lhs = a * 3.0f;
  const Tensor rhs = a + a + a;
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TensorAlgebraProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- GEMM / im2col compute kernels (tensor/gemm.hpp) -------------------------

using omniboost::tensor::col2im;
using omniboost::tensor::conv_out_extent;
using omniboost::tensor::gemm;
using omniboost::tensor::im2col;
using omniboost::tensor::matmul;

Tensor random_tensor(const Shape& shape, omniboost::util::Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
  return t;
}

/// The naive triple loop the blocked kernel is verified against.
void naive_gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float beta, float* c,
                std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * bv;
      }
      const double prior = beta == 0.0f ? 0.0 : beta * c[i * ldc + j];
      c[i * ldc + j] = static_cast<float>(alpha * acc + prior);
    }
  }
}

struct GemmCase {
  std::size_t m, n, k;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesNaiveReferenceUnderAllTransposes) {
  const GemmCase g = GetParam();
  omniboost::util::Rng rng(g.m * 131 + g.n * 17 + g.k);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const Tensor a =
          random_tensor(ta ? Shape{g.k, g.m} : Shape{g.m, g.k}, rng);
      const Tensor b =
          random_tensor(tb ? Shape{g.n, g.k} : Shape{g.k, g.n}, rng);
      Tensor want({g.m, g.n});
      Tensor got({g.m, g.n});
      naive_gemm(ta, tb, g.m, g.n, g.k, 1.0f, a.data(), a.extent(1), b.data(),
                 b.extent(1), 0.0f, want.data(), g.n);
      gemm(ta, tb, g.m, g.n, g.k, 1.0f, a.data(), a.extent(1), b.data(),
           b.extent(1), 0.0f, got.data(), g.n);
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_NEAR(want[i], got[i], 1e-4)
            << "ta=" << ta << " tb=" << tb << " element " << i;
    }
  }
}

// Spans the micro-tile (portable 4x8, AVX2 2x24) and cache-block (MC 64,
// KC 128, NC 256 / 264) boundaries and their off-by-one neighbours, plus
// degenerate single-row/column shapes. {65,33,129} and up take a second
// k-block; {97,272,300} and {130,513,520} also cross the m and n blocks.
const GemmCase kGemmSweepShapes[] = {
    {1, 1, 1},      {1, 16, 3},     {4, 16, 8},     {5, 17, 9},
    {3, 1, 12},     {8, 90, 27},    {24, 396, 216}, {65, 33, 129},
    {64, 256, 128}, {67, 259, 131}, {6, 16, 256},   {7, 17, 257},
    {97, 272, 300}, {130, 513, 520}};

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSweep,
                         ::testing::ValuesIn(kGemmSweepShapes),
                         [](const auto& param_info) {
                           const GemmCase g = param_info.param;
                           return "gemm_" + std::to_string(g.m) + "x" +
                                  std::to_string(g.n) + "x" +
                                  std::to_string(g.k);
                         });

std::uint32_t float_bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

TEST(Gemm, VectorTileIsThePortableTileBitForBit) {
  // tensor::gemm runs an AVX2 tile on AVX2 hosts and the portable
  // 4x8 tile elsewhere. Both do gemm.hpp's arithmetic, so gemm's bits must
  // not depend on the host. (Without the ISA both sides run the portable
  // tile and this holds trivially.)
  std::vector<GemmCase> shapes(std::begin(kGemmSweepShapes),
                               std::end(kGemmSweepShapes));
  // The estimator's five conv GEMMs (out_ch x batch*oh*ow x in_ch*3*3 on
  // its 3x11x37 input) at batch 1 and 16; in_ch 24 takes two k-blocks.
  for (const std::size_t batch : {1u, 16u}) {
    for (const GemmCase conv : {GemmCase{8, 407, 27}, GemmCase{16, 90, 72},
                                GemmCase{16, 18, 144}, GemmCase{24, 18, 144},
                                GemmCase{24, 18, 216}})
      shapes.push_back({conv.m, conv.n * batch, conv.k});
  }
  const std::pair<float, float> scales[] = {  // (alpha, beta)
      {1.0f, 0.0f}, {1.0f, 1.0f}, {-0.75f, 0.0f}, {0.5f, 1.5f}, {2.0f, -1.0f}};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const GemmCase g : shapes) {
    omniboost::util::Rng rng(g.m * 131 + g.n * 17 + g.k);
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const Tensor a =
            random_tensor(ta ? Shape{g.k, g.m} : Shape{g.m, g.k}, rng);
        const Tensor b =
            random_tensor(tb ? Shape{g.n, g.k} : Shape{g.k, g.n}, rng);
        const Tensor c0 = random_tensor({g.m, g.n}, rng);
        for (const auto& [alpha, beta] : scales) {
          // beta == 0 must overwrite C, so start from NaN there.
          Tensor want = beta == 0.0f ? Tensor({g.m, g.n}, nan) : c0;
          Tensor got = want;
          omniboost::tensor::detail::gemm_portable(
              ta, tb, g.m, g.n, g.k, alpha, a.data(), a.extent(1), b.data(),
              b.extent(1), beta, want.data(), g.n);
          gemm(ta, tb, g.m, g.n, g.k, alpha, a.data(), a.extent(1), b.data(),
               b.extent(1), beta, got.data(), g.n);
          for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(float_bits(got[i]), float_bits(want[i]))
                << g.m << "x" << g.n << "x" << g.k << " ta=" << ta
                << " tb=" << tb << " alpha=" << alpha << " beta=" << beta
                << " element " << i;
        }
      }
    }
  }
}

TEST(Gemm, AlphaBetaSemantics) {
  omniboost::util::Rng rng(77);
  const Tensor a = random_tensor({3, 4}, rng);
  const Tensor b = random_tensor({4, 5}, rng);
  Tensor c({3, 5}, 2.0f);
  Tensor want = c;
  naive_gemm(false, false, 3, 5, 4, 0.5f, a.data(), 4, b.data(), 5, 1.5f,
             want.data(), 5);
  gemm(false, false, 3, 5, 4, 0.5f, a.data(), 4, b.data(), 5, 1.5f, c.data(),
       5);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], want[i], 1e-4);
}

TEST(Gemm, BetaZeroOverwritesNaN) {
  // beta == 0 must overwrite even NaN garbage in C (0 * NaN != 0).
  const Tensor a({2, 2}, 1.0f);
  const Tensor b({2, 2}, 1.0f);
  Tensor c({2, 2}, std::numeric_limits<float>::quiet_NaN());
  gemm(false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f, c.data(),
       2);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 2.0f);
}

TEST(Gemm, KZeroScalesByBeta) {
  const Tensor a({2, 1}, 1.0f);
  const Tensor b({1, 2}, 1.0f);
  Tensor c({2, 2}, 3.0f);
  gemm(false, false, 2, 2, 0, 1.0f, a.data(), 1, b.data(), 2, 0.5f, c.data(),
       2);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 1.5f);
}

TEST(Gemm, BitDeterministicRunToRun) {
  omniboost::util::Rng rng(5);
  const Tensor a = random_tensor({37, 141}, rng);
  const Tensor b = random_tensor({141, 53}, rng);
  const Tensor c1 = matmul(a, b);
  const Tensor c2 = matmul(a, b);
  EXPECT_EQ(c1, c2);
}

TEST(Gemm, MatmulValidatesShapes) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({4, 2})), std::invalid_argument);
  EXPECT_THROW(matmul(Tensor({2, 3, 1}), Tensor({3, 2})),
               std::invalid_argument);
}

TEST(Im2col, ConvOutExtent) {
  EXPECT_EQ(conv_out_extent(5, 3, 1, 1), 5u);
  EXPECT_EQ(conv_out_extent(7, 3, 2, 0), 3u);
  EXPECT_EQ(conv_out_extent(4, 1, 1, 0), 4u);
  EXPECT_THROW(conv_out_extent(2, 5, 1, 1), std::invalid_argument);
  EXPECT_THROW(conv_out_extent(4, 3, 0, 0), std::invalid_argument);
}

/// Naive im2col: col((c,ky,kx), (oy,ox)) = padded image at the tap.
Tensor naive_im2col(const Tensor& img, std::size_t kernel, std::size_t stride,
                    std::size_t pad) {
  const std::size_t c = img.extent(0), h = img.extent(1), w = img.extent(2);
  const std::size_t oh = conv_out_extent(h, kernel, stride, pad);
  const std::size_t ow = conv_out_extent(w, kernel, stride, pad);
  Tensor cols({c * kernel * kernel, oh * ow});
  for (std::size_t ch = 0; ch < c; ++ch)
    for (std::size_t ky = 0; ky < kernel; ++ky)
      for (std::size_t kx = 0; kx < kernel; ++kx)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride + ky) -
                static_cast<std::ptrdiff_t>(pad);
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            const bool inside = iy >= 0 &&
                                iy < static_cast<std::ptrdiff_t>(h) &&
                                ix >= 0 && ix < static_cast<std::ptrdiff_t>(w);
            cols.at({(ch * kernel + ky) * kernel + kx, oy * ow + ox}) =
                inside ? img.at({ch, static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix)})
                       : 0.0f;
          }
  return cols;
}

struct Im2colCase {
  std::size_t c, h, w, kernel, stride, pad;
};

class Im2colSweep : public ::testing::TestWithParam<Im2colCase> {};

TEST_P(Im2colSweep, MatchesNaiveLowering) {
  const Im2colCase t = GetParam();
  omniboost::util::Rng rng(t.c + t.h * 3 + t.w * 7 + t.kernel);
  const Tensor img = random_tensor({t.c, t.h, t.w}, rng);
  const Tensor want = naive_im2col(img, t.kernel, t.stride, t.pad);
  const Tensor got = im2col(img, t.kernel, t.stride, t.pad);
  EXPECT_EQ(want.shape(), got.shape());
  EXPECT_EQ(want, got);  // pure data movement: must be exact
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2colSweep,
    ::testing::Values(Im2colCase{1, 3, 3, 1, 1, 0},   // 1x1 identity
                      Im2colCase{2, 5, 7, 3, 1, 1},   // same, non-square
                      Im2colCase{3, 6, 4, 3, 2, 0},   // strided valid
                      Im2colCase{1, 7, 7, 5, 1, 2},   // wide kernel
                      Im2colCase{2, 4, 9, 3, 3, 1},   // stride 3
                      Im2colCase{4, 5, 5, 2, 2, 0},   // even kernel
                      Im2colCase{1, 1, 1, 1, 1, 0},   // degenerate pixel
                      Im2colCase{2, 3, 8, 3, 1, 2},   // pad > kernel/2
                      Im2colCase{2, 6, 7, 3, 2, 1},   // first valid col 1
                      // The estimator's conv shapes: stem, stage 2, deep.
                      Im2colCase{3, 11, 37, 3, 1, 1},
                      Im2colCase{8, 5, 18, 3, 1, 1},
                      Im2colCase{24, 2, 9, 3, 1, 1}));

TEST(Im2col, IdentityFor1x1) {
  omniboost::util::Rng rng(3);
  const Tensor img = random_tensor({3, 4, 5}, rng);
  const Tensor cols = im2col(img, 1, 1, 0);
  EXPECT_EQ(cols.shape(), (Shape{3, 20}));
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST_P(Im2colSweep, Col2imIsTheExactAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // of the gradient lowering used by Conv2d::backward.
  const Im2colCase t = GetParam();
  omniboost::util::Rng rng(t.h * 11 + t.w);
  const Tensor x = random_tensor({t.c, t.h, t.w}, rng);
  const Tensor cols_x = im2col(x, t.kernel, t.stride, t.pad);
  const Tensor y = random_tensor(cols_x.shape(), rng);
  const Tensor back = col2im(y, t.c, t.h, t.w, t.kernel, t.stride, t.pad);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols_x.size(); ++i)
    lhs += static_cast<double>(cols_x[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

/// col2im as the bounds-tested loop: every tap of every column in (c, ky,
/// kx, oy, ox) order, added where it lands inside the image.
Tensor naive_col2im(const Tensor& cols, std::size_t c, std::size_t h,
                    std::size_t w, std::size_t kernel, std::size_t stride,
                    std::size_t pad) {
  const std::size_t oh = conv_out_extent(h, kernel, stride, pad);
  const std::size_t ow = conv_out_extent(w, kernel, stride, pad);
  Tensor img({c, h, w});
  for (std::size_t ch = 0; ch < c; ++ch)
    for (std::size_t ky = 0; ky < kernel; ++ky)
      for (std::size_t kx = 0; kx < kernel; ++kx)
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride + ky) -
                static_cast<std::ptrdiff_t>(pad);
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kx) -
                static_cast<std::ptrdiff_t>(pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h) || ix < 0 ||
                ix >= static_cast<std::ptrdiff_t>(w))
              continue;
            img.at({ch, static_cast<std::size_t>(iy),
                    static_cast<std::size_t>(ix)}) +=
                cols.at({(ch * kernel + ky) * kernel + kx, oy * ow + ox});
          }
  return img;
}

TEST_P(Im2colSweep, Col2imRoundTripIsExact) {
  // col2im(im2col(x)) and col2im of random columns against the naive fold:
  // each image element sums its taps in the same order, so the float sums
  // must match bit for bit, not merely within rounding.
  const Im2colCase t = GetParam();
  omniboost::util::Rng rng(t.c * 5 + t.h + t.w * 13);
  const Tensor x = random_tensor({t.c, t.h, t.w}, rng);
  const Tensor cols = im2col(x, t.kernel, t.stride, t.pad);
  EXPECT_EQ(col2im(cols, t.c, t.h, t.w, t.kernel, t.stride, t.pad),
            naive_col2im(cols, t.c, t.h, t.w, t.kernel, t.stride, t.pad));
  const Tensor y = random_tensor(cols.shape(), rng);
  EXPECT_EQ(col2im(y, t.c, t.h, t.w, t.kernel, t.stride, t.pad),
            naive_col2im(y, t.c, t.h, t.w, t.kernel, t.stride, t.pad));
}

TEST(Im2col, RowStrideLowersIntoABatchMatrix) {
  // Two samples lowered side by side into one matrix with row stride 2*P:
  // each fills its own P columns of every row and leaves the other's alone.
  omniboost::util::Rng rng(29);
  const std::size_t c = 2, h = 5, w = 6, k = 3, stride = 1, pad = 1;
  const Tensor a = random_tensor({c, h, w}, rng);
  const Tensor b = random_tensor({c, h, w}, rng);
  const Tensor ca = im2col(a, k, stride, pad);
  const Tensor cb = im2col(b, k, stride, pad);
  const std::size_t rows = ca.extent(0), p = ca.extent(1);
  std::vector<float> batch(rows * 2 * p, -7.0f);
  im2col(a.data(), c, h, w, k, stride, pad, batch.data(), 2 * p);
  im2col(b.data(), c, h, w, k, stride, pad, batch.data() + p, 2 * p);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = 0; j < p; ++j) {
      EXPECT_EQ(batch[r * 2 * p + j], ca.at({r, j}));
      EXPECT_EQ(batch[r * 2 * p + p + j], cb.at({r, j}));
    }
  EXPECT_THROW(im2col(a.data(), c, h, w, k, stride, pad, batch.data(), p - 1),
               std::invalid_argument);
}

TEST(Im2col, RejectsBadShapes) {
  EXPECT_THROW(im2col(Tensor({2, 2}), 1, 1, 0), std::invalid_argument);
  EXPECT_THROW(im2col(Tensor({1, 2, 2}), 3, 1, 0), std::invalid_argument);
  EXPECT_THROW(col2im(Tensor({3, 4}), 1, 2, 2, 1, 1, 0),
               std::invalid_argument);
}

TEST(Gemm, ConvolutionViaIm2colMatchesDirectSum) {
  // End-to-end lowering sanity: W_matrix * im2col(x) equals the direct
  // convolution sum computed longhand.
  omniboost::util::Rng rng(19);
  const std::size_t ic = 2, oc = 3, k = 3, stride = 1, pad = 1;
  const std::size_t h = 5, w = 6;
  const Tensor x = random_tensor({ic, h, w}, rng);
  const Tensor wt = random_tensor({oc, ic * k * k}, rng);
  const Tensor y = matmul(wt, im2col(x, k, stride, pad));

  const std::size_t oh = conv_out_extent(h, k, stride, pad);
  const std::size_t ow = conv_out_extent(w, k, stride, pad);
  for (std::size_t o = 0; o < oc; ++o)
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        for (std::size_t c = 0; c < ic; ++c)
          for (std::size_t ky = 0; ky < k; ++ky)
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy * stride + ky) -
                  static_cast<std::ptrdiff_t>(pad);
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride + kx) -
                  static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h) || ix < 0 ||
                  ix >= static_cast<std::ptrdiff_t>(w))
                continue;
              acc += static_cast<double>(
                         wt.at({o, (c * k + ky) * k + kx})) *
                     x.at({c, static_cast<std::size_t>(iy),
                           static_cast<std::size_t>(ix)});
            }
        EXPECT_NEAR(y.at({o, oy * ow + ox}), acc, 1e-4);
      }
}

}  // namespace
