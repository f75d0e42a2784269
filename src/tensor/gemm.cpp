#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "tensor/gemm_blocked.hpp"
#include "util/require.hpp"

namespace omniboost::tensor {

namespace {

// Cache-blocking parameters. The packed A block (kMC x kGemmKC floats) and
// one B panel (kGemmKC x kNR) sit comfortably in L1/L2 on any contemporary
// core; the micro-tile accumulates a kMR x kNR register block so each
// packed element is loaded once per tile instead of once per multiply-add.
constexpr std::size_t kMC = 64;   // rows of op(A) per block
constexpr std::size_t kNC = 256;  // cols of op(B) per block

/// 4x8 register tile: acc = sum_k apanel[k]*bpanel[k], then folded into C
/// with alpha (and beta on the first k-block only). 4x8 keeps the
/// accumulator block at 8 SSE registers (the portable baseline this library
/// is compiled for — no -march flags, so the bit-frozen reference numerics
/// cannot pick up FMA contraction), leaving room for the B row and the A
/// broadcast without spilling. That margin is thin, so run() stays out of
/// line: inlined into blocked_gemm, GCC 12 spilled accumulators inside the
/// k-loop (cold_mix decisions 12% slower on a 4-vCPU x86-64 VM).
struct ScalarTile {
  static constexpr std::size_t kMR = 4;  // micro-tile rows
  static constexpr std::size_t kNR = 8;  // micro-tile cols

  [[gnu::noinline]] static void run(const float* apanel, const float* bpanel,
                                    std::size_t kc, float alpha, float beta,
                                    bool first_kblock, float* c,
                                    std::size_t ldc, std::size_t rows,
                                    std::size_t cols) {
    float acc[kMR][kNR] = {};
    for (std::size_t k = 0; k < kc; ++k) {
      const float* bk = bpanel + k * kNR;
      const float* ak = apanel + k * kMR;
      for (std::size_t i = 0; i < kMR; ++i) {
        const float av = ak[i];
        for (std::size_t j = 0; j < kNR; ++j) acc[i][j] += av * bk[j];
      }
    }
    fold_tile(acc, alpha, beta, first_kblock, c, ldc, rows, cols);
  }
};

/// True iff the running CPU reports AVX2, the ISA gemm_vector.cpp is built
/// for (without FMA, so AVX2 alone suffices). Checked once per process;
/// this TU is built without ISA flags so the check itself runs anywhere.
bool host_has_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
#else
  return false;  // no AVX2 tile off x86, and no portable cpuid elsewhere
#endif
}

}  // namespace

namespace detail {

void gemm_portable(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                   std::size_t k, float alpha, const float* a, std::size_t lda,
                   const float* b, std::size_t ldb, float beta, float* c,
                   std::size_t ldc) {
  blocked_gemm<ScalarTile, kMC, kNC>(trans_a, trans_b, m, n, k, alpha, a, lda,
                                     b, ldb, beta, c, ldc);
}

}  // namespace detail

void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, std::size_t lda,
          const float* b, std::size_t ldb, float beta, float* c,
          std::size_t ldc) {
  OB_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
             "gemm: null operand");
  OB_REQUIRE(lda >= (trans_a ? m : k), "gemm: lda too small");
  OB_REQUIRE(ldb >= (trans_b ? k : n), "gemm: ldb too small");
  OB_REQUIRE(ldc >= n, "gemm: ldc too small");
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    // Pure beta-scaling of C (and beta == 0 must overwrite, not multiply).
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0f) {
        std::fill(crow, crow + n, 0.0f);
      } else if (beta != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }
  // Same arithmetic, so the same bits, either way (gemm_vector.cpp).
  if (host_has_avx2()) {
    detail::gemm_vector_kernel(trans_a, trans_b, m, n, k, alpha, a, lda, b,
                               ldb, beta, c, ldc);
  } else {
    detail::gemm_portable(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb,
                          beta, c, ldc);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  OB_REQUIRE(a.rank() == 2 && b.rank() == 2, "matmul: rank-2 tensors required");
  OB_REQUIRE(a.extent(1) == b.extent(0), "matmul: inner dimension mismatch");
  Tensor c({a.extent(0), b.extent(1)});
  gemm(false, false, a.extent(0), b.extent(1), a.extent(1), 1.0f, a.data(),
       a.extent(1), b.data(), b.extent(1), 0.0f, c.data(), b.extent(1));
  return c;
}

std::size_t conv_out_extent(std::size_t in, std::size_t kernel,
                            std::size_t stride, std::size_t pad) {
  OB_REQUIRE(kernel > 0 && stride > 0, "conv_out_extent: kernel/stride >= 1");
  OB_REQUIRE(in + 2 * pad >= kernel, "conv_out_extent: input smaller than kernel");
  return (in + 2 * pad - kernel) / stride + 1;
}

void im2col(const float* img, std::size_t channels, std::size_t h,
            std::size_t w, std::size_t kernel, std::size_t stride,
            std::size_t pad, float* cols, std::size_t ldcols) {
  const std::size_t oh = conv_out_extent(h, kernel, stride, pad);
  const std::size_t ow = conv_out_extent(w, kernel, stride, pad);
  OB_REQUIRE(ldcols >= oh * ow, "im2col: ldcols too small");
  // With padding, each channel plane is first copied into the interior of a
  // zero-bordered (h + 2*pad) x (w + 2*pad) scratch plane. Every tap of
  // every output row then reads inside that plane, so the row copies below
  // carry no bounds logic at all. thread_local like the GEMM packing
  // scratch; the border is zeroed once per call and never written.
  const std::size_t pw = w + 2 * pad;
  static thread_local std::vector<float> padded;
  if (pad > 0) padded.assign((h + 2 * pad) * pw, 0.0f);
  float* dst = cols;  // rows stream in (c, ky, kx) order
  for (std::size_t c = 0; c < channels; ++c) {
    const float* plane = img + c * h * w;
    if (pad > 0) {
      for (std::size_t y = 0; y < h; ++y)
        std::copy(plane + y * w, plane + (y + 1) * w,
                  padded.data() + (y + pad) * pw + pad);
      plane = padded.data();
    }
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, dst += ldcols) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const float* in = plane + (oy * stride + ky) * pw + kx;
          float* out = dst + oy * ow;
          if (stride == 1) {
            for (std::size_t ox = 0; ox < ow; ++ox) out[ox] = in[ox];
          } else {
            for (std::size_t ox = 0; ox < ow; ++ox) out[ox] = in[ox * stride];
          }
        }
      }
    }
  }
}

void col2im(const float* cols, std::size_t channels, std::size_t h,
            std::size_t w, std::size_t kernel, std::size_t stride,
            std::size_t pad, float* img) {
  const std::size_t oh = conv_out_extent(h, kernel, stride, pad);
  const std::size_t ow = conv_out_extent(w, kernel, stride, pad);
  const auto spad = static_cast<std::ptrdiff_t>(pad);
  const float* src = cols;
  // Per (c, ky, kx) row, only the tap's valid output rectangle
  // [ylo, yhi) x [xlo, xhi) (conv_tap_range on each axis) lands inside the
  // image, so the inner loop carries no bounds test. Every image element
  // still adds its taps in (ky, kx, oy, ox) order, onto the caller's value,
  // so the sums are those of a bounds-tested loop.
  for (std::size_t c = 0; c < channels; ++c) {
    float* plane = img + c * h * w;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      std::size_t ylo, yhi;
      conv_tap_range(oh, h, stride, static_cast<std::ptrdiff_t>(ky) - spad,
                     ylo, yhi);
      for (std::size_t kx = 0; kx < kernel; ++kx, src += oh * ow) {
        std::size_t xlo, xhi;
        conv_tap_range(ow, w, stride, static_cast<std::ptrdiff_t>(kx) - spad,
                       xlo, xhi);
        if (xlo == xhi) continue;
        const std::size_t x0 = xlo * stride + kx - pad;
        for (std::size_t oy = ylo; oy < yhi; ++oy) {
          float* row = plane + (oy * stride + ky - pad) * w + x0;
          const float* in = src + oy * ow;
          for (std::size_t ox = xlo; ox < xhi; ++ox)
            row[(ox - xlo) * stride] += in[ox];
        }
      }
    }
  }
}

Tensor im2col(const Tensor& img, std::size_t kernel, std::size_t stride,
              std::size_t pad) {
  OB_REQUIRE(img.rank() == 3, "im2col: (C, H, W) tensor required");
  const std::size_t c = img.extent(0), h = img.extent(1), w = img.extent(2);
  const std::size_t oh = conv_out_extent(h, kernel, stride, pad);
  const std::size_t ow = conv_out_extent(w, kernel, stride, pad);
  Tensor cols({c * kernel * kernel, oh * ow});
  im2col(img.data(), c, h, w, kernel, stride, pad, cols.data(), oh * ow);
  return cols;
}

Tensor col2im(const Tensor& cols, std::size_t channels, std::size_t h,
              std::size_t w, std::size_t kernel, std::size_t stride,
              std::size_t pad) {
  OB_REQUIRE(cols.rank() == 2, "col2im: (C*k*k, OH*OW) tensor required");
  const std::size_t oh = conv_out_extent(h, kernel, stride, pad);
  const std::size_t ow = conv_out_extent(w, kernel, stride, pad);
  OB_REQUIRE(cols.extent(0) == channels * kernel * kernel &&
                 cols.extent(1) == oh * ow,
             "col2im: column matrix shape mismatch");
  Tensor img({channels, h, w});
  col2im(cols.data(), channels, h, w, kernel, stride, pad, img.data());
  return img;
}

}  // namespace omniboost::tensor
