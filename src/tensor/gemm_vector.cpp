/// \file gemm_vector.cpp
/// kGemm's arithmetic on 8-wide AVX lanes. tensor::gemm enters this TU when
/// the running CPU reports AVX2 (the cpuid gate in gemm.cpp); everywhere
/// else it runs the portable 4x8 tile in gemm.cpp (detail::gemm_portable).
/// Both tiles do the same arithmetic, so tensor::gemm gives the same bits on
/// every host: for each output element, k in ascending order, a separately
/// rounded multiply then an add, restarting from +0 at every kGemmKC-wide
/// k-block, each block folded through fold_tile's operations in fold_tile's
/// order.
///
/// Compiled with -mavx2 -mno-fma -ffp-contract=off (CMake applies them to
/// this source only). The hazard is FMA contraction: a fused multiply-add
/// rounds once where the portable tile rounds twice, so a contracted build
/// gives other bits. -mno-fma removes the instruction and
/// -ffp-contract=off forbids the fusion even where FMA exists;
/// tools/run_tier1.sh checks the object's disassembly for any FMA.

#include "tensor/gemm.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)
#include <immintrin.h>

#include "tensor/gemm_blocked.hpp"
#define OMNIBOOST_GEMM_VECTOR_TILE 1
#endif

namespace omniboost::tensor::detail {

#ifdef OMNIBOOST_GEMM_VECTOR_TILE

namespace {

constexpr std::size_t kMC = 64;   // rows of op(A) per block (multiple of kMR)
constexpr std::size_t kNC = 264;  // cols of op(B) per block (multiple of kNR)

/// 2x24 tile: six ymm accumulators, three B loads and two A broadcasts per
/// k. Its 24 columns cover the estimator's 18-pixel late stages in one
/// panel, where a 16-wide tile needs a second, nearly empty one. On the
/// estimator's batch-1 conv GEMMs (a cold decision's forward) it took ~30
/// us against ~41 us for a 4x16 tile, and beat 4x24, 2x32 and 3x16 tiles;
/// at batch 16 the 4x16 tile was ~12% faster. Full tiles fold in registers
/// with exactly fold_tile's operations; edge tiles spill and go through
/// fold_tile.
struct VectorTile {
  static constexpr std::size_t kMR = 2;   // rows (one A broadcast each)
  static constexpr std::size_t kNR = 24;  // cols (three ymm lanes)

  [[gnu::noinline]] static void run(const float* apanel, const float* bpanel,
                                    std::size_t kc, float alpha, float beta,
                                    bool first_kblock, float* c,
                                    std::size_t ldc, std::size_t rows,
                                    std::size_t cols) {
    // Named accumulators, not an __m256 array: GCC 12 kept such an array in
    // memory too and stored every accumulator on each k step.
    __m256 c00 = _mm256_setzero_ps(), c01 = c00, c02 = c00;
    __m256 c10 = c00, c11 = c00, c12 = c00;
    for (std::size_t k = 0; k < kc; ++k) {
      const float* bk = bpanel + k * kNR;
      const __m256 b0 = _mm256_loadu_ps(bk);
      const __m256 b1 = _mm256_loadu_ps(bk + 8);
      const __m256 b2 = _mm256_loadu_ps(bk + 16);
      const __m256 a0 = _mm256_broadcast_ss(apanel + k * kMR);
      const __m256 a1 = _mm256_broadcast_ss(apanel + k * kMR + 1);
      c00 = _mm256_add_ps(c00, _mm256_mul_ps(a0, b0));
      c01 = _mm256_add_ps(c01, _mm256_mul_ps(a0, b1));
      c02 = _mm256_add_ps(c02, _mm256_mul_ps(a0, b2));
      c10 = _mm256_add_ps(c10, _mm256_mul_ps(a1, b0));
      c11 = _mm256_add_ps(c11, _mm256_mul_ps(a1, b1));
      c12 = _mm256_add_ps(c12, _mm256_mul_ps(a1, b2));
    }
    if (rows == kMR && cols == kNR) {
      const __m256 valpha = _mm256_set1_ps(alpha);
      const __m256 vbeta = _mm256_set1_ps(beta);
      const auto fold8 = [&](float* out, __m256 sum) {
        const __m256 scaled = _mm256_mul_ps(valpha, sum);
        __m256 v = scaled;
        if (!first_kblock) {
          v = _mm256_add_ps(_mm256_loadu_ps(out), scaled);
        } else if (beta != 0.0f) {
          const __m256 prior = _mm256_mul_ps(vbeta, _mm256_loadu_ps(out));
          v = _mm256_add_ps(prior, scaled);
        }
        _mm256_storeu_ps(out, v);
      };
      fold8(c, c00);
      fold8(c + 8, c01);
      fold8(c + 16, c02);
      fold8(c + ldc, c10);
      fold8(c + ldc + 8, c11);
      fold8(c + ldc + 16, c12);
      return;
    }
    alignas(32) float tile[kMR][kNR];
    _mm256_store_ps(tile[0], c00);
    _mm256_store_ps(tile[0] + 8, c01);
    _mm256_store_ps(tile[0] + 16, c02);
    _mm256_store_ps(tile[1], c10);
    _mm256_store_ps(tile[1] + 8, c11);
    _mm256_store_ps(tile[1] + 16, c12);
    fold_tile(tile, alpha, beta, first_kblock, c, ldc, rows, cols);
  }
};

}  // namespace

void gemm_vector_kernel(bool trans_a, bool trans_b, std::size_t m,
                        std::size_t n, std::size_t k, float alpha,
                        const float* a, std::size_t lda, const float* b,
                        std::size_t ldb, float beta, float* c,
                        std::size_t ldc) {
  blocked_gemm<VectorTile, kMC, kNC>(trans_a, trans_b, m, n, k, alpha, a, lda,
                                     b, ldb, beta, c, ldc);
}

#else  // no AVX2 section on this target/compiler: the portable tile

void gemm_vector_kernel(bool trans_a, bool trans_b, std::size_t m,
                        std::size_t n, std::size_t k, float alpha,
                        const float* a, std::size_t lda, const float* b,
                        std::size_t ldb, float beta, float* c,
                        std::size_t ldc) {
  gemm_portable(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                ldc);
}

#endif  // OMNIBOOST_GEMM_VECTOR_TILE

}  // namespace omniboost::tensor::detail
