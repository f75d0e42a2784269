#pragma once
/// \file gemm_blocked.hpp
/// The BLIS-style blocked GEMM loop nest behind both kernels: tensor::gemm
/// (gemm.cpp, portable scalar 4x8 tile) and the SIMD path (gemm_simd.cpp,
/// 6x16 AVX2 or 4x8 NEON tile). op(A) is packed into MR-row k-major panels,
/// op(B) into NR-column panels, and a register micro-tile is swept over the
/// packed blocks. Each kernel TU supplies only its block sizes and its tile.
///
/// Internal header: include it from those two TUs only. Everything here has
/// internal linkage (an unnamed namespace), and that is a correctness rule,
/// not style. gemm_simd.cpp is compiled with -mavx2 -mfma; an externally
/// visible instantiation (say pack_a<4>, which both TUs instantiate) would
/// be a weak symbol the linker may merge, keeping either copy. The portable
/// kGemm path could then run AVX2 code (SIGILL on hosts without it) or
/// FMA-contracted folds (different bits). tools/run_tier1.sh checks with nm
/// that no name from this header is global or weak in either object.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace omniboost::tensor {
namespace {

/// Element (r, c) of op(X) where the stored matrix has row stride ld.
inline float op_at(const float* x, std::size_t ld, bool trans, std::size_t r,
                   std::size_t c) {
  return trans ? x[c * ld + r] : x[r * ld + c];
}

/// Packs op(A)[i0:i0+mc, k0:k0+kc] into MR-row panels: panel p holds rows
/// [p*MR, p*MR+MR), laid out k-major (buf[k*MR + i]) so the micro-tile
/// streams it contiguously. Rows past mc are zero-padded — zeros fall out of
/// the multiply, keeping the tile branch-free.
template <std::size_t MR>
void pack_a(const float* a, std::size_t lda, bool trans, std::size_t i0,
            std::size_t k0, std::size_t mc, std::size_t kc, float* buf) {
  for (std::size_t p = 0; p < mc; p += MR) {
    const std::size_t rows = std::min(MR, mc - p);
    for (std::size_t k = 0; k < kc; ++k) {
      for (std::size_t i = 0; i < MR; ++i) {
        *buf++ = i < rows ? op_at(a, lda, trans, i0 + p + i, k0 + k) : 0.0f;
      }
    }
  }
}

/// Packs op(B)[k0:k0+kc, j0:j0+nc] into NR-column panels (buf[k*NR + j]),
/// zero-padding columns past nc.
template <std::size_t NR>
void pack_b(const float* b, std::size_t ldb, bool trans, std::size_t k0,
            std::size_t j0, std::size_t kc, std::size_t nc, float* buf) {
  for (std::size_t p = 0; p < nc; p += NR) {
    const std::size_t cols = std::min(NR, nc - p);
    for (std::size_t k = 0; k < kc; ++k) {
      for (std::size_t j = 0; j < NR; ++j) {
        *buf++ = j < cols ? op_at(b, ldb, trans, k0 + k, j0 + p + j) : 0.0f;
      }
    }
  }
}

/// Folds the live rows x cols of an accumulated tile into C: alpha scales
/// the tile, beta applies on the first k-block only (beta == 0 overwrites,
/// NaN-safe), later k-blocks accumulate.
template <std::size_t MR, std::size_t NR>
void fold_tile(const float (&tile)[MR][NR], float alpha, float beta,
               bool first_kblock, float* c, std::size_t ldc, std::size_t rows,
               std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    float* crow = c + i * ldc;
    if (first_kblock) {
      if (beta == 0.0f) {
        for (std::size_t j = 0; j < cols; ++j) crow[j] = alpha * tile[i][j];
      } else {
        for (std::size_t j = 0; j < cols; ++j)
          crow[j] = beta * crow[j] + alpha * tile[i][j];
      }
    } else {
      for (std::size_t j = 0; j < cols; ++j) crow[j] += alpha * tile[i][j];
    }
  }
}

/// C = alpha * op(A) * op(B) + beta * C for m, n, k > 0 and alpha != 0
/// (detail::gemm_trivial handles the rest). Blocks of MC x KC of op(A) and
/// KC x NC of op(B); k is traversed block by block in ascending order, so
/// each output element's summation order is fixed by the shape alone.
/// Tile provides kMR, kNR and a static run(apanel, bpanel, kc, alpha, beta,
/// first_kblock, c, ldc, rows, cols) that accumulates one kMR x kNR tile
/// over kc and folds its live rows x cols into C.
template <class Tile, std::size_t MC, std::size_t KC, std::size_t NC>
void blocked_gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t k, float alpha, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc) {
  constexpr std::size_t MR = Tile::kMR;
  constexpr std::size_t NR = Tile::kNR;
  // Packing scratch, rounded up to whole micro-panels. Reused across calls
  // (thread_local: kernels may run concurrently on pool workers); sized by
  // the fixed block caps, so it stops growing after the first large call.
  static thread_local std::vector<float> apack;
  static thread_local std::vector<float> bpack;
  apack.resize(((std::min(m, MC) + MR - 1) / MR) * MR * std::min(k, KC));
  bpack.resize(((std::min(n, NC) + NR - 1) / NR) * NR * std::min(k, KC));

  for (std::size_t j0 = 0; j0 < n; j0 += NC) {
    const std::size_t nc = std::min(NC, n - j0);
    const std::size_t npanels = (nc + NR - 1) / NR;
    for (std::size_t k0 = 0; k0 < k; k0 += KC) {
      const std::size_t kc = std::min(KC, k - k0);
      const bool first_kblock = k0 == 0;
      pack_b<NR>(b, ldb, trans_b, k0, j0, kc, nc, bpack.data());
      for (std::size_t i0 = 0; i0 < m; i0 += MC) {
        const std::size_t mc = std::min(MC, m - i0);
        const std::size_t mpanels = (mc + MR - 1) / MR;
        pack_a<MR>(a, lda, trans_a, i0, k0, mc, kc, apack.data());
        for (std::size_t pj = 0; pj < npanels; ++pj) {
          const std::size_t j = pj * NR;
          const std::size_t cols = std::min(NR, nc - j);
          const float* bpanel = bpack.data() + pj * kc * NR;
          for (std::size_t pi = 0; pi < mpanels; ++pi) {
            const std::size_t i = pi * MR;
            const std::size_t rows = std::min(MR, mc - i);
            Tile::run(apack.data() + pi * kc * MR, bpanel, kc, alpha, beta,
                      first_kblock, c + (i0 + i) * ldc + j0 + j, ldc, rows,
                      cols);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace omniboost::tensor
