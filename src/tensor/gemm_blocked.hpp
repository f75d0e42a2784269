#pragma once
/// \file gemm_blocked.hpp
/// The BLIS-style blocked GEMM loop nest behind tensor::gemm, shared by its
/// two tiles: gemm.cpp's portable scalar 4x8 tile and gemm_vector.cpp's
/// AVX2 2x24 tile, which does the same arithmetic. op(A) is packed into
/// MR-row k-major panels, op(B) into NR-column panels, and a register
/// micro-tile is swept over the packed blocks. Each kernel TU supplies only
/// its MC/NC block sizes and its tile; the k-block width is kGemmKC for
/// both, because it is part of gemm()'s arithmetic.
///
/// Internal header: include it from those two TUs only. Everything here
/// has internal linkage (an unnamed namespace), and that is a correctness
/// rule, not style. gemm_vector.cpp is compiled with -mavx2; an externally
/// visible instantiation (say pack_a<2>, or a std:: template such as
/// std::min<std::size_t>) would be a weak symbol the linker may merge,
/// keeping either copy. The portable path could then run AVX2 code (SIGILL
/// on hosts without it). So nothing here calls a std:: function template
/// (see min_size), and tools/run_tier1.sh checks with nm that the
/// AVX2-flagged object exports only its tensor::detail entry point.

#include <cstddef>

#include "tensor/gemm.hpp"

namespace omniboost::tensor {
namespace {

/// std::min for sizes. A std::min<std::size_t> call can leave a weak,
/// AVX2-compiled std::min in gemm_vector.cpp.o when inlining is off (-O0).
/// It keeps std::min's reference signature: GCC 12 compiled a by-value
/// version of this driver ~4% slower on the estimator's batch-1 GEMMs.
inline const std::size_t& min_size(const std::size_t& a,
                                   const std::size_t& b) {
  return b < a ? b : a;
}

/// Packing scratch that only grows; its contents are unspecified. Not a
/// std::vector: that would emit std::vector<float>'s out-of-line members as
/// weak symbols compiled with the including TU's ISA flags, and the linker
/// may keep that copy for every std::vector<float> in the program.
class PackBuffer {
 public:
  PackBuffer() = default;
  PackBuffer(const PackBuffer&) = delete;
  PackBuffer& operator=(const PackBuffer&) = delete;
  ~PackBuffer() { delete[] data_; }

  /// Room for at least n floats.
  float* reserve(std::size_t n) {
    if (n > size_) {
      delete[] data_;
      data_ = nullptr;  // stays empty if the allocation throws
      size_ = 0;
      data_ = new float[n];
      size_ = n;
    }
    return data_;
  }

 private:
  float* data_ = nullptr;
  std::size_t size_ = 0;
};

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
    const std::size_t rows = min_size(MR, mc - p);
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
    const std::size_t cols = min_size(NR, nc - p);
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
/// (gemm() handles the rest). Blocks of MC x kGemmKC of op(A) and
/// kGemmKC x NC of op(B); k is traversed block by block in ascending
/// order, so each output element's summation order is fixed by the shape.
/// Tile provides kMR, kNR and a static run(apanel, bpanel, kc, alpha, beta,
/// first_kblock, c, ldc, rows, cols) that accumulates one kMR x kNR tile
/// over kc and folds its live rows x cols into C.
template <class Tile, std::size_t MC, std::size_t NC>
void blocked_gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                  std::size_t k, float alpha, const float* a, std::size_t lda,
                  const float* b, std::size_t ldb, float beta, float* c,
                  std::size_t ldc) {
  constexpr std::size_t MR = Tile::kMR;
  constexpr std::size_t NR = Tile::kNR;
  constexpr std::size_t KC = detail::kGemmKC;
  // Packing scratch, rounded up to whole micro-panels. Reused across calls
  // (thread_local: kernels may run concurrently on pool workers); sized by
  // the fixed block caps, so it stops growing after the first large call.
  static thread_local PackBuffer apack_buf;
  static thread_local PackBuffer bpack_buf;
  const std::size_t kcap = min_size(k, KC);
  float* const apack =
      apack_buf.reserve((min_size(m, MC) + MR - 1) / MR * MR * kcap);
  float* const bpack =
      bpack_buf.reserve((min_size(n, NC) + NR - 1) / NR * NR * kcap);

  for (std::size_t j0 = 0; j0 < n; j0 += NC) {
    const std::size_t nc = min_size(NC, n - j0);
    const std::size_t npanels = (nc + NR - 1) / NR;
    for (std::size_t k0 = 0; k0 < k; k0 += KC) {
      const std::size_t kc = min_size(KC, k - k0);
      const bool first_kblock = k0 == 0;
      pack_b<NR>(b, ldb, trans_b, k0, j0, kc, nc, bpack);
      for (std::size_t i0 = 0; i0 < m; i0 += MC) {
        const std::size_t mc = min_size(MC, m - i0);
        const std::size_t mpanels = (mc + MR - 1) / MR;
        pack_a<MR>(a, lda, trans_a, i0, k0, mc, kc, apack);
        for (std::size_t pj = 0; pj < npanels; ++pj) {
          const std::size_t j = pj * NR;
          const std::size_t cols = min_size(NR, nc - j);
          const float* bpanel = bpack + pj * kc * NR;
          for (std::size_t pi = 0; pi < mpanels; ++pi) {
            const std::size_t i = pi * MR;
            const std::size_t rows = min_size(MR, mc - i);
            Tile::run(apack + pi * kc * MR, bpanel, kc, alpha, beta,
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
