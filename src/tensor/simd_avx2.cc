// AVX2+FMA kernel table. This TU alone is compiled with -mavx2 -mfma
// (and -ffp-contract=off, so the compiler cannot contract the scalar
// remainder code into FMAs behind our back); it is entered only after
// the dispatcher's runtime CPU check, keeping the default build
// portable.
//
// Rounding contracts implemented here (see simd.h):
//  * gemm / gemm_transa: one FMA chain per output element, kk
//    ascending. The 4x8 register microkernel, the partial-tile masked
//    variants, and the std::fma scalar remainders all produce that
//    exact chain, so tile boundaries never show up in the bits and the
//    result is invariant to the k-panel split and the thread count.
//  * dot / sum / sumsq / gemm_transb: four lane chains stepping k by 4,
//    combined as ((l0 + l1) + (l2 + l3)), then the scalar tail appended
//    in order (std::fma for dot-like kernels, plain add for sum).
//  * Elementwise + Adam: mul/add/sub/div/sqrt only — bit-identical to
//    the scalar table.
//  * spmm: per output element one mul-then-add chain from +0.0 in CSR
//    order — bit-identical to the scalar table.

#include "tensor/simd.h"

#if defined(GRADGCL_SIMD_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/simd_detail.h"

namespace gradgcl {
namespace simd {
namespace {

// Microkernel tile: 4 output rows x 8 output columns (two 4-lane
// accumulators per row -> 8 ymm accumulators, leaving registers for the
// packed-B panel and the broadcast A values).
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 8;
// k-panel packed per (jb, kb) block: 128 x 8 doubles = 8 KiB, resident
// in L1 while every strip row streams over it.
constexpr int64_t kKc = 128;

// Lane-combine order pinned by the contract: ((l0 + l1) + (l2 + l3)).
inline double HSum(__m256d v) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

// Four HSums at once: lane q of the result is HSum(v[q]), summed in the
// same ((l0 + l1) + (l2 + l3)) order. hadd forms the pair sums
// [v0 l0+l1, v1 l0+l1, v0 l2+l3, v1 l2+l3] (likewise v2, v3); the
// 128-bit permutes line up each vector's (l0+l1) with its (l2+l3).
inline __m256d HSum4(const __m256d v[4]) {
  const __m256d h01 = _mm256_hadd_pd(v[0], v[1]);
  const __m256d h23 = _mm256_hadd_pd(v[2], v[3]);
  const __m256d lo = _mm256_permute2f128_pd(h01, h23, 0x20);
  const __m256d hi = _mm256_permute2f128_pd(h01, h23, 0x31);
  return _mm256_add_pd(lo, hi);
}

// Mask selecting the first `w` of 4 lanes (w in [0, 4]).
inline __m256i LaneMask(int64_t w) {
  alignas(32) int64_t bits[4];
  for (int64_t l = 0; l < 4; ++l) bits[l] = l < w ? int64_t{-1} : int64_t{0};
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(bits));
}

// Packs the kw x jw panel of B (row stride ldb) into `pack` with row
// stride kNr, zero-padding columns jw..kNr. Padding lanes feed dead
// accumulator lanes that are never stored back.
inline void PackB(const double* b, int64_t ldb, int64_t kw, int64_t jw,
                  double* pack) {
  for (int64_t kk = 0; kk < kw; ++kk) {
    const double* brow = b + kk * ldb;
    double* prow = pack + kk * kNr;
    int64_t j = 0;
    for (; j < jw; ++j) prow[j] = brow[j];
    for (; j < kNr; ++j) prow[j] = 0.0;
  }
}

// R x jw microkernel over one packed k-panel. Accumulates into C
// (load/store partial sums, exact), so chaining panels kb-ascending
// continues each element's single FMA chain. TransA reads A down a
// column (a[kk * lda + r]); otherwise along a row (a[r * lda + kk]).
// Scaled rounds a * row_scale[r] first, like a stored ScaleRows
// intermediate.
template <int R, bool TransA, bool Scaled>
inline void MicroKernel(const double* a, int64_t lda, const double* row_scale,
                        const double* pack, int64_t kw, double* c, int64_t ldc,
                        int64_t jw) {
  __m256d acc[R][2];
  const bool full = jw == kNr;
  __m256i mlo = _mm256_setzero_si256();
  __m256i mhi = _mm256_setzero_si256();
  if (full) {
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_loadu_pd(c + r * ldc);
      acc[r][1] = _mm256_loadu_pd(c + r * ldc + 4);
    }
  } else {
    mlo = LaneMask(std::min<int64_t>(jw, 4));
    mhi = LaneMask(std::max<int64_t>(jw - 4, 0));
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_maskload_pd(c + r * ldc, mlo);
      acc[r][1] = _mm256_maskload_pd(c + r * ldc + 4, mhi);
    }
  }
  for (int64_t kk = 0; kk < kw; ++kk) {
    const __m256d b0 = _mm256_load_pd(pack + kk * kNr);
    const __m256d b1 = _mm256_load_pd(pack + kk * kNr + 4);
    for (int r = 0; r < R; ++r) {
      double av = TransA ? a[kk * lda + r] : a[r * lda + kk];
      if (Scaled) av *= row_scale[r];
      const __m256d avv = _mm256_set1_pd(av);
      acc[r][0] = _mm256_fmadd_pd(avv, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(avv, b1, acc[r][1]);
    }
  }
  if (full) {
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_pd(c + r * ldc, acc[r][0]);
      _mm256_storeu_pd(c + r * ldc + 4, acc[r][1]);
    }
  } else {
    for (int r = 0; r < R; ++r) {
      _mm256_maskstore_pd(c + r * ldc, mlo, acc[r][0]);
      _mm256_maskstore_pd(c + r * ldc + 4, mhi, acc[r][1]);
    }
  }
}

template <bool TransA, bool Scaled>
inline void MicroKernelDispatch(int64_t r, const double* a, int64_t lda,
                                const double* row_scale, const double* pack,
                                int64_t kw, double* c, int64_t ldc,
                                int64_t jw) {
  switch (r) {
    case 3:
      MicroKernel<3, TransA, Scaled>(a, lda, row_scale, pack, kw, c, ldc, jw);
      break;
    case 2:
      MicroKernel<2, TransA, Scaled>(a, lda, row_scale, pack, kw, c, ldc, jw);
      break;
    case 1:
      MicroKernel<1, TransA, Scaled>(a, lda, row_scale, pack, kw, c, ldc, jw);
      break;
    default:
      break;
  }
}

void ScaleAvx2(double* x, int64_t n, double s);

template <bool Scaled>
void GemmAvx2Impl(const double* a, int64_t lda, const double* b, int64_t ldb,
                  double* c, int64_t ldc, int64_t rows, int64_t k, int64_t m,
                  const double* row_scale, double post) {
  // Fixed thread-local pack scratch: the GEMM allocates nothing, so the
  // pool's zero-alloc steady state (tests/pool_test.cc) is preserved.
  alignas(64) static thread_local double pack[kKc * kNr];
  for (int64_t i = 0; i < rows; ++i) {
    std::fill(c + i * ldc, c + i * ldc + m, 0.0);
  }
  for (int64_t jb = 0; jb < m; jb += kNr) {
    const int64_t jw = std::min(kNr, m - jb);
    for (int64_t kb = 0; kb < k; kb += kKc) {
      const int64_t kw = std::min(kKc, k - kb);
      PackB(b + kb * ldb + jb, ldb, kw, jw, pack);
      int64_t i = 0;
      for (; i + kMr <= rows; i += kMr) {
        MicroKernel<kMr, false, Scaled>(a + i * lda + kb, lda,
                                        Scaled ? row_scale + i : nullptr, pack,
                                        kw, c + i * ldc + jb, ldc, jw);
      }
      MicroKernelDispatch<false, Scaled>(rows - i, a + i * lda + kb, lda,
                                         Scaled ? row_scale + i : nullptr,
                                         pack, kw, c + i * ldc + jb, ldc, jw);
    }
  }
  if (post != 1.0) {
    for (int64_t i = 0; i < rows; ++i) ScaleAvx2(c + i * ldc, m, post);
  }
}

void GemmAvx2(const double* a, int64_t lda, const double* b, int64_t ldb,
              double* c, int64_t ldc, int64_t rows, int64_t k, int64_t m,
              const double* row_scale, double post) {
  if (row_scale == nullptr) {
    GemmAvx2Impl<false>(a, lda, b, ldb, c, ldc, rows, k, m, nullptr, post);
  } else {
    GemmAvx2Impl<true>(a, lda, b, ldb, c, ldc, rows, k, m, row_scale, post);
  }
}

void GemmTransAAvx2(const double* a, int64_t lda, const double* b, int64_t ldb,
                    double* c, int64_t ldc, int64_t i0, int64_t i1, int64_t k,
                    int64_t m) {
  alignas(64) static thread_local double pack[kKc * kNr];
  for (int64_t i = i0; i < i1; ++i) {
    std::fill(c + i * ldc, c + i * ldc + m, 0.0);
  }
  for (int64_t jb = 0; jb < m; jb += kNr) {
    const int64_t jw = std::min(kNr, m - jb);
    for (int64_t kb = 0; kb < k; kb += kKc) {
      const int64_t kw = std::min(kKc, k - kb);
      PackB(b + kb * ldb + jb, ldb, kw, jw, pack);
      int64_t i = i0;
      for (; i + kMr <= i1; i += kMr) {
        MicroKernel<kMr, true, false>(a + kb * lda + i, lda, nullptr, pack, kw,
                                      c + i * ldc + jb, ldc, jw);
      }
      MicroKernelDispatch<true, false>(i1 - i, a + kb * lda + i, lda, nullptr,
                                       pack, kw, c + i * ldc + jb, ldc, jw);
    }
  }
}

double DotAvx2(const double* x, const double* y, int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), acc);
  }
  double total = HSum(acc);
  for (; i < n; ++i) total = std::fma(x[i], y[i], total);
  return total;
}

double SumAvx2(const double* x, int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  }
  double total = HSum(acc);
  for (; i < n; ++i) total += x[i];
  return total;
}

double SumSqAvx2(const double* x, int64_t n) { return DotAvx2(x, x, n); }

void GemmTransBAvx2(const double* a, const double* b, double* c, int64_t ldc,
                    int64_t rows, int64_t k, int64_t m, double scale) {
  // 2x4 register tile of independent dot chains for latency hiding;
  // each (i, j) pair owns one accumulator vector, so its bits match a
  // standalone DotAvx2 exactly. HSum4 combines a row's four chains in
  // one step, in HSum's order.
  const int64_t ktail = k - k % 4;
  const __m256d vscale = _mm256_set1_pd(scale);
  int64_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    double* c0 = c + i * ldc;
    double* c1 = c0 + ldc;
    int64_t j = 0;
    for (; j + 4 <= m; j += 4) {
      __m256d acc0[4], acc1[4];
      for (int q = 0; q < 4; ++q) {
        acc0[q] = _mm256_setzero_pd();
        acc1[q] = _mm256_setzero_pd();
      }
      for (int64_t kk = 0; kk < ktail; kk += 4) {
        const __m256d av0 = _mm256_loadu_pd(a0 + kk);
        const __m256d av1 = _mm256_loadu_pd(a1 + kk);
        for (int q = 0; q < 4; ++q) {
          const __m256d bv = _mm256_loadu_pd(b + (j + q) * k + kk);
          acc0[q] = _mm256_fmadd_pd(av0, bv, acc0[q]);
          acc1[q] = _mm256_fmadd_pd(av1, bv, acc1[q]);
        }
      }
      __m256d d0 = HSum4(acc0);
      __m256d d1 = HSum4(acc1);
      if (ktail < k) {
        alignas(32) double t0[4], t1[4];
        _mm256_store_pd(t0, d0);
        _mm256_store_pd(t1, d1);
        for (int q = 0; q < 4; ++q) {
          const double* brow = b + (j + q) * k;
          for (int64_t kk = ktail; kk < k; ++kk) {
            t0[q] = std::fma(a0[kk], brow[kk], t0[q]);
            t1[q] = std::fma(a1[kk], brow[kk], t1[q]);
          }
        }
        d0 = _mm256_load_pd(t0);
        d1 = _mm256_load_pd(t1);
      }
      _mm256_storeu_pd(c0 + j, _mm256_mul_pd(d0, vscale));
      _mm256_storeu_pd(c1 + j, _mm256_mul_pd(d1, vscale));
    }
    for (; j < m; ++j) {
      const double* brow = b + j * k;
      c0[j] = DotAvx2(a0, brow, k) * scale;
      c1[j] = DotAvx2(a1, brow, k) * scale;
    }
  }
  if (i < rows) {
    const double* arow = a + i * k;
    double* crow = c + i * ldc;
    for (int64_t j = 0; j < m; ++j) {
      crow[j] = DotAvx2(arow, b + j * k, k) * scale;
    }
  }
}

void AddAvx2(double* y, const double* x, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void SubAvx2(double* y, const double* x, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void ScaleAvx2(double* x, int64_t n, double s) {
  const __m256d sv = _mm256_set1_pd(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), sv));
  }
  for (; i < n; ++i) x[i] *= s;
}

void HadamardAvx2(double* out, const double* a, const double* b, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                                            _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

// SpMM over one CSR row, columns [0, 4V) of the strip at x / yrow:
// V accumulator vectors stay in registers across the row's entries,
// each lane one chain 0.0 + v_0 x_0 + ... (mul, then add — no FMA),
// stored once at the end. Bit-identical to detail::SpmmScalar.
template <int V>
inline void SpmmRowBlock(const int* col_indices, const double* values, int k0,
                         int k1, const double* x, int64_t ldx, double* yrow) {
  __m256d acc[V];
  for (int q = 0; q < V; ++q) acc[q] = _mm256_setzero_pd();
  for (int k = k0; k < k1; ++k) {
    const __m256d v = _mm256_set1_pd(values[k]);
    const double* xrow = x + static_cast<int64_t>(col_indices[k]) * ldx;
    for (int q = 0; q < V; ++q) {
      acc[q] = _mm256_add_pd(acc[q],
                             _mm256_mul_pd(v, _mm256_loadu_pd(xrow + 4 * q)));
    }
  }
  for (int q = 0; q < V; ++q) _mm256_storeu_pd(yrow + 4 * q, acc[q]);
}

// The last w < 4 columns of a row, through a lane mask (masked-off
// lanes load 0.0 and are never stored).
inline void SpmmRowTail(const int* col_indices, const double* values, int k0,
                        int k1, const double* x, int64_t ldx, double* yrow,
                        int64_t w) {
  const __m256i mask = LaneMask(w);
  __m256d acc = _mm256_setzero_pd();
  for (int k = k0; k < k1; ++k) {
    const __m256d v = _mm256_set1_pd(values[k]);
    const double* xrow = x + static_cast<int64_t>(col_indices[k]) * ldx;
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, _mm256_maskload_pd(xrow, mask)));
  }
  _mm256_maskstore_pd(yrow, mask, acc);
}

void SpmmAvx2(const int* row_offsets, const int* col_indices,
              const double* values, const double* x, double* y, int64_t r0,
              int64_t r1, int64_t cols) {
  for (int64_t r = r0; r < r1; ++r) {
    const int k0 = row_offsets[r];
    const int k1 = row_offsets[r + 1];
    double* yrow = y + r * cols;
    int64_t j = 0;
    for (; j + 32 <= cols; j += 32) {
      SpmmRowBlock<8>(col_indices, values, k0, k1, x + j, cols, yrow + j);
    }
    if (j + 16 <= cols) {
      SpmmRowBlock<4>(col_indices, values, k0, k1, x + j, cols, yrow + j);
      j += 16;
    }
    if (j + 8 <= cols) {
      SpmmRowBlock<2>(col_indices, values, k0, k1, x + j, cols, yrow + j);
      j += 8;
    }
    if (j + 4 <= cols) {
      SpmmRowBlock<1>(col_indices, values, k0, k1, x + j, cols, yrow + j);
      j += 4;
    }
    if (j < cols) {
      SpmmRowTail(col_indices, values, k0, k1, x + j, cols, yrow + j,
                  cols - j);
    }
  }
}

// Mirrors detail::AdamScalar operation-for-operation (no FMA), so the
// update is bit-identical to the scalar table.
void AdamAvx2(double* w, double* m, double* v, const double* g, int64_t n,
              const AdamArgs& args) {
  const __m256d b1 = _mm256_set1_pd(args.beta1);
  const __m256d b2 = _mm256_set1_pd(args.beta2);
  const __m256d omb1 = _mm256_set1_pd(1.0 - args.beta1);
  const __m256d omb2 = _mm256_set1_pd(1.0 - args.beta2);
  const __m256d bc1 = _mm256_set1_pd(args.bc1);
  const __m256d bc2 = _mm256_set1_pd(args.bc2);
  const __m256d lr = _mm256_set1_pd(args.lr);
  const __m256d eps = _mm256_set1_pd(args.eps);
  const __m256d wd = _mm256_set1_pd(args.weight_decay);
  const bool decay = args.weight_decay > 0.0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gv = _mm256_loadu_pd(g + i);
    const __m256d mv = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(omb1, gv));
    _mm256_storeu_pd(m + i, mv);
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(omb2, gv), gv));
    _mm256_storeu_pd(v + i, vv);
    const __m256d m_hat = _mm256_div_pd(mv, bc1);
    const __m256d v_hat = _mm256_div_pd(vv, bc2);
    __m256d delta =
        _mm256_div_pd(m_hat, _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    const __m256d wv = _mm256_loadu_pd(w + i);
    if (decay) delta = _mm256_add_pd(delta, _mm256_mul_pd(wd, wv));
    _mm256_storeu_pd(w + i, _mm256_sub_pd(wv, _mm256_mul_pd(lr, delta)));
  }
  detail::AdamScalar(w + i, m + i, v + i, g + i, n - i, args);
}

// int8 retrieval kernels: 32 bytes per step, each 16-byte half
// sign-extended to i16x16 and pair-summed into i32 lanes with
// _mm256_madd_epi16. All arithmetic is exact integer math, so the
// result equals the scalar reference bit-for-bit regardless of lane
// layout. Per-lane bound at n = kMaxInt8Dim: each madd lane adds at
// most 2 * 254^2 per step over n/32 steps — far below 2^31.
inline int32_t HSumI32(__m256i v) {
  alignas(32) int32_t lane[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), v);
  return lane[0] + lane[1] + lane[2] + lane[3] + lane[4] + lane[5] + lane[6] +
         lane[7];
}

int32_t DotI8Avx2(const int8_t* x, const int8_t* y, int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i yv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i xlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(xv));
    const __m256i ylo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(yv));
    const __m256i xhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(xv, 1));
    const __m256i yhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(yv, 1));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xlo, ylo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xhi, yhi));
  }
  int32_t total = HSumI32(acc);
  for (; i < n; ++i) {
    total += static_cast<int32_t>(x[i]) * static_cast<int32_t>(y[i]);
  }
  return total;
}

int32_t L2I8Avx2(const int8_t* x, const int8_t* y, int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i yv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i dlo = _mm256_sub_epi16(
        _mm256_cvtepi8_epi16(_mm256_castsi256_si128(xv)),
        _mm256_cvtepi8_epi16(_mm256_castsi256_si128(yv)));
    const __m256i dhi = _mm256_sub_epi16(
        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(xv, 1)),
        _mm256_cvtepi8_epi16(_mm256_extracti128_si256(yv, 1)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dlo, dlo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(dhi, dhi));
  }
  int32_t total = HSumI32(acc);
  for (; i < n; ++i) {
    const int32_t d = static_cast<int32_t>(x[i]) - static_cast<int32_t>(y[i]);
    total += d * d;
  }
  return total;
}

const KernelTable kAvx2Table = {
    Isa::kAvx2,   GemmAvx2,  GemmTransAAvx2, GemmTransBAvx2,
    DotAvx2,      SumAvx2,   SumSqAvx2,      AddAvx2,
    SubAvx2,      ScaleAvx2, HadamardAvx2,   SpmmAvx2,
    AdamAvx2,     DotI8Avx2, L2I8Avx2,
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

}  // namespace simd
}  // namespace gradgcl

#endif  // GRADGCL_SIMD_AVX2
