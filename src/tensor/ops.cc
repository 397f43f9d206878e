#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "tensor/simd.h"

namespace gradgcl {

namespace {

// Row grain so each chunk carries at least ~2^15 multiply-adds.
int64_t RowGrain(int64_t work_per_row) {
  constexpr int64_t kMinWorkPerChunk = 1 << 15;
  if (work_per_row <= 0) return 1;
  const int64_t grain = kMinWorkPerChunk / work_per_row;
  return grain < 1 ? 1 : grain;
}

// Cost-model hint (common/parallel.h) for transcendental-heavy
// elementwise work: exp/log/tanh cost roughly this many FLOP
// equivalents each.
constexpr int64_t kTranscendentalCost = 16;

// GEMM tile grains for ParallelFor2D: at least 8 output rows (two
// 3/2-row microkernel passes plus slack) and 64 output columns (eight
// kNr=8 B panels) per tile, so each tile amortizes its panel packs.
constexpr int64_t kGemmRowGrain = 8;
constexpr int64_t kGemmColGrain = 64;

}  // namespace

// The dense products below parallelize over 2-D (row-strip x
// column-strip) tiles of the output and hand each tile to the active
// SIMD kernel table (tensor/simd.h) via pointer offsets — C(r0:r1,
// c0:c1) = A(r0:r1, :) * B(:, c0:c1) with the original leading
// dimensions. Per output element the accumulation order is fixed by
// the kernel's blocking — kk ascending, never split across tiles, and
// independent of which SIMD lane or tile the element lands in — so
// results are bit-identical for any thread count in either SIMD mode.
// Each ParallelFor2D passes cost_per_cell = 2k (one madd per k step),
// which keeps small products (matmul_64/128) on the direct serial
// call. Matrix buffers are 64-byte aligned by construction
// (tensor/pool.cc); tile-offset pointers may not be, so the kernels
// use unaligned vector loads.

namespace {

// MatMul's tiles; with a bias (1 x m), each tile row then gets its
// slice of the bias through the table's add, exactly as AddRowBroadcast
// would add it to the stored product.
Matrix GemmTiles(const Matrix& a, const Matrix& b, const double* bias) {
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  Matrix out = Matrix::Uninitialized(a.rows(), b.cols());
  const double* adata = a.data();
  const double* bdata = b.data();
  double* odata = out.data();
  GRADGCL_DCHECK(simd::IsAligned64(adata) && simd::IsAligned64(bdata) &&
                 simd::IsAligned64(odata));
  const simd::KernelTable& kt = simd::Active();
  ParallelFor2D(n, m, kGemmRowGrain, kGemmColGrain, /*cost_per_cell=*/2 * k,
                [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
                  kt.gemm(adata + r0 * k, k, bdata + c0, m,
                          odata + r0 * m + c0, m, r1 - r0, k, c1 - c0,
                          /*row_scale=*/nullptr, /*post=*/1.0);
                  if (bias == nullptr) return;
                  for (int64_t r = r0; r < r1; ++r) {
                    kt.add(odata + r * m + c0, bias + c0, c1 - c0);
                  }
                });
  return out;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  GRADGCL_CHECK_MSG(a.cols() == b.rows(), "MatMul shape mismatch");
  return GemmTiles(a, b, /*bias=*/nullptr);
}

Matrix MatMulBias(const Matrix& x, const Matrix& w, const Matrix& b) {
  GRADGCL_CHECK_MSG(x.cols() == w.rows(), "MatMulBias shape mismatch");
  GRADGCL_CHECK_MSG(b.rows() == 1 && b.cols() == w.cols(),
                    "MatMulBias bias must be 1 x out");
  return GemmTiles(x, w, b.data());
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  GRADGCL_CHECK_MSG(a.rows() == b.rows(), "MatMulTransA shape mismatch");
  const int64_t n = a.cols(), k = a.rows(), m = b.cols();
  Matrix out = Matrix::Uninitialized(a.cols(), b.cols());
  const double* adata = a.data();
  const double* bdata = b.data();
  double* odata = out.data();
  GRADGCL_DCHECK(simd::IsAligned64(adata) && simd::IsAligned64(bdata) &&
                 simd::IsAligned64(odata));
  const simd::KernelTable& kt = simd::Active();
  // Each tile owns output rows [r0, r1) (a column strip of a) and
  // output columns [c0, c1) (a column strip of b).
  ParallelFor2D(n, m, kGemmRowGrain, kGemmColGrain, /*cost_per_cell=*/2 * k,
                [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
                  kt.gemm_transa(adata, n, bdata + c0, m, odata + c0, m, r0,
                                 r1, k, c1 - c0);
                });
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  GRADGCL_CHECK_MSG(a.cols() == b.cols(), "MatMulTransB shape mismatch");
  const int64_t n = a.rows(), k = a.cols(), m = b.rows();
  Matrix out = Matrix::Uninitialized(a.rows(), b.rows());
  const double* adata = a.data();
  const double* bdata = b.data();
  double* odata = out.data();
  GRADGCL_DCHECK(simd::IsAligned64(adata) && simd::IsAligned64(bdata) &&
                 simd::IsAligned64(odata));
  const simd::KernelTable& kt = simd::Active();
  // Output column c is b's row c, so a column tile starts at row c0 of
  // b — each output element is one complete dot product.
  ParallelFor2D(n, m, kGemmRowGrain, kGemmColGrain, /*cost_per_cell=*/2 * k,
                [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
                  kt.gemm_transb(adata + r0 * k, bdata + c0 * k,
                                 odata + r0 * m + c0, m, r1 - r0, k, c1 - c0,
                                 /*scale=*/1.0);
                });
  return out;
}

Matrix MatMulTransBScaled(const Matrix& a, const Matrix& b, double scale) {
  GRADGCL_CHECK_MSG(a.cols() == b.cols(), "MatMulTransBScaled shape mismatch");
  const int64_t n = a.rows(), k = a.cols(), m = b.rows();
  Matrix out = Matrix::Uninitialized(a.rows(), b.rows());
  const double* adata = a.data();
  const double* bdata = b.data();
  double* odata = out.data();
  const simd::KernelTable& kt = simd::Active();
  // Same dot kernel as MatMulTransB; each dot product completes before
  // the scale is applied, so the bits match ScalarMul(MatMulTransB(a,
  // b)) in either SIMD mode.
  ParallelFor2D(n, m, kGemmRowGrain, kGemmColGrain, /*cost_per_cell=*/2 * k,
                [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
                  kt.gemm_transb(adata + r0 * k, bdata + c0 * k,
                                 odata + r0 * m + c0, m, r1 - r0, k, c1 - c0,
                                 scale);
                });
  return out;
}

void MaskedExpRowSum(const Matrix& s, Matrix* exp_out, Matrix* rowsum_out) {
  GRADGCL_CHECK(s.rows() == s.cols());
  GRADGCL_CHECK(exp_out != nullptr && rowsum_out != nullptr);
  const int64_t n = s.rows();
  Matrix e = Matrix::Uninitialized(s.rows(), s.cols());
  Matrix rs = Matrix::Uninitialized(s.rows(), 1);
  const double* sdata = s.data();
  double* edata = e.data();
  double* rdata = rs.data();
  const simd::KernelTable& kt = simd::Active();
  // The unfused path stores exp(s_ii) * 0.0 == +0.0 on the diagonal and
  // its RowSum adds that zero in place; summing the stored row with the
  // same `sum` kernel RowSum uses reproduces those bits exactly.
  ParallelFor(0, n, RowGrain(n), /*cost_per_iter=*/n * kTranscendentalCost,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double* srow = sdata + i * n;
      double* erow = edata + i * n;
      for (int64_t j = 0; j < n; ++j) {
        erow[j] = j == i ? 0.0 : std::exp(srow[j]);
      }
      rdata[i] = kt.sum(erow, n);
    }
  });
  *exp_out = std::move(e);
  *rowsum_out = std::move(rs);
}

Matrix ScaleRowsMatMulScaled(const Matrix& a, const Matrix& row_scale,
                             const Matrix& b, double post) {
  GRADGCL_CHECK(row_scale.rows() == a.rows() && row_scale.cols() == 1);
  GRADGCL_CHECK_MSG(a.cols() == b.rows(), "ScaleRowsMatMulScaled mismatch");
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  Matrix out = Matrix::Uninitialized(a.rows(), b.cols());
  const double* adata = a.data();
  const double* sdata = row_scale.data();
  const double* bdata = b.data();
  double* odata = out.data();
  const simd::KernelTable& kt = simd::Active();
  // MatMul's gemm kernel with the row scale folded into av (the product
  // a(i, kk) * s_i is rounded first, exactly like the stored ScaleRows
  // intermediate) and the post scale applied once per output element
  // after its accumulation completes — bit-identical to
  // ScalarMul(MatMul(ScaleRows(a, row_scale), b), post) in either SIMD
  // mode.
  ParallelFor2D(n, m, kGemmRowGrain, kGemmColGrain, /*cost_per_cell=*/2 * k,
                [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
                  kt.gemm(adata + r0 * k, k, bdata + c0, m,
                          odata + r0 * m + c0, m, r1 - r0, k, c1 - c0,
                          sdata + r0, post);
                });
  return out;
}

Matrix OffDiagSigmoid(const Matrix& s) {
  GRADGCL_CHECK(s.rows() == s.cols());
  const int64_t n = s.rows();
  Matrix out = Matrix::Uninitialized(s.rows(), s.cols());
  const double* sdata = s.data();
  double* odata = out.data();
  // sigmoid(s_ii) * 0.0 == +0.0 in the unfused mask path.
  ParallelFor(0, n, RowGrain(n), /*cost_per_iter=*/n * kTranscendentalCost,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double* srow = sdata + i * n;
      double* orow = odata + i * n;
      for (int64_t j = 0; j < n; ++j) {
        orow[j] = j == i ? 0.0 : 1.0 / (1.0 + std::exp(-srow[j]));
      }
    }
  });
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  GRADGCL_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  const double* adata = a.data();
  const double* bdata = b.data();
  double* odata = out.data();
  const simd::KernelTable& kt = simd::Active();
  ParallelFor(0, a.size(), kElementwiseGrain, /*cost_per_iter=*/2,
              [&](int64_t begin, int64_t end) {
                kt.hadamard(odata + begin, adata + begin, bdata + begin,
                            end - begin);
              });
  return out;
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out += b;
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out -= b;
  return out;
}

Matrix operator*(const Matrix& a, double s) {
  Matrix out = a;
  out *= s;
  return out;
}

Matrix operator*(double s, const Matrix& a) { return a * s; }

Matrix Exp(const Matrix& a) {
  return Map(a, [](double v) { return std::exp(v); }, kTranscendentalCost);
}

Matrix Log(const Matrix& a) {
  return Map(a, [](double v) { return std::log(v); }, kTranscendentalCost);
}

Matrix Tanh(const Matrix& a) {
  return Map(a, [](double v) { return std::tanh(v); }, kTranscendentalCost);
}

Matrix Sqrt(const Matrix& a) {
  return Map(a, [](double v) { return std::sqrt(v); }, kTranscendentalCost);
}

Matrix Abs(const Matrix& a) {
  return Map(a, [](double v) { return std::abs(v); });
}

Matrix Relu(const Matrix& a) {
  return Map(a, [](double v) { return v > 0.0 ? v : 0.0; });
}

// Row-wise kernels parallelize over rows: every output element is a
// reduction along one row, computed entirely inside one chunk with the
// active table's fixed lane order, so any thread count produces
// identical bits. Column-wise reductions (ColSum/ColMean) use a
// fixed-shape binary reduction tree over 64-row leaf blocks — the tree
// shape depends only on the row count, never on the thread count, so
// they parallelize without breaking the bit-identity contract.

Matrix RowSum(const Matrix& a) {
  const int64_t cols = a.cols();
  Matrix out = Matrix::Uninitialized(a.rows(), 1);
  const double* adata = a.data();
  double* odata = out.data();
  const simd::KernelTable& kt = simd::Active();
  ParallelFor(0, a.rows(), RowGrain(cols), /*cost_per_iter=*/cols,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      odata[i] = kt.sum(adata + i * cols, cols);
    }
  });
  return out;
}

Matrix RowMean(const Matrix& a) {
  GRADGCL_CHECK(a.cols() > 0);
  Matrix out = RowSum(a);
  out *= 1.0 / a.cols();
  return out;
}

Matrix RowMax(const Matrix& a) {
  GRADGCL_CHECK(a.cols() > 0);
  const int64_t cols = a.cols();
  Matrix out = Matrix::Uninitialized(a.rows(), 1);
  const double* adata = a.data();
  double* odata = out.data();
  ParallelFor(0, a.rows(), RowGrain(cols), /*cost_per_iter=*/cols,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double* arow = adata + i * cols;
      double best = arow[0];
      for (int64_t j = 1; j < cols; ++j) best = std::max(best, arow[j]);
      odata[i] = best;
    }
  });
  return out;
}

// Leaf size of the ColSum reduction tree. A pure function of the
// matrix shape (NOT the thread count): rows are summed i-ascending
// inside fixed 64-row blocks, and block partials combine pairwise —
// ((b0+b1)+(b2+b3))+... — the same fixed-shape combine the SIMD lane
// chains pin. Leaves and combine strips may execute on any thread in
// any order; the per-column reduction order never changes, so ColSum
// is bit-identical for every pool size (including 1) and both values
// of GRADGCL_POOL.
namespace {
constexpr int64_t kColReduceBlock = 64;
}  // namespace

Matrix ColSum(const Matrix& a) {
  const int64_t rows = a.rows(), cols = a.cols();
  Matrix out = Matrix::Uninitialized(1, cols);
  double* odata = out.data();
  if (rows == 0) {
    std::fill(odata, odata + cols, 0.0);
    return out;
  }
  const double* adata = a.data();
  const int64_t nblocks = (rows + kColReduceBlock - 1) / kColReduceBlock;
  // Scratch rides the pool inside a TapeScope, keeping the training
  // step zero-alloc.
  Matrix partial = Matrix::Uninitialized(nblocks, cols);
  double* pdata = partial.data();
  // Leaves: block b sums its rows i-ascending into one partial row.
  ParallelFor(0, nblocks, 1, /*cost_per_iter=*/kColReduceBlock * cols,
              [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const int64_t r0 = b * kColReduceBlock;
      const int64_t r1 = std::min(rows, r0 + kColReduceBlock);
      double* prow = pdata + b * cols;
      std::copy(adata + r0 * cols, adata + (r0 + 1) * cols, prow);
      for (int64_t i = r0 + 1; i < r1; ++i) {
        const double* arow = adata + i * cols;
        for (int64_t j = 0; j < cols; ++j) prow[j] += arow[j];
      }
    }
  });
  // Tree combine: each column strip walks the whole fixed tree
  // (stride-doubling pairwise adds); per-column order is independent
  // of the strip partition.
  ParallelFor(0, cols, 256, /*cost_per_iter=*/nblocks,
              [&](int64_t c0, int64_t c1) {
    for (int64_t stride = 1; stride < nblocks; stride *= 2) {
      for (int64_t b = 0; b + stride < nblocks; b += 2 * stride) {
        double* dst = pdata + b * cols;
        const double* src = pdata + (b + stride) * cols;
        for (int64_t j = c0; j < c1; ++j) dst[j] += src[j];
      }
    }
  });
  std::copy(pdata, pdata + cols, odata);
  return out;
}

Matrix ColMean(const Matrix& a) {
  GRADGCL_CHECK(a.rows() > 0);
  Matrix out = ColSum(a);
  out *= 1.0 / a.rows();
  return out;
}

Matrix RowNorms(const Matrix& a) {
  const int64_t cols = a.cols();
  Matrix out = Matrix::Uninitialized(a.rows(), 1);
  const double* adata = a.data();
  double* odata = out.data();
  const simd::KernelTable& kt = simd::Active();
  ParallelFor(0, a.rows(), RowGrain(cols), /*cost_per_iter=*/2 * cols,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      odata[i] = std::sqrt(kt.sumsq(adata + i * cols, cols));
    }
  });
  return out;
}

Matrix RowNormalize(const Matrix& a, double eps) {
  const int64_t cols = a.cols();
  Matrix out = a;
  double* odata = out.data();
  const simd::KernelTable& kt = simd::Active();
  // Same sumsq kernel as RowNorms, so both see the same norm bits.
  ParallelFor(0, a.rows(), RowGrain(cols), /*cost_per_iter=*/3 * cols,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* orow = odata + i * cols;
      const double norm = std::sqrt(kt.sumsq(orow, cols));
      if (norm < eps) continue;
      kt.scale(orow, cols, 1.0 / norm);
    }
  });
  return out;
}

Matrix RowSoftmax(const Matrix& a) {
  GRADGCL_CHECK(a.cols() > 0);
  const int64_t cols = a.cols();
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  const double* adata = a.data();
  double* odata = out.data();
  ParallelFor(0, a.rows(), RowGrain(cols),
              /*cost_per_iter=*/cols * (kTranscendentalCost + 4),
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double* arow = adata + i * cols;
      double* orow = odata + i * cols;
      double mx = arow[0];
      for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, arow[j]);
      double z = 0.0;
      for (int64_t j = 0; j < cols; ++j) {
        const double e = std::exp(arow[j] - mx);
        orow[j] = e;
        z += e;
      }
      const double inv = 1.0 / z;
      for (int64_t j = 0; j < cols; ++j) orow[j] *= inv;
    }
  });
  return out;
}

Matrix CosineSimilarityMatrix(const Matrix& a, const Matrix& b) {
  GRADGCL_CHECK(a.cols() == b.cols());
  return MatMulTransB(RowNormalize(a), RowNormalize(b));
}

Matrix SquaredDistanceMatrix(const Matrix& a, const Matrix& b) {
  GRADGCL_CHECK(a.cols() == b.cols());
  const Matrix dots = MatMulTransB(a, b);
  const Matrix a2 = RowNorms(a);
  const Matrix b2 = RowNorms(b);
  const int64_t m = b.rows();
  Matrix out = Matrix::Uninitialized(a.rows(), b.rows());
  const double* ddata = dots.data();
  double* odata = out.data();
  ParallelFor(0, a.rows(), RowGrain(m), /*cost_per_iter=*/6 * m,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double ai = a2.at_flat(i) * a2.at_flat(i);
      const double* drow = ddata + i * m;
      double* orow = odata + i * m;
      for (int64_t j = 0; j < m; ++j) {
        const double bj = b2.at_flat(j) * b2.at_flat(j);
        orow[j] = std::max(0.0, ai + bj - 2.0 * drow[j]);
      }
    }
  });
  return out;
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  GRADGCL_CHECK(row.rows() == 1 && row.cols() == a.cols());
  const int64_t cols = a.cols();
  Matrix out = a;
  const double* rdata = row.data();
  double* odata = out.data();
  const simd::KernelTable& kt = simd::Active();
  ParallelFor(0, a.rows(), RowGrain(cols), /*cost_per_iter=*/cols,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      kt.add(odata + i * cols, rdata, cols);
    }
  });
  return out;
}

Matrix SegmentSum(const Matrix& a, const std::vector<int>& segments,
                  int num_segments) {
  GRADGCL_CHECK(static_cast<int>(segments.size()) == a.rows());
  Matrix out(num_segments, a.cols(), 0.0);
  const int64_t cols = a.cols();
  const double* src = a.data();
  double* dst = out.data();
  for (int i = 0; i < a.rows(); ++i) {
    const int s = segments[i];
    GRADGCL_CHECK(s >= 0 && s < num_segments);
    const double* row = src + i * cols;
    double* acc = dst + s * cols;
    for (int64_t j = 0; j < cols; ++j) acc[j] += row[j];
  }
  return out;
}

Matrix SegmentMean(const Matrix& a, const std::vector<int>& segments,
                   int num_segments, std::vector<double>* counts) {
  std::vector<double> local;
  std::vector<double>& n = counts != nullptr ? *counts : local;
  n.assign(num_segments, 0.0);
  // SegmentSum checks every segment id before n is indexed by it.
  Matrix out = SegmentSum(a, segments, num_segments);
  for (int s : segments) n[s] += 1.0;
  const int64_t cols = a.cols();
  double* dst = out.data();
  for (int s = 0; s < num_segments; ++s) {
    if (n[s] > 0.0) {
      const double inv = 1.0 / n[s];
      double* row = dst + s * cols;
      for (int64_t j = 0; j < cols; ++j) row[j] *= inv;
    }
  }
  return out;
}

Matrix ScaleRows(const Matrix& a, const Matrix& scale) {
  GRADGCL_CHECK(scale.rows() == a.rows() && scale.cols() == 1);
  const int64_t cols = a.cols();
  Matrix out = a;
  const double* sdata = scale.data();
  double* odata = out.data();
  const simd::KernelTable& kt = simd::Active();
  ParallelFor(0, a.rows(), RowGrain(cols), /*cost_per_iter=*/cols,
              [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      kt.scale(odata + i * cols, cols, sdata[i]);
    }
  });
  return out;
}

Matrix VStack(const Matrix& a, const Matrix& b) {
  GRADGCL_CHECK(a.cols() == b.cols());
  Matrix out = Matrix::Uninitialized(a.rows() + b.rows(), a.cols());
  std::copy(a.data(), a.data() + a.size(), out.data());
  std::copy(b.data(), b.data() + b.size(), out.data() + a.size());
  return out;
}

Matrix HStack(const Matrix& a, const Matrix& b) {
  GRADGCL_CHECK(a.rows() == b.rows());
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols() + b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) out(i, j) = a(i, j);
    for (int j = 0; j < b.cols(); ++j) out(i, a.cols() + j) = b(i, j);
  }
  return out;
}

}  // namespace gradgcl
