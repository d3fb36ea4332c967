#include "tensor/ops.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace fedtune::ops {

namespace {

// ---------------------------------------------------------------------------
// Blocked GEMM kernels.
//
// All three layout variants funnel into one register-blocked, cache-tiled
// kernel that computes C += A @ B with A (m,k) and B (k,n) row-major. The
// transposed variants (nt/tn) first pack the transposed operand into a
// thread-local scratch panel so the hot loop always streams contiguously.
//
// Every block of C is held in registers as Rows x kNr accumulators: each
// loaded B vector is reused Rows times, which is what buys the throughput
// over the naive row-streaming loop (the retained *_naive_raw kernels
// below). Two accumulation modes exist, and each output element always
// takes the same one (see src/README.md, Row invariance):
//  - micro_kernel (full 6- and 4-row blocks of full kNr-wide column panels)
//    sums each k tile from zero, then adds the tile sum to C;
//  - edge_kernel (the n % kNr column tail and the final 1-3 rows) starts
//    from C and chains every multiply-add onto it, the same per-element
//    order as a loop that updates C once per k step.
// ---------------------------------------------------------------------------

constexpr std::size_t kMr = 6;    // C rows per register block
constexpr std::size_t kNr = 16;   // C cols per register block
// k-tile: keeps the B panel slice in cache. Within one tile every path
// accumulates each C element in the same order, so rows are invariant.
constexpr std::size_t kKc = kGemmRowInvariantMaxK;

// Per-thread packing scratch, reused across calls so steady-state training
// does no allocation here: tl_pack holds the transposed operand of the
// nt/tn variants, tl_panels holds the kNr-wide B column panels (see
// pack_b_panels).
thread_local std::vector<float> tl_pack;
thread_local std::vector<float> tl_panels;

// acc[Rows, kNr] += A rows i..i+Rows over k-slice [p0, p1) times the kNr
// columns at b, row p at b + p * ldb. For unpacked row-major B, b points at
// the block's first column; for a packed panel, ldb = kNr and every B
// access is a contiguous stream. Rows is a compile-time constant so the
// r-loops fully unroll and acc stays in registers.
template <std::size_t Rows>
inline void block_fma(float (&acc)[Rows][kNr], const float* __restrict a,
                      std::size_t lda, const float* __restrict b,
                      std::size_t ldb, std::size_t i, std::size_t p0,
                      std::size_t p1) {
  const float* __restrict arow[Rows];
  for (std::size_t r = 0; r < Rows; ++r) arow[r] = a + (i + r) * lda;
  for (std::size_t p = p0; p < p1; ++p) {
    const float* __restrict brow = b + p * ldb;
    float av[Rows];
    for (std::size_t r = 0; r < Rows; ++r) av[r] = arow[r][p];
    for (std::size_t r = 0; r < Rows; ++r) {
#pragma omp simd
      for (std::size_t t = 0; t < kNr; ++t) acc[r][t] += av[r] * brow[t];
    }
  }
}

// C[Rows, kNr] block at rows i, cols j += the k-slice [p0, p1) sum,
// accumulated from zero. Instantiated at kMr (main blocks) and 4 (the
// >= 4-row remainder). Both kernels stay out of line: inlined into
// gemm_tiled, they made full-panel shapes such as 64x24x16 ~10% slower
// (AVX-512 Xeon, GCC 12).
template <std::size_t Rows>
[[gnu::noinline]] void micro_kernel(const float* __restrict a,
                                    std::size_t lda,
                                    const float* __restrict b,
                                    std::size_t ldb, float* __restrict c,
                                    std::size_t ldc, std::size_t i,
                                    std::size_t j, std::size_t p0,
                                    std::size_t p1) {
  static_assert(Rows >= 1 && Rows <= kMr);
  float acc[Rows][kNr] = {};
  block_fma<Rows>(acc, a, lda, b, ldb, i, p0, p1);
  for (std::size_t r = 0; r < Rows; ++r) {
    float* __restrict crow = c + (i + r) * ldc + j;
#pragma omp simd
    for (std::size_t t = 0; t < kNr; ++t) crow[t] += acc[r][t];
  }
}

// C[Rows, cols] block at rows i, cols j (cols <= kNr) += the k-slice
// [p0, p1), chained from C: the accumulators start from the live C values
// and only those cols are stored back. For cols < kNr, B must be a
// zero-padded kNr-wide panel so the dead lanes read no memory past B.
template <std::size_t Rows>
[[gnu::noinline]] void edge_kernel(const float* __restrict a,
                                   std::size_t lda,
                                   const float* __restrict b,
                                   std::size_t ldb, float* __restrict c,
                                   std::size_t ldc, std::size_t i,
                                   std::size_t j, std::size_t cols,
                                   std::size_t p0, std::size_t p1) {
  static_assert(Rows >= 1 && Rows <= kMr);
  float acc[Rows][kNr];
  for (std::size_t r = 0; r < Rows; ++r) {
    const float* __restrict crow = c + (i + r) * ldc + j;
#pragma omp simd
    for (std::size_t t = 0; t < kNr; ++t) {
      acc[r][t] = t < cols ? crow[t] : 0.0f;
    }
  }
  block_fma<Rows>(acc, a, lda, b, ldb, i, p0, p1);
  for (std::size_t r = 0; r < Rows; ++r) {
    float* __restrict crow = c + (i + r) * ldc + j;
#pragma omp simd
    for (std::size_t t = 0; t < kNr; ++t) {
      if (t < cols) crow[t] = acc[r][t];
    }
  }
}

// edge_kernel with a run-time row count, rows in {1, 2, 3, 4, kMr}.
void edge_block(std::size_t rows, const float* a, std::size_t lda,
                const float* b, std::size_t ldb, float* c, std::size_t ldc,
                std::size_t i, std::size_t j, std::size_t cols, std::size_t p0,
                std::size_t p1) {
  switch (rows) {
    case 1: return edge_kernel<1>(a, lda, b, ldb, c, ldc, i, j, cols, p0, p1);
    case 2: return edge_kernel<2>(a, lda, b, ldb, c, ldc, i, j, cols, p0, p1);
    case 3: return edge_kernel<3>(a, lda, b, ldb, c, ldc, i, j, cols, p0, p1);
    case 4: return edge_kernel<4>(a, lda, b, ldb, c, ldc, i, j, cols, p0, p1);
    default:
      return edge_kernel<kMr>(a, lda, b, ldb, c, ldc, i, j, cols, p0, p1);
  }
}

// Repacks the column panels of B (k,n) into panel-major layout: panel q
// (columns [q*kNr, q*kNr + kNr)) occupies k*kNr contiguous floats, row p at
// offset q*k*kNr + p*kNr. The kernels then stream B sequentially instead of
// striding ldb floats per k step (which aliases in L1 for power-of-two n).
// Columns [q_lo*kNr, n) are packed; the n % kNr tail goes into a final
// panel whose dead lanes are zero.
void pack_b_panels(const float* __restrict b, std::size_t ldb, std::size_t k,
                   std::size_t q_lo, std::size_t n, float* __restrict dst) {
  for (std::size_t q = q_lo; q * kNr < n; ++q) {
    float* __restrict panel = dst + (q - q_lo) * k * kNr;
    const float* __restrict src = b + q * kNr;
    const std::size_t cols = std::min(kNr, n - q * kNr);
    for (std::size_t p = 0; p < k; ++p) {
#pragma omp simd
      for (std::size_t t = 0; t < kNr; ++t) {
        panel[p * kNr + t] = t < cols ? src[p * ldb + t] : 0.0f;
      }
    }
  }
}

// C (m,n) += A (m,k) @ B (k,n), all row-major with explicit leading dims.
void gemm_tiled(const float* __restrict a, std::size_t lda,
                const float* __restrict b, std::size_t ldb, float* __restrict c,
                std::size_t ldc, std::size_t m, std::size_t k, std::size_t n) {
  const std::size_t n_full = n / kNr;
  const std::size_t n_panels = (n + kNr - 1) / kNr;

  // Packing the full-width panels pays once A has enough rows to reuse each
  // one; the zero-padded tail panel is packed whenever n % kNr != 0.
  const std::size_t q_lo = m >= 4 * kMr ? 0 : n_full;
  if (q_lo < n_panels) {
    if (tl_panels.size() < (n_panels - q_lo) * k * kNr) {
      tl_panels.resize((n_panels - q_lo) * k * kNr);
    }
    pack_b_panels(b, ldb, k, q_lo, n, tl_panels.data());
  }
  const float* panels = tl_panels.data();

  // Rows in 6-row blocks, then a 4-row block if >= 4 rows remain, then the
  // final 0-3 rows. Full 6- and 4-row blocks of full panels go to
  // micro_kernel, the column tail and the final rows to edge_kernel.
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    std::size_t rows = 0;
    for (std::size_t i = 0; i < m; i += rows) {
      rows = m - i >= kMr ? kMr : (m - i >= 4 ? 4 : m - i);
      for (std::size_t q = 0; q < n_panels; ++q) {
        const std::size_t j = q * kNr;
        const float* bq = q >= q_lo ? panels + (q - q_lo) * k * kNr : b + j;
        const std::size_t ldbq = q >= q_lo ? kNr : ldb;
        if (q < n_full && rows == kMr) {
          micro_kernel<kMr>(a, lda, bq, ldbq, c, ldc, i, j, p0, p1);
        } else if (q < n_full && rows == 4) {
          micro_kernel<4>(a, lda, bq, ldbq, c, ldc, i, j, p0, p1);
        } else {
          edge_block(rows, a, lda, bq, ldbq, c, ldc, i, j,
                     std::min(kNr, n - j), p0, p1);
        }
      }
    }
  }
}

// Packs the transpose of src (rows x cols, leading dim = cols) into dst so
// dst is (cols x rows) row-major. Blocked to keep both sides cache-friendly.
void pack_transposed(const float* __restrict src, std::size_t rows,
                     std::size_t cols, float* __restrict dst) {
  constexpr std::size_t kB = 32;
  for (std::size_t r0 = 0; r0 < rows; r0 += kB) {
    const std::size_t r1 = std::min(rows, r0 + kB);
    for (std::size_t c0 = 0; c0 < cols; c0 += kB) {
      const std::size_t c1 = std::min(cols, c0 + kB);
      for (std::size_t r = r0; r < r1; ++r) {
        const float* __restrict s = src + r * cols;
        for (std::size_t c = c0; c < c1; ++c) dst[c * rows + r] = s[c];
      }
    }
  }
}

void gemm_impl(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (k == 0) return;
  gemm_tiled(a, k, b, n, c, n, m, k, n);
}

// C[i0:i1, j0:j1] += A rows · B rows as direct dot products (both operands
// contiguous along k in the nt layout). Used for small shapes and for the
// block-remainder edges of the packed nt path.
void nt_dot_range(const float* __restrict a, const float* __restrict b,
                  float* __restrict c, std::size_t k, std::size_t n,
                  std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t j1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* __restrict arow = a + i * k;
    float* __restrict crow = c + i * n;
    for (std::size_t j = j0; j < j1; ++j) {
      const float* __restrict brow = b + j * k;
      float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void gemm_nt_impl(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (k == 0) return;
  const std::size_t n_main = n - n % kNr;
  if (m >= 2 * kMr && n_main > 0) {
    // Pack B^T straight into kNr-wide column panels (single O(kn) pass —
    // no intermediate row-major transpose): panel q, row p, lane t holds
    // B[q*kNr + t][p]. Amortized over the O(mkn) multiply.
    if (tl_pack.size() < k * n_main) tl_pack.resize(k * n_main);
    for (std::size_t q = 0; q < n_main / kNr; ++q) {
      float* __restrict panel = tl_pack.data() + q * k * kNr;
      const float* __restrict src = b + q * kNr * k;
      for (std::size_t p = 0; p < k; ++p) {
        for (std::size_t t = 0; t < kNr; ++t) {
          panel[p * kNr + t] = src[t * k + p];
        }
      }
    }
    const std::size_t m_main = m - m % kMr;
    const std::size_t m_tail4 = (m - m_main >= 4) ? m_main + 4 : m_main;
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t p1 = std::min(k, p0 + kKc);
      for (std::size_t i = 0; i < m_tail4; i += (i < m_main ? kMr : 4)) {
        const bool full = i < m_main;
        for (std::size_t j = 0; j < n_main; j += kNr) {
          const float* panel = tl_pack.data() + (j / kNr) * k * kNr;
          if (full) {
            micro_kernel<kMr>(a, k, panel, kNr, c, n, i, j, p0, p1);
          } else {
            micro_kernel<4>(a, k, panel, kNr, c, n, i, j, p0, p1);
          }
        }
      }
    }
    // Remainders straight off the original B: the nt layout makes them
    // contiguous dot products, so no row-major B^T is ever materialized.
    nt_dot_range(a, b, c, k, n, 0, m_tail4, n_main, n);
    nt_dot_range(a, b, c, k, n, m_tail4, m, 0, n);
    return;
  }
  // Few output rows (or narrower than one panel): plain dot products.
  nt_dot_range(a, b, c, k, n, 0, m, 0, n);
}

void gemm_tn_impl(const float* a, const float* b, float* c, std::size_t k,
                  std::size_t m, std::size_t n, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (k == 0) return;
  if (m >= 2 * kMr || n < kNr) {
    // Pack A^T (k,m -> m,k) so the kernels stream A rows contiguously.
    if (tl_pack.size() < k * m) tl_pack.resize(k * m);
    pack_transposed(a, k, m, tl_pack.data());
    gemm_tiled(tl_pack.data(), k, b, n, c, n, m, k, n);
    return;
  }
  // Few output rows of at least one full panel: stream B rows, accumulate
  // into C.
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict arow = a + p * m;
    const float* __restrict brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* __restrict crow = c + i * n;
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace

// ------------------------------------------------------ reference kernels --
// The original scalar loops, retained verbatim as the correctness reference
// for the blocked kernels (tests only; the library never calls them).

void gemm_naive_raw(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_naive_raw(const float* a, const float* b, float* c, std::size_t m,
                       std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void gemm_tn_naive_raw(const float* a, const float* b, float* c, std::size_t k,
                       std::size_t m, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.rows());
  out.ensure_shape(a.rows(), b.cols());
  gemm_naive_raw(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(),
                 false);
}

// -------------------------------------------------------- public kernels --

void gemm_raw(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, bool accumulate) {
  gemm_impl(a, b, c, m, k, n, accumulate);
}

void gemm_nt_raw(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate) {
  gemm_nt_impl(a, b, c, m, k, n, accumulate);
}

void gemm_tn_raw(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t m, std::size_t n, bool accumulate) {
  gemm_tn_impl(a, b, c, k, m, n, accumulate);
}

void gemm(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.rows());
  out.ensure_shape(a.rows(), b.cols());
  gemm_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(), false);
}

void gemm_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.rows());
  FEDTUNE_CHECK(out.rows() == a.rows() && out.cols() == b.cols());
  gemm_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(), true);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.cols());
  out.ensure_shape(a.rows(), b.rows());
  gemm_nt_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows(),
               false);
}

void gemm_nt_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.cols() == b.cols());
  FEDTUNE_CHECK(out.rows() == a.rows() && out.cols() == b.rows());
  gemm_nt_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows(),
               true);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.rows() == b.rows());
  out.ensure_shape(a.cols(), b.cols());
  gemm_tn_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(),
               false);
}

void gemm_tn_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDTUNE_CHECK(a.rows() == b.rows());
  FEDTUNE_CHECK(out.rows() == a.cols() && out.cols() == b.cols());
  gemm_tn_impl(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(),
               true);
}

// ------------------------------------------------------------ elementwise --

void add_row_bias(Matrix& x, std::span<const float> bias) {
  FEDTUNE_CHECK(x.cols() == bias.size());
  const std::size_t n = x.cols();
  const float* __restrict bp = bias.data();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* __restrict row = x.data() + r * n;
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) row[c] += bp[c];
  }
}

void add_row_bias_relu(Matrix& x, std::span<const float> bias) {
  FEDTUNE_CHECK(x.cols() == bias.size());
  const std::size_t n = x.cols();
  const float* __restrict bp = bias.data();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* __restrict row = x.data() + r * n;
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) {
      const float v = row[c] + bp[c];
      row[c] = v > 0.0f ? v : 0.0f;
    }
  }
}

void col_sums_acc(const Matrix& grad, std::span<float> bias_grad) {
  FEDTUNE_CHECK(grad.cols() == bias_grad.size());
  const std::size_t n = grad.cols();
  float* __restrict acc = bias_grad.data();
  for (std::size_t r = 0; r < grad.rows(); ++r) {
    const float* __restrict row = grad.data() + r * n;
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) acc[c] += row[c];
  }
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  FEDTUNE_CHECK(x.size() == y.size());
  const float* __restrict xp = x.data();
  float* __restrict yp = y.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) yp[i] += alpha * xp[i];
}

void scale(std::span<float> x, float alpha) {
  float* __restrict xp = x.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) xp[i] *= alpha;
}

float dot(std::span<const float> a, std::span<const float> b) {
  FEDTUNE_CHECK(a.size() == b.size());
  const float* __restrict ap = a.data();
  const float* __restrict bp = b.data();
  const std::size_t n = a.size();
  float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
  for (std::size_t i = 0; i < n; ++i) acc += ap[i] * bp[i];
  return acc;
}

float l2_norm(std::span<const float> x) { return std::sqrt(dot(x, x)); }

void relu(const Matrix& x, Matrix& y) {
  y.ensure_shape(x.rows(), x.cols());
  const float* __restrict in = x.data();
  float* __restrict out = y.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

void relu_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in) {
  FEDTUNE_CHECK(y.same_shape(grad_out));
  grad_in.ensure_shape(y.rows(), y.cols());
  const float* __restrict yp = y.data();
  const float* __restrict go = grad_out.data();
  float* __restrict gi = grad_in.data();
  const std::size_t n = y.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) gi[i] = yp[i] > 0.0f ? go[i] : 0.0f;
}

void tanh_forward(const Matrix& x, Matrix& y) {
  y.ensure_shape(x.rows(), x.cols());
  const float* __restrict in = x.data();
  float* __restrict out = y.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = tanh(in[i]);
}

void tanh_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in) {
  FEDTUNE_CHECK(y.same_shape(grad_out));
  grad_in.ensure_shape(y.rows(), y.cols());
  const float* __restrict yp = y.data();
  const float* __restrict go = grad_out.data();
  float* __restrict gi = grad_in.data();
  const std::size_t n = y.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) gi[i] = go[i] * (1.0f - yp[i] * yp[i]);
}

void sigmoid(const Matrix& x, Matrix& y) {
  y.ensure_shape(x.rows(), x.cols());
  const float* __restrict in = x.data();
  float* __restrict out = y.data();
  const std::size_t n = x.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = sigmoid(in[i]);
}

void sigmoid_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in) {
  FEDTUNE_CHECK(y.same_shape(grad_out));
  grad_in.ensure_shape(y.rows(), y.cols());
  const float* __restrict yp = y.data();
  const float* __restrict go = grad_out.data();
  float* __restrict gi = grad_in.data();
  const std::size_t n = y.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) gi[i] = go[i] * yp[i] * (1.0f - yp[i]);
}

namespace {

float row_max(const float* in, std::size_t n) {
  float mx = -std::numeric_limits<float>::infinity();
#pragma omp simd reduction(max : mx)
  for (std::size_t c = 0; c < n; ++c) mx = std::max(mx, in[c]);
  return mx;
}

// out[c] = exp(in[c] - mx) for one row of n (out may be in); returns the
// row's sum.
float exp_shifted_row(const float* in, float mx, float* out, std::size_t n) {
  float total = 0.0f;
#pragma omp simd reduction(+ : total)
  for (std::size_t c = 0; c < n; ++c) {
    out[c] = exp(in[c] - mx);
    total += out[c];
  }
  return total;
}

}  // namespace

void softmax_rows(const Matrix& logits, Matrix& probs) {
  probs.ensure_shape(logits.rows(), logits.cols());
  const std::size_t n = logits.cols();
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.data() + r * n;
    float* out = probs.data() + r * n;
    const float inv = 1.0f / exp_shifted_row(in, row_max(in, n), out, n);
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) out[c] *= inv;
  }
}

double softmax_cross_entropy(const Matrix& logits,
                             std::span<const std::int32_t> labels,
                             Matrix& grad_logits) {
  FEDTUNE_CHECK(logits.rows() == labels.size());
  const std::size_t batch = logits.rows();
  const std::size_t n = logits.cols();
  grad_logits.ensure_shape(batch, n);
  const float inv_batch = 1.0f / static_cast<float>(batch);
  double loss = 0.0;
  for (std::size_t r = 0; r < batch; ++r) {
    const auto label = static_cast<std::size_t>(labels[r]);
    FEDTUNE_CHECK(label < n);
    const float* in = logits.data() + r * n;
    float* grow = grad_logits.data() + r * n;
    const float mx = row_max(in, n);
    const float x_label = in[label];
    const float total = exp_shifted_row(in, mx, grow, n);
    // -log p[label] in log-sum-exp form, so it needs no floor when
    // p[label] underflows.
    loss += std::log(static_cast<double>(total)) -
            (static_cast<double>(x_label) - static_cast<double>(mx));
    const float scale = inv_batch / total;
#pragma omp simd
    for (std::size_t c = 0; c < n; ++c) grow[c] *= scale;
    grow[label] -= inv_batch;
  }
  return loss / static_cast<double>(batch);
}

std::size_t argmax_row(const Matrix& m, std::size_t row) {
  FEDTUNE_CHECK(row < m.rows() && m.cols() > 0);
  const float* r = m.data() + row * m.cols();
  std::size_t best = 0;
  for (std::size_t c = 1; c < m.cols(); ++c) {
    if (r[c] > r[best]) best = c;
  }
  return best;
}

std::size_t count_errors(const Matrix& logits,
                         std::span<const std::int32_t> labels) {
  FEDTUNE_CHECK(logits.rows() == labels.size());
  std::size_t errors = 0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    if (argmax_row(logits, r) != static_cast<std::size_t>(labels[r])) ++errors;
  }
  return errors;
}

}  // namespace fedtune::ops
