// Blocked-GEMM correctness: every layout/accumulate variant must match the
// retained naive reference kernels across shapes that exercise the register
// block (4x16), the k-tile boundary (256), and odd remainders in every
// dimension.
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "tensor/matrix.hpp"

namespace fedtune {
namespace {

// (m, k, n) shapes: tiny, sub-block, exact-block, odd remainders, and
// k crossing the 256-wide cache tile.
const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> kShapes = {
    {1, 1, 1},   {1, 7, 1},    {2, 3, 5},    {3, 1, 17},   {4, 16, 16},
    {5, 9, 15},  {7, 33, 19},  {8, 64, 32},  {12, 31, 48}, {16, 257, 16},
    {17, 5, 33}, {23, 300, 41}, {64, 64, 64}, {1, 300, 40},
};

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float mx = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::abs(a[i] - b[i]));
  }
  return mx;
}

// Tolerance scales with the reduction length: blocked kernels sum in a
// different order than the reference, so results differ by float rounding.
float tol(std::size_t k) { return 1e-5f * static_cast<float>(k + 1); }

std::vector<float> random_buf(std::size_t n, Rng& rng, bool with_zeros) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix in exact zeros: the old kernels special-cased them, the blocked
    // ones must not care.
    if (with_zeros && i % 7 == 0) {
      v[i] = 0.0f;
    } else {
      v[i] = static_cast<float>(rng.normal());
    }
  }
  return v;
}

TEST(GemmBlocked, MatchesNaiveNN) {
  Rng rng(42);
  for (const auto& [m, k, n] : kShapes) {
    for (bool accumulate : {false, true}) {
      const auto a = random_buf(m * k, rng, true);
      const auto b = random_buf(k * n, rng, false);
      auto c_ref = random_buf(m * n, rng, false);
      auto c_new = c_ref;
      ops::gemm_naive_raw(a.data(), b.data(), c_ref.data(), m, k, n, accumulate);
      ops::gemm_raw(a.data(), b.data(), c_new.data(), m, k, n, accumulate);
      EXPECT_LE(max_abs_diff(c_ref, c_new), tol(k))
          << "nn m=" << m << " k=" << k << " n=" << n << " acc=" << accumulate;
    }
  }
}

TEST(GemmBlocked, MatchesNaiveNT) {
  Rng rng(43);
  for (const auto& [m, k, n] : kShapes) {
    for (bool accumulate : {false, true}) {
      const auto a = random_buf(m * k, rng, true);
      const auto b = random_buf(n * k, rng, false);
      auto c_ref = random_buf(m * n, rng, false);
      auto c_new = c_ref;
      ops::gemm_nt_naive_raw(a.data(), b.data(), c_ref.data(), m, k, n,
                             accumulate);
      ops::gemm_nt_raw(a.data(), b.data(), c_new.data(), m, k, n, accumulate);
      EXPECT_LE(max_abs_diff(c_ref, c_new), tol(k))
          << "nt m=" << m << " k=" << k << " n=" << n << " acc=" << accumulate;
    }
  }
}

TEST(GemmBlocked, MatchesNaiveTN) {
  Rng rng(44);
  for (const auto& [m, k, n] : kShapes) {
    for (bool accumulate : {false, true}) {
      const auto a = random_buf(k * m, rng, true);
      const auto b = random_buf(k * n, rng, false);
      auto c_ref = random_buf(m * n, rng, false);
      auto c_new = c_ref;
      ops::gemm_tn_naive_raw(a.data(), b.data(), c_ref.data(), k, m, n,
                             accumulate);
      ops::gemm_tn_raw(a.data(), b.data(), c_new.data(), k, m, n, accumulate);
      EXPECT_LE(max_abs_diff(c_ref, c_new), tol(k))
          << "tn m=" << m << " k=" << k << " n=" << n << " acc=" << accumulate;
    }
  }
}

TEST(GemmBlocked, MatrixWrappersMatchNaive) {
  Rng rng(45);
  const Matrix a = Matrix::randn(13, 37, rng);
  const Matrix b = Matrix::randn(37, 21, rng);
  Matrix ref, out;
  ops::gemm_naive(a, b, ref);
  ops::gemm(a, b, out);
  ASSERT_TRUE(ref.same_shape(out));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(ref.flat()[i], out.flat()[i], tol(37));
  }
}

TEST(GemmBlocked, FusedBiasReluMatchesSeparate) {
  Rng rng(46);
  Matrix x = Matrix::randn(9, 35, rng);
  Matrix y = x;
  std::vector<float> bias(35);
  for (auto& v : bias) v = static_cast<float>(rng.normal());

  ops::add_row_bias(x, bias);
  Matrix relu_ref;
  ops::relu(x, relu_ref);
  ops::add_row_bias_relu(y, bias);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(relu_ref.flat()[i], y.flat()[i]);
  }
}

// Row invariance (ops.hpp kGemmRowInvariantMaxK): each output row of a
// sub-batch GEMM must be bitwise equal to the same row of the full batch,
// whatever the batch size and row offset. Batch sizes cover the 6-row
// micro-kernel, the 4-row block, the 1-3 row edge path and the packed-B
// threshold; TextMlp's argmax table relies on this to evaluate windows in
// one batch instead of per client.
TEST(GemmBlocked, OutputRowsInvariantToBatchSizeAndOffset) {
  constexpr std::size_t kRows = 1024;
  const std::vector<std::size_t> batches = {1, 4, 5, 6, 7, 23, 24, 25, 576,
                                            1024};
  const std::vector<std::size_t> depths = {1, 16, 24, 32, 100,
                                           ops::kGemmRowInvariantMaxK};
  const std::vector<std::size_t> widths = {10, 16, 17, 24, 32};
  Rng rng(47);
  for (std::size_t k : depths) {
    for (std::size_t n : widths) {
      const auto a = random_buf(kRows * k, rng, true);
      const auto b = random_buf(k * n, rng, false);
      std::vector<float> full(kRows * n);
      ops::gemm_raw(a.data(), b.data(), full.data(), kRows, k, n, false);
      for (std::size_t m : batches) {
        for (std::size_t offset : {std::size_t{0}, std::size_t{1},
                                   std::size_t{5}, kRows - m}) {
          if (offset + m > kRows) continue;
          std::vector<float> part(m * n);
          ops::gemm_raw(a.data() + offset * k, b.data(), part.data(), m, k, n,
                        false);
          EXPECT_EQ(std::memcmp(part.data(), full.data() + offset * n,
                                part.size() * sizeof(float)),
                    0)
              << "k=" << k << " n=" << n << " m=" << m
              << " offset=" << offset;
        }
      }
    }
  }
}

// ------------------------------------------- row-streaming reference --
// The loops the register-blocked edge kernel replaced, kept verbatim as the
// bitwise reference: edge_rows (the n % 16 column tail and the final 1-3
// rows of gemm_raw) and gemm_tn's p-outer streaming loop. Both chain each
// C element's multiply-adds from its current value, one k step at a time.
// Full 6- and 4-row blocks of full 16-wide panels sum each 256-deep k tile
// from zero and then add it to C, modelled here by ref_tile_sum. The block
// sizes mirror tensor/ops.cpp.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
constexpr std::size_t kKc = ops::kGemmRowInvariantMaxK;

inline void edge_rows(const float* __restrict a, std::size_t lda,
                      const float* __restrict b, std::size_t ldb,
                      float* __restrict c, std::size_t ldc, std::size_t i0,
                      std::size_t i1, std::size_t j0, std::size_t j1,
                      std::size_t p0, std::size_t p1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* __restrict arow = a + i * lda;
    float* __restrict crow = c + i * ldc;
    for (std::size_t p = p0; p < p1; ++p) {
      const float av = arow[p];
      const float* __restrict brow = b + p * ldb;
#pragma omp simd
      for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
    }
  }
}

void ref_tile_sum(const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float* c, std::size_t ldc, std::size_t i0,
                  std::size_t i1, std::size_t j0, std::size_t j1,
                  std::size_t p0, std::size_t p1) {
  std::vector<float> acc(j1 - j0);
  for (std::size_t i = i0; i < i1; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (std::size_t p = p0; p < p1; ++p) {
      const float av = a[i * lda + p];
      for (std::size_t j = j0; j < j1; ++j) acc[j - j0] += av * b[p * ldb + j];
    }
    for (std::size_t j = j0; j < j1; ++j) c[i * ldc + j] += acc[j - j0];
  }
}

void ref_gemm_tiled(const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc, std::size_t m,
                    std::size_t k, std::size_t n) {
  const std::size_t m_main = m - m % kMr;
  const std::size_t n_main = n - n % kNr;
  const std::size_t m_tail4 = (m - m_main >= 4) ? m_main + 4 : m_main;
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t p1 = std::min(k, p0 + kKc);
    for (std::size_t i = 0; i < m_tail4; i += (i < m_main ? kMr : 4)) {
      const std::size_t i1 = i + (i < m_main ? kMr : 4);
      ref_tile_sum(a, lda, b, ldb, c, ldc, i, i1, 0, n_main, p0, p1);
      edge_rows(a, lda, b, ldb, c, ldc, i, i1, n_main, n, p0, p1);
    }
    edge_rows(a, lda, b, ldb, c, ldc, m_tail4, m, 0, n, p0, p1);
  }
}

void ref_gemm_raw(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  ref_gemm_tiled(a, k, b, n, c, n, m, k, n);
}

void ref_gemm_tn_raw(const float* a, const float* b, float* c, std::size_t k,
                     std::size_t m, std::size_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (m >= 2 * kMr && n >= kNr) {
    std::vector<float> at(m * k);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t i = 0; i < m; ++i) at[i * k + p] = a[p * m + i];
    }
    ref_gemm_tiled(at.data(), k, b, n, c, n, m, k, n);
    return;
  }
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

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The edge blocks must reproduce the row-streaming loops bit for bit: that
// is what keeps pools byte-identical. Every m in 1..40 covers the 6-row,
// 4-row and 1-3-row blocks; n covers every column tail width, with and
// without full panels; k crosses the 256-deep tile once and twice, so an
// edge block's chain from C is checked across tiles, on a random non-zero
// C when accumulating.
TEST(GemmBlocked, EdgeBlocksMatchRowStreamingReferenceBitwise) {
  std::vector<std::size_t> widths;
  for (std::size_t n = 1; n <= 17; ++n) widths.push_back(n);
  for (std::size_t n : {24, 31, 32, 33, 40}) widths.push_back(n);
  Rng rng(48);
  for (std::size_t k : {1, 5, 256, 257, 513}) {
    for (std::size_t n : widths) {
      const auto b = random_buf(k * n, rng, false);
      for (std::size_t m = 1; m <= 40; ++m) {
        const auto a = random_buf(m * k, rng, true);
        for (bool accumulate : {false, true}) {
          const auto c0 = random_buf(m * n, rng, false);
          auto ref = c0;
          auto got = c0;
          ref_gemm_raw(a.data(), b.data(), ref.data(), m, k, n, accumulate);
          ops::gemm_raw(a.data(), b.data(), got.data(), m, k, n, accumulate);
          ASSERT_TRUE(bitwise_equal(ref, got))
              << "nn m=" << m << " k=" << k << " n=" << n
              << " acc=" << accumulate;
          ref = c0;
          got = c0;
          // a read as (k, m): the tn operand of the same size.
          ref_gemm_tn_raw(a.data(), b.data(), ref.data(), k, m, n, accumulate);
          ops::gemm_tn_raw(a.data(), b.data(), got.data(), k, m, n, accumulate);
          ASSERT_TRUE(bitwise_equal(ref, got))
              << "tn m=" << m << " k=" << k << " n=" << n
              << " acc=" << accumulate;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fedtune
