// Blocked-GEMM correctness: every layout/accumulate variant must match the
// retained naive reference kernels across shapes that exercise the register
// block (4x16), the k-tile boundary (256), and odd remainders in every
// dimension.
#include "tensor/ops.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace fedtune
