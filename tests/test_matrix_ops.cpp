#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace fedtune {
namespace {

Matrix make(std::size_t r, std::size_t c, std::vector<float> v) {
  return Matrix::from_rows(r, c, std::move(v));
}

// Reference gemm for cross-checking the optimized kernels.
Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < a.cols(); ++p) acc += a(i, p) * b(p, j);
      out(i, j) = acc;
    }
  }
  return out;
}

TEST(Matrix, BasicAccessors) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m.at(0, 1), 7.0f);
  EXPECT_THROW(m.at(2, 0), std::invalid_argument);
  EXPECT_THROW(m.at(0, 3), std::invalid_argument);
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 2);
  auto row = m.row(1);
  row[0] = 3.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 3.0f);
  EXPECT_THROW(m.row(5), std::invalid_argument);
}

TEST(Ops, GemmMatchesNaive) {
  Rng rng(1);
  for (auto [m, k, n] : {std::tuple{3u, 4u, 5u}, std::tuple{1u, 7u, 2u},
                         std::tuple{8u, 8u, 8u}}) {
    const Matrix a = Matrix::randn(m, k, rng);
    const Matrix b = Matrix::randn(k, n, rng);
    Matrix out;
    ops::gemm(a, b, out);
    const Matrix ref = naive_gemm(a, b);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_NEAR(out.flat()[i], ref.flat()[i], 1e-4f);
    }
  }
}

TEST(Ops, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2), out;
  EXPECT_THROW(ops::gemm(a, b, out), std::invalid_argument);
}

TEST(Ops, GemmNtMatchesTransposedGemm) {
  Rng rng(2);
  const Matrix a = Matrix::randn(3, 4, rng);
  const Matrix bt = Matrix::randn(5, 4, rng);  // b = bt^T is (4,5)
  Matrix b(4, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) b(j, i) = bt(i, j);
  }
  Matrix out_nt, out_ref;
  ops::gemm_nt(a, bt, out_nt);
  ops::gemm(a, b, out_ref);
  for (std::size_t i = 0; i < out_nt.size(); ++i) {
    EXPECT_NEAR(out_nt.flat()[i], out_ref.flat()[i], 1e-4f);
  }
}

TEST(Ops, GemmTnMatchesTransposedGemm) {
  Rng rng(3);
  const Matrix at = Matrix::randn(4, 3, rng);  // a = at^T is (3,4)
  const Matrix b = Matrix::randn(4, 5, rng);
  Matrix a(3, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(j, i) = at(i, j);
  }
  Matrix out_tn, out_ref;
  ops::gemm_tn(at, b, out_tn);
  ops::gemm(a, b, out_ref);
  for (std::size_t i = 0; i < out_tn.size(); ++i) {
    EXPECT_NEAR(out_tn.flat()[i], out_ref.flat()[i], 1e-4f);
  }
}

TEST(Ops, AccumulatingVariantsAdd) {
  Rng rng(4);
  const Matrix a = Matrix::randn(2, 3, rng);
  const Matrix b = Matrix::randn(3, 2, rng);
  Matrix out;
  ops::gemm(a, b, out);
  const Matrix once = out;
  ops::gemm_acc(a, b, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.flat()[i], 2.0f * once.flat()[i], 1e-4f);
  }
}

TEST(Ops, RawGemmMatchesMatrixGemm) {
  Rng rng(5);
  const Matrix a = Matrix::randn(4, 6, rng);
  const Matrix b = Matrix::randn(6, 3, rng);
  Matrix ref;
  ops::gemm(a, b, ref);
  std::vector<float> out(4 * 3, 0.0f);
  ops::gemm_raw(a.data(), b.data(), out.data(), 4, 6, 3, false);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], ref.flat()[i]);
  }
}

TEST(Ops, AddRowBiasAndColSums) {
  Matrix x = make(2, 3, {1, 2, 3, 4, 5, 6});
  const std::vector<float> bias = {10, 20, 30};
  ops::add_row_bias(x, bias);
  EXPECT_FLOAT_EQ(x(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(x(1, 2), 36.0f);

  std::vector<float> sums(3, 0.0f);
  ops::col_sums_acc(x, sums);
  EXPECT_FLOAT_EQ(sums[0], 11.0f + 14.0f);
  EXPECT_FLOAT_EQ(sums[2], 33.0f + 36.0f);
}

TEST(Ops, AxpyScaleDotNorm) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {1, 1, 1};
  ops::axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y[2], 7.0f);
  ops::scale(y, 0.5f);
  EXPECT_FLOAT_EQ(y[0], 1.5f);
  EXPECT_FLOAT_EQ(ops::dot(x, x), 14.0f);
  EXPECT_FLOAT_EQ(ops::l2_norm(std::vector<float>{3.0f, 4.0f}), 5.0f);
}

TEST(Ops, ReluForwardBackward) {
  const Matrix x = make(1, 4, {-1, 0, 2, -3});
  Matrix y;
  ops::relu(x, y);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
  const Matrix g = make(1, 4, {1, 1, 1, 1});
  Matrix gx;
  ops::relu_backward(y, g, gx);
  EXPECT_FLOAT_EQ(gx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gx(0, 2), 1.0f);
}

TEST(Ops, TanhSigmoidBackwardViaFiniteDifference) {
  const double h = 1e-4;
  for (float v : {-1.5f, -0.2f, 0.0f, 0.7f, 2.0f}) {
    Matrix x = make(1, 1, {v});
    Matrix y, yp, ym;
    ops::tanh_forward(x, y);
    Matrix xp = make(1, 1, {static_cast<float>(v + h)});
    Matrix xm = make(1, 1, {static_cast<float>(v - h)});
    ops::tanh_forward(xp, yp);
    ops::tanh_forward(xm, ym);
    const double numeric = (yp(0, 0) - ym(0, 0)) / (2 * h);
    Matrix g = make(1, 1, {1.0f}), gx;
    ops::tanh_backward(y, g, gx);
    EXPECT_NEAR(gx(0, 0), numeric, 1e-3);

    ops::sigmoid(x, y);
    ops::sigmoid(xp, yp);
    ops::sigmoid(xm, ym);
    const double numeric_s = (yp(0, 0) - ym(0, 0)) / (2 * h);
    ops::sigmoid_backward(y, g, gx);
    EXPECT_NEAR(gx(0, 0), numeric_s, 1e-3);
  }
}

// Spacing of floats at |v|: the unit of the exp error bound.
double float_ulp(double v) {
  const float f = static_cast<float>(std::fabs(v));
  return static_cast<double>(
      std::nextafter(f, std::numeric_limits<float>::infinity()) - f);
}

TEST(Ops, TanhWithinAbsErrorBoundOfDoublePrecision) {
  double worst = 0.0;
  for (int i = -2'000'000; i <= 2'000'000; ++i) {
    const float x = static_cast<float>(i) * 1e-5f;
    worst = std::max(worst, std::fabs(static_cast<double>(ops::tanh(x)) -
                                      std::tanh(static_cast<double>(x))));
  }
  // The small-argument branch and its boundary at |x| = 4e-4.
  for (float x = 1e-30f; x < 1e-2f; x *= 1.001f) {
    for (const float v : {x, -x}) {
      worst = std::max(worst, std::fabs(static_cast<double>(ops::tanh(v)) -
                                        std::tanh(static_cast<double>(v))));
    }
  }
  EXPECT_LE(worst, 5e-7);
}

TEST(Ops, ExpWithinTwoUlpOfDoublePrecision) {
  double worst_ulps = 0.0;
  for (int i = -870'000; i <= 880'000; ++i) {
    const float x = static_cast<float>(i) * 1e-4f;
    const double ref = std::exp(static_cast<double>(x));
    worst_ulps = std::max(worst_ulps,
                          std::fabs(static_cast<double>(ops::exp(x)) - ref) /
                              float_ulp(ref));
  }
  EXPECT_LE(worst_ulps, 2.0);
}

// Hides a value from constant folding, so the checks below exercise the
// run-time code rather than the compiler's evaluation of it.
float at_run_time(float v) {
  volatile float x = v;
  return x;
}

TEST(Ops, ActivationSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto tanh = [](float v) { return ops::tanh(at_run_time(v)); };
  const auto exp = [](float v) { return ops::exp(at_run_time(v)); };
  const auto sigmoid = [](float v) { return ops::sigmoid(at_run_time(v)); };
  // NaN stays NaN, so a diverged config stays diverged.
  EXPECT_TRUE(std::isnan(tanh(nan)));
  EXPECT_TRUE(std::isnan(exp(nan)));
  EXPECT_TRUE(std::isnan(sigmoid(nan)));
  EXPECT_EQ(tanh(inf), 1.0f);
  EXPECT_EQ(tanh(-inf), -1.0f);
  EXPECT_EQ(tanh(1e30f), 1.0f);
  EXPECT_EQ(tanh(-1e30f), -1.0f);
  EXPECT_EQ(tanh(0.0f), 0.0f);
  EXPECT_FALSE(std::signbit(tanh(0.0f)));
  EXPECT_TRUE(std::signbit(tanh(-0.0f)));
  EXPECT_EQ(exp(-inf), 0.0f);
  EXPECT_EQ(exp(-200.0f), 0.0f);
  EXPECT_EQ(exp(-1e30f), 0.0f);
  EXPECT_EQ(exp(0.0f), 1.0f);
  EXPECT_EQ(exp(inf), inf);
  EXPECT_EQ(exp(100.0f), inf);
  // Subnormal results underflow gradually, not straight to 0.
  EXPECT_GT(exp(-100.0f), 0.0f);
  EXPECT_NEAR(exp(-100.0f), std::exp(-100.0), 2e-45);
  EXPECT_EQ(sigmoid(inf), 1.0f);
  EXPECT_EQ(sigmoid(-inf), 0.0f);

  // The Matrix kernels give the same special values.
  const Matrix x = make(1, 5, {nan, inf, -inf, -0.0f, 1.0f});
  Matrix y;
  ops::tanh_forward(x, y);
  EXPECT_TRUE(std::isnan(y(0, 0)));
  EXPECT_EQ(y(0, 1), 1.0f);
  EXPECT_EQ(y(0, 2), -1.0f);
  EXPECT_TRUE(std::signbit(y(0, 3)));
  ops::sigmoid(x, y);
  EXPECT_TRUE(std::isnan(y(0, 0)));
  EXPECT_EQ(y(0, 1), 1.0f);
  EXPECT_EQ(y(0, 2), 0.0f);
  const std::vector<std::int32_t> label = {4};
  Matrix grad;
  EXPECT_TRUE(std::isnan(ops::softmax_cross_entropy(x, label, grad)));
}

// tanh_forward's vector body and scalar remainder must agree bitwise: every
// element of an N-element call equals a 1x1 call on that element. TextMlp's
// argmax table relies on tanh being purely per-element.
TEST(Ops, TanhForwardIsPositionInvariant) {
  Rng rng(41);
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            7.90531110763549805f, -0.0f, 3e-4f, 12.0f};
  for (std::size_t n = 1; n <= 67; ++n) {
    Matrix x = Matrix::randn(1, n, rng);
    for (std::size_t i = 0; i < n; ++i) {
      x.flat()[i] = i % 5 == 0 ? specials[(i / 5 + n) % std::size(specials)]
                               : x.flat()[i] * (i % 3 == 0 ? 9.0f : 2.0f);
    }
    Matrix y;
    ops::tanh_forward(x, y);
    for (std::size_t i = 0; i < n; ++i) {
      Matrix one;
      ops::tanh_forward(make(1, 1, {x.flat()[i]}), one);
      EXPECT_EQ(std::memcmp(&y.flat()[i], &one.flat()[0], sizeof(float)), 0)
          << "n=" << n << " i=" << i << " x=" << x.flat()[i];
    }
  }
}

TEST(Ops, FusedCrossEntropyMatchesDoubleReference) {
  Rng rng(29);
  constexpr std::size_t kBatch = 9;
  for (const std::size_t n : {10u, 16u, 24u, 32u}) {
    Matrix logits = Matrix::randn(kBatch, n, rng);
    for (float& v : logits.flat()) v *= 3.0f;
    std::vector<std::int32_t> labels(kBatch);
    for (std::size_t r = 0; r < kBatch; ++r) {
      labels[r] = static_cast<std::int32_t>((r * 7 + n) % n);
    }
    Matrix grad;
    const double loss = ops::softmax_cross_entropy(logits, labels, grad);

    double ref_loss = 0.0;
    for (std::size_t r = 0; r < kBatch; ++r) {
      double mx = -1e300;
      for (std::size_t c = 0; c < n; ++c) mx = std::max(mx, double{logits(r, c)});
      double total = 0.0;
      for (std::size_t c = 0; c < n; ++c) total += std::exp(logits(r, c) - mx);
      const auto label = static_cast<std::size_t>(labels[r]);
      ref_loss += std::log(total) - (logits(r, label) - mx);
      for (std::size_t c = 0; c < n; ++c) {
        const double p = std::exp(logits(r, c) - mx) / total;
        const double ref = (p - (c == label ? 1.0 : 0.0)) / kBatch;
        EXPECT_NEAR(grad(r, c), ref, 1e-6) << "n=" << n << " r=" << r;
      }
    }
    EXPECT_NEAR(loss, ref_loss / kBatch, 1e-6) << "n=" << n;
  }
}

TEST(Ops, SoftmaxRowsSumToOneAndOrder) {
  const Matrix logits = make(2, 3, {1, 2, 3, -1, -1, 5});
  Matrix probs;
  ops::softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) total += probs(r, c);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  EXPECT_GT(probs(0, 2), probs(0, 1));
  EXPECT_GT(probs(1, 2), 0.99f);
}

TEST(Ops, SoftmaxNumericallyStable) {
  const Matrix logits = make(1, 2, {1000.0f, 999.0f});
  Matrix probs;
  ops::softmax_rows(logits, probs);
  EXPECT_FALSE(std::isnan(probs(0, 0)));
  EXPECT_GT(probs(0, 0), probs(0, 1));
}

TEST(Ops, CrossEntropyMatchesManual) {
  const Matrix logits = make(1, 3, {0.0f, 1.0f, 2.0f});
  const std::vector<std::int32_t> labels = {2};
  Matrix grad;
  const double loss = ops::softmax_cross_entropy(logits, labels, grad);
  // Manual: log-sum-exp(0,1,2) - 2
  const double lse = std::log(std::exp(0.0) + std::exp(1.0) + std::exp(2.0));
  EXPECT_NEAR(loss, lse - 2.0, 1e-5);
  // Gradient sums to 0 across classes for a single example.
  EXPECT_NEAR(grad(0, 0) + grad(0, 1) + grad(0, 2), 0.0f, 1e-6f);
  EXPECT_LT(grad(0, 2), 0.0f);  // true-class grad negative
}

TEST(Ops, CrossEntropyGradientFiniteDifference) {
  Rng rng(6);
  Matrix logits = Matrix::randn(3, 4, rng);
  const std::vector<std::int32_t> labels = {1, 3, 0};
  Matrix grad;
  ops::softmax_cross_entropy(logits, labels, grad);
  const double h = 1e-3;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Matrix lp = logits, lm = logits;
    lp.flat()[i] += static_cast<float>(h);
    lm.flat()[i] -= static_cast<float>(h);
    Matrix tmp;
    const double fp = ops::softmax_cross_entropy(lp, labels, tmp);
    const double fm = ops::softmax_cross_entropy(lm, labels, tmp);
    EXPECT_NEAR(grad.flat()[i], (fp - fm) / (2 * h), 1e-3);
  }
}

TEST(Ops, CountErrorsAndArgmax) {
  const Matrix logits = make(3, 2, {1, 0, 0, 1, 1, 0});
  EXPECT_EQ(ops::argmax_row(logits, 0), 0u);
  EXPECT_EQ(ops::argmax_row(logits, 1), 1u);
  const std::vector<std::int32_t> labels = {0, 0, 0};
  EXPECT_EQ(ops::count_errors(logits, labels), 1u);
}

TEST(Ops, CrossEntropyRejectsBadLabel) {
  const Matrix logits = make(1, 2, {0.0f, 0.0f});
  const std::vector<std::int32_t> labels = {5};
  Matrix grad;
  EXPECT_THROW(ops::softmax_cross_entropy(logits, labels, grad),
               std::invalid_argument);
}

}  // namespace
}  // namespace fedtune
