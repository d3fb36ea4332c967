// Compute kernels over Matrix / raw float spans.
//
// Conventions: out-parameters come last; all shapes are validated with
// FEDTUNE_CHECK (these kernels are called per minibatch, not per element, so
// the checks are cheap relative to the math they guard).
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"

namespace fedtune::ops {

// out = a @ b          (m,k) x (k,n) -> (m,n)
void gemm(const Matrix& a, const Matrix& b, Matrix& out);
// out = a @ b^T        (m,k) x (n,k) -> (m,n)
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& out);
// out = a^T @ b        (k,m) x (k,n) -> (m,n)
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& out);

// Accumulating variants: out += ...
void gemm_acc(const Matrix& a, const Matrix& b, Matrix& out);
void gemm_nt_acc(const Matrix& a, const Matrix& b, Matrix& out);
void gemm_tn_acc(const Matrix& a, const Matrix& b, Matrix& out);

// Raw-pointer kernels for operands living inside a flat parameter store
// (weights are spans of a ParamStore, not Matrix objects).
// c[m,n] (+)= a[m,k] @ b[k,n]
void gemm_raw(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, bool accumulate);
// c[m,n] (+)= a[m,k] @ b[n,k]^T
void gemm_nt_raw(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate);
// c[m,n] (+)= a[k,m]^T @ b[k,n]
void gemm_tn_raw(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t m, std::size_t n, bool accumulate);

// Row invariance: for k <= kGemmRowInvariantMaxK (one k tile), every output
// row of gemm_raw is bitwise the same whatever m is and wherever the row sits
// in A; rows past that depth may round differently in edge rows. Table
// evaluation of TextMlp relies on this (tests/test_gemm_kernels.cpp).
inline constexpr std::size_t kGemmRowInvariantMaxK = 256;

// Reference (pre-blocking) scalar kernels. Retained for correctness tests of
// the blocked kernels and as the "before" baseline in the substrate
// microbenchmark — never called on a hot path.
void gemm_naive_raw(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate);
void gemm_nt_naive_raw(const float* a, const float* b, float* c, std::size_t m,
                       std::size_t k, std::size_t n, bool accumulate);
void gemm_tn_naive_raw(const float* a, const float* b, float* c, std::size_t k,
                       std::size_t m, std::size_t n, bool accumulate);
void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out);

// Adds a row-vector bias (1,n) to every row of x (m,n).
void add_row_bias(Matrix& x, std::span<const float> bias);
// Fused bias + ReLU in one pass: x = max(0, x + bias) rowwise.
void add_row_bias_relu(Matrix& x, std::span<const float> bias);
// bias_grad += column sums of grad (m,n) -> (n).
void col_sums_acc(const Matrix& grad, std::span<float> bias_grad);

// y += alpha * x (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> y);
// x *= alpha.
void scale(std::span<float> x, float alpha);
float dot(std::span<const float> a, std::span<const float> b);
float l2_norm(std::span<const float> x);

// Scalar activation kernels: the only tanh and exp on the training and
// evaluation paths. They are plain float arithmetic with no libm call and no
// branch on data, so the `#pragma omp simd` loops that call them vectorize.
// Each result is a function of its own input alone, bitwise the same in a
// vector body and in a scalar remainder; TextMlp's argmax table relies on
// that. NaN propagates, so a diverged config stays diverged.

// tanh, max abs error 2.8e-7: Eigen's odd/even degree-13/6 rational minimax
// form. Beyond +-7.905 the rational is not valid and the result is +-1; below
// |x| = 4e-4 it is x itself. Saturation is a select after the rational, not
// Eigen's clamp of the input before it: with the clamp, GCC folded the
// clamped path to a constant without the FMA contraction the run-time path
// gets, so inputs above 7.905 gave 1 and 7.905 itself gave 0.99999976. The
// select makes every saturated result an explicit +-1.
inline float tanh(float x) {
  constexpr float kSaturate = 7.90531110763549805f;
  const float x2 = x * x;
  float p = x2 * -2.76076847742355e-16f + 2.00018790482477e-13f;
  p = x2 * p + -8.60467152213735e-11f;
  p = x2 * p + 5.12229709037114e-08f;
  p = x2 * p + 1.48572235717979e-05f;
  p = x2 * p + 6.37261928875436e-04f;
  p = x2 * p + 4.89352455891786e-03f;
  p = x * p;
  float q = x2 * 1.19825839466702e-06f + 1.18534705686654e-04f;
  q = x2 * q + 2.26843463243900e-03f;
  q = x2 * q + 4.89352518554385e-03f;
  const float ax = x < 0.0f ? -x : x;
  const float r = ax < 4e-4f ? x : p / q;
  return x > kSaturate ? 1.0f : (x < -kSaturate ? -1.0f : r);
}

// exp, max relative error 1 ulp on the normal range [-87, 88]: Cephes'
// x = n*ln2 + r, |r| <= ln2/2, exp(x) = 2^n * p(r). n is rounded by adding
// 1.5*2^23 and read back from the float's bits, so no float->int conversion
// exists. 2^n is applied as two factors 2^h * 2^(n-h), each a normal float,
// so results underflow gradually to 0 and overflow to +inf. Inputs are
// clamped to [-104, 89], where the result is already 0 or +inf whatever the
// rounding.
inline float exp(float x) {
  constexpr float kShift = 12582912.0f;  // 1.5 * 2^23
  x = x < -104.0f ? -104.0f : (x > 89.0f ? 89.0f : x);
  const float t = x * 1.44269504088896341f + kShift;
  const float n = t - kShift;
  float r = x - n * 0.693359375f;  // ln2, split in two for an exact n*ln2
  r = r - n * -2.12194440e-4f;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  const std::int32_t ni =
      std::bit_cast<std::int32_t>(t) - std::bit_cast<std::int32_t>(kShift);
  const std::int32_t h = ni >> 1;
  const float s1 =
      std::bit_cast<float>(static_cast<std::uint32_t>(h + 127) << 23);
  const float s2 =
      std::bit_cast<float>(static_cast<std::uint32_t>(ni - h + 127) << 23);
  return p * s1 * s2;
}

inline float sigmoid(float x) { return 1.0f / (1.0f + exp(-x)); }

// Elementwise activations, forward and backward. Backward computes
// grad_in = grad_out * f'(x) given the *activation output* y (for relu/tanh/
// sigmoid the derivative is expressible in y).
void relu(const Matrix& x, Matrix& y);
void relu_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in);
void tanh_forward(const Matrix& x, Matrix& y);
void tanh_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in);
void sigmoid(const Matrix& x, Matrix& y);
void sigmoid_backward(const Matrix& y, const Matrix& grad_out, Matrix& grad_in);

// Row-wise softmax (numerically stabilized).
void softmax_rows(const Matrix& logits, Matrix& probs);

// Mean cross-entropy loss over the batch given integer labels; also emits
// dL/dlogits (= (probs - onehot)/batch). Returns the loss. One pass per row
// (max, exp, sum, loss, gradient), with no softmax_rows call.
double softmax_cross_entropy(const Matrix& logits,
                             std::span<const std::int32_t> labels,
                             Matrix& grad_logits);

// Number of rows whose argmax != label.
std::size_t count_errors(const Matrix& logits,
                         std::span<const std::int32_t> labels);

std::size_t argmax_row(const Matrix& m, std::size_t row);

}  // namespace fedtune::ops
