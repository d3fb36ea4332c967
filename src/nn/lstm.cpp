#include "nn/lstm.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace fedtune::nn {

Lstm::Lstm(ParamStore& store, std::size_t input_dim, std::size_t hidden_dim)
    : store_(&store), input_(input_dim), hidden_(hidden_dim) {
  FEDTUNE_CHECK(input_dim > 0 && hidden_dim > 0);
  wx_ = {store.allocate(input_ * 4 * hidden_), input_ * 4 * hidden_};
  wh_ = {store.allocate(hidden_ * 4 * hidden_), hidden_ * 4 * hidden_};
  b_ = {store.allocate(4 * hidden_), 4 * hidden_};
}

void Lstm::init(Rng& rng) {
  const float sx = std::sqrt(1.0f / static_cast<float>(input_));
  const float sh = std::sqrt(1.0f / static_cast<float>(hidden_));
  for (float& v : store_->values(wx_.offset, wx_.size)) {
    v = static_cast<float>(rng.normal(0.0, sx));
  }
  for (float& v : store_->values(wh_.offset, wh_.size)) {
    v = static_cast<float>(rng.normal(0.0, sh));
  }
  auto bias = store_->values(b_.offset, b_.size);
  std::fill(bias.begin(), bias.end(), 0.0f);
  // Forget-gate bias of 1.0 — standard trick for stable early training.
  for (std::size_t j = hidden_; j < 2 * hidden_; ++j) bias[j] = 1.0f;
}

void Lstm::forward(const std::vector<Matrix>& x_seq, Cache& cache) const {
  FEDTUNE_CHECK(!x_seq.empty());
  const std::size_t T = x_seq.size();
  const std::size_t batch = x_seq.front().rows();
  const std::size_t H = hidden_;

  cache.x = &x_seq;
  // Every element below is fully overwritten per step, so reshape without
  // the zero-fill (and without reallocating when shapes repeat).
  auto resize_all = [&](std::vector<Matrix>& v) {
    v.resize(T);
    for (Matrix& m : v) m.ensure_shape(batch, H);
  };
  resize_all(cache.i);
  resize_all(cache.f);
  resize_all(cache.g);
  resize_all(cache.o);
  resize_all(cache.c);
  resize_all(cache.tanh_c);
  resize_all(cache.h);

  Matrix& z = cache.z;
  z.ensure_shape(batch, 4 * H);
  for (std::size_t t = 0; t < T; ++t) {
    FEDTUNE_CHECK(x_seq[t].rows() == batch && x_seq[t].cols() == input_);
    // z = x_t @ Wx + h_{t-1} @ Wh + b
    ops::gemm_raw(x_seq[t].data(), store_->value_ptr(wx_.offset), z.data(),
                  batch, input_, 4 * H, /*accumulate=*/false);
    if (t > 0) {
      ops::gemm_raw(cache.h[t - 1].data(), store_->value_ptr(wh_.offset),
                    z.data(), batch, H, 4 * H, /*accumulate=*/true);
    }
    ops::add_row_bias(z, store_->values(b_.offset, b_.size));

    for (std::size_t r = 0; r < batch; ++r) {
      const float* zr = z.data() + r * 4 * H;
      float* ir = cache.i[t].data() + r * H;
      float* fr = cache.f[t].data() + r * H;
      float* gr = cache.g[t].data() + r * H;
      float* orow = cache.o[t].data() + r * H;
      float* cr = cache.c[t].data() + r * H;
      float* tcr = cache.tanh_c[t].data() + r * H;
      float* hr = cache.h[t].data() + r * H;
      const float* cprev =
          (t > 0) ? cache.c[t - 1].data() + r * H : nullptr;
#pragma omp simd
      for (std::size_t j = 0; j < H; ++j) {
        ir[j] = ops::sigmoid(zr[j]);
        fr[j] = ops::sigmoid(zr[H + j]);
        gr[j] = ops::tanh(zr[2 * H + j]);
        orow[j] = ops::sigmoid(zr[3 * H + j]);
        const float cp = cprev ? cprev[j] : 0.0f;
        cr[j] = fr[j] * cp + ir[j] * gr[j];
        tcr[j] = ops::tanh(cr[j]);
        hr[j] = orow[j] * tcr[j];
      }
    }
  }
}

void Lstm::backward(Cache& cache, const std::vector<Matrix>& grad_h_seq,
                    std::vector<Matrix>* grad_x_seq) {
  FEDTUNE_CHECK(cache.x != nullptr);
  const std::vector<Matrix>& x_seq = *cache.x;
  const std::size_t T = x_seq.size();
  FEDTUNE_CHECK(grad_h_seq.size() == T);
  const std::size_t batch = x_seq.front().rows();
  const std::size_t H = hidden_;

  if (grad_x_seq != nullptr) {
    grad_x_seq->resize(T);
    for (Matrix& m : *grad_x_seq) m.ensure_shape(batch, input_);
  }

  Matrix& dh = cache.dh;          // dL/dh_t accumulated (external + recurrent)
  Matrix& dc = cache.dc;          // dL/dc_t carried backwards
  Matrix& dz = cache.dz;          // gate pre-activation grads
  Matrix& dh_rec = cache.dh_rec;  // recurrent contribution flowing to t-1
  dh.ensure_shape(batch, H);
  dz.ensure_shape(batch, 4 * H);
  dc.resize(batch, H);      // carried accumulators start at zero
  dh_rec.resize(batch, H);

  for (std::size_t t = T; t-- > 0;) {
    // dh = external grad + recurrent grad from step t+1.
    for (std::size_t n = 0; n < batch * H; ++n) {
      dh.flat()[n] = grad_h_seq[t].flat()[n] + dh_rec.flat()[n];
    }

    for (std::size_t r = 0; r < batch; ++r) {
      const float* ir = cache.i[t].data() + r * H;
      const float* fr = cache.f[t].data() + r * H;
      const float* gr = cache.g[t].data() + r * H;
      const float* orow = cache.o[t].data() + r * H;
      const float* tcr = cache.tanh_c[t].data() + r * H;
      const float* cprev = (t > 0) ? cache.c[t - 1].data() + r * H : nullptr;
      const float* dhr = dh.data() + r * H;
      float* dcr = dc.data() + r * H;
      float* dzr = dz.data() + r * 4 * H;
      for (std::size_t j = 0; j < H; ++j) {
        // Through h = o * tanh(c).
        const float do_ = dhr[j] * tcr[j];
        dcr[j] += dhr[j] * orow[j] * (1.0f - tcr[j] * tcr[j]);
        // Through c = f * c_prev + i * g.
        const float di = dcr[j] * gr[j];
        const float dg = dcr[j] * ir[j];
        const float df = cprev ? dcr[j] * cprev[j] : 0.0f;
        // Gate nonlinearity derivatives.
        dzr[j] = di * ir[j] * (1.0f - ir[j]);
        dzr[H + j] = df * fr[j] * (1.0f - fr[j]);
        dzr[2 * H + j] = dg * (1.0f - gr[j] * gr[j]);
        dzr[3 * H + j] = do_ * orow[j] * (1.0f - orow[j]);
        // dc flowing to step t-1.
        dcr[j] *= fr[j];
      }
    }

    // Parameter gradients.
    ops::gemm_tn_raw(x_seq[t].data(), dz.data(), store_->grad_ptr(wx_.offset),
                     batch, input_, 4 * H, /*accumulate=*/true);
    if (t > 0) {
      ops::gemm_tn_raw(cache.h[t - 1].data(), dz.data(),
                       store_->grad_ptr(wh_.offset), batch, H, 4 * H,
                       /*accumulate=*/true);
    }
    ops::col_sums_acc(dz, store_->grads(b_.offset, b_.size));

    // Input gradient and recurrent gradient.
    if (grad_x_seq != nullptr) {
      ops::gemm_nt_raw(dz.data(), store_->value_ptr(wx_.offset),
                       (*grad_x_seq)[t].data(), batch, 4 * H, input_,
                       /*accumulate=*/false);
    }
    if (t > 0) {
      ops::gemm_nt_raw(dz.data(), store_->value_ptr(wh_.offset),
                       dh_rec.data(), batch, 4 * H, H, /*accumulate=*/false);
    }
  }
}

}  // namespace fedtune::nn
