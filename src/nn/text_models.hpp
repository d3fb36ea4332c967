// Next-token prediction models for the text-like datasets.
//
// TextMlp: windowed language model — embeds the previous `context` tokens,
// concatenates, and applies a tanh MLP. This is the fast default used for
// config pools (DESIGN.md), with training dynamics that respond to the same
// HPs the paper tunes.
//
// TextMlp evaluation is a table lookup. A prediction depends only on its
// vocab^context possible input windows, so errors() runs one forward over
// every window per parameter state, stores each window's argmax, and then
// scores each position with one lookup. The table is keyed on a bitwise copy
// of params(): any parameter write (a training round, a replica refresh, a
// checkpoint load) rebuilds it, and NaN/Inf parameters still hit the cache.
// The counts are bitwise-equal to a forward over the client's own positions
// because each gemm_raw output row depends only on its own input row (see
// tensor/ops.hpp kGemmRowInvariantMaxK). Models with more than
// kMaxTableContexts windows, or with a layer input wider than
// kGemmRowInvariantMaxK, keep the chunked forward.
//
// LstmLm: Embedding -> single-layer LSTM (BPTT) -> Linear over the vocab,
// matching the paper's 2-layer-LSTM architecture family at laptop scale.
#pragma once

#include <vector>

#include "nn/layers.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "nn/param_store.hpp"

namespace fedtune::nn {

class TextMlp final : public Model {
 public:
  TextMlp(std::size_t vocab, std::size_t context, std::size_t embed_dim,
          std::size_t hidden_dim);

  std::size_t num_params() const override { return store_.size(); }
  std::span<float> params() override { return store_.values(); }
  std::span<const float> params() const override { return store_.values(); }
  std::span<float> grads() override { return store_.grads(); }
  void zero_grad() override { store_.zero_grad(); }
  void init(Rng& rng) override;

  double forward_backward(const data::ClientData& client,
                          std::span<const std::size_t> idx) override;
  std::pair<std::size_t, std::size_t> errors(
      const data::ClientData& client) const override;
  std::unique_ptr<Model> clone_architecture() const override;

 private:
  // Largest window count evaluated through the argmax table.
  static constexpr std::size_t kMaxTableContexts = 65536;

  // Builds (ids per slot, labels) for all predictable positions of the given
  // sequences. Returns #positions.
  std::size_t gather(const data::ClientData& client,
                     std::span<const std::size_t> idx) const;
  // Runs embed→hidden→logits over the windows in slot_ids_.
  void forward_cached() const;
  // Rebuilds argmax_table_ unless params() is bitwise equal to its key.
  void refresh_argmax_table() const;

  std::size_t vocab_;
  std::size_t context_;
  std::size_t embed_dim_;
  std::size_t hidden_dim_;
  ParamStore store_;
  Embedding embed_;
  Linear hidden_layer_;
  Linear out_layer_;

  // Scratch.
  mutable std::vector<std::vector<std::int32_t>> slot_ids_;  // [context][P]
  mutable std::vector<std::int32_t> labels_;
  mutable Matrix embedded_;   // (P, context*E)
  mutable Matrix hidden_pre_, hidden_act_, logits_;
  mutable Matrix grad_logits_, grad_hidden_, grad_pre_, grad_embed_;

  // Evaluation cache: argmax per window (index = base-vocab digits, oldest
  // token first), valid for the parameters in table_params_. table_contexts_
  // is vocab^context, or 0 when the model evaluates chunked.
  std::size_t table_contexts_ = 0;
  mutable std::vector<std::int32_t> argmax_table_;
  mutable std::vector<float> table_params_;
};

class LstmLm final : public Model {
 public:
  LstmLm(std::size_t vocab, std::size_t embed_dim, std::size_t hidden_dim);

  std::size_t num_params() const override { return store_.size(); }
  std::span<float> params() override { return store_.values(); }
  std::span<const float> params() const override { return store_.values(); }
  std::span<float> grads() override { return store_.grads(); }
  void zero_grad() override { store_.zero_grad(); }
  void init(Rng& rng) override;

  double forward_backward(const data::ClientData& client,
                          std::span<const std::size_t> idx) override;
  std::pair<std::size_t, std::size_t> errors(
      const data::ClientData& client) const override;
  std::unique_ptr<Model> clone_architecture() const override;

 private:
  std::size_t vocab_;
  std::size_t embed_dim_;
  std::size_t hidden_dim_;
  ParamStore store_;
  Embedding embed_;
  Lstm lstm_;
  Linear out_layer_;

  // Scratch.
  mutable std::vector<Matrix> x_seq_;
  mutable Lstm::Cache cache_;
  mutable Matrix h_all_, logits_, grad_logits_, grad_h_all_;
  mutable std::vector<Matrix> grad_h_seq_, grad_x_seq_;
  mutable std::vector<std::int32_t> step_ids_, labels_;
};

}  // namespace fedtune::nn
