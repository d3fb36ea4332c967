// Model-level tests: gradient checks of every backward pass, overfitting
// sanity, clone independence, chunked-evaluation consistency, and TextMlp's
// argmax-table evaluation against an independent forward.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "nn/gradcheck.hpp"
#include "nn/mlp.hpp"
#include "nn/text_models.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace fedtune::nn {
namespace {

std::vector<std::size_t> iota_idx(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

data::ClientData small_classification_client(Rng& rng, std::size_t n = 12,
                                              std::size_t dim = 5,
                                              std::size_t classes = 3) {
  data::ClientData c;
  c.features = Matrix::randn(n, dim, rng);
  c.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.labels[i] = static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
  }
  return c;
}

data::ClientData small_token_client(Rng& rng, std::size_t n = 6,
                                    std::size_t len = 5,
                                    std::size_t vocab = 6) {
  data::ClientData c;
  c.seq_len = len;
  c.tokens.resize(n * len);
  for (auto& t : c.tokens) {
    t = static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(vocab) - 1));
  }
  return c;
}

TEST(MlpClassifier, GradientCheck) {
  Rng rng(1);
  MlpClassifier model(5, {6, 4}, 3);
  model.init(rng);
  const data::ClientData client = small_classification_client(rng);
  const auto idx = iota_idx(client.num_examples());
  const GradCheckResult r = gradient_check(model, client, idx, rng, 40);
  EXPECT_LT(r.max_rel_error, 5e-2) << "mean: " << r.mean_rel_error;
}

TEST(MlpClassifier, GradientCheckNoHiddenLayer) {
  Rng rng(2);
  MlpClassifier model(4, {}, 3);  // logistic regression
  model.init(rng);
  const data::ClientData client = small_classification_client(rng, 8, 4, 3);
  const auto idx = iota_idx(client.num_examples());
  const GradCheckResult r = gradient_check(model, client, idx, rng, 0);
  EXPECT_LT(r.max_rel_error, 5e-2);
}

TEST(TextMlp, GradientCheck) {
  Rng rng(3);
  TextMlp model(6, 2, 4, 5);
  model.init(rng);
  const data::ClientData client = small_token_client(rng);
  const auto idx = iota_idx(client.num_examples());
  const GradCheckResult r = gradient_check(model, client, idx, rng, 40);
  EXPECT_LT(r.max_rel_error, 5e-2);
}

TEST(LstmLm, GradientCheck) {
  Rng rng(4);
  LstmLm model(6, 4, 5);
  model.init(rng);
  const data::ClientData client = small_token_client(rng, 4, 5, 6);
  const auto idx = iota_idx(client.num_examples());
  // float32 storage limits the central difference to gradients above
  // ~eps(loss)/step ≈ 1e-4; below that the quotient is quantization noise.
  const GradCheckResult r =
      gradient_check(model, client, idx, rng, 60, 1e-3, /*noise_floor=*/1e-4);
  EXPECT_LT(r.max_rel_error, 0.15) << "mean: " << r.mean_rel_error;
  EXPECT_LT(r.mean_rel_error, 2e-2);
}

TEST(MlpClassifier, OverfitsTinyDataset) {
  Rng rng(5);
  MlpClassifier model(4, {16}, 3);
  model.init(rng);
  // Well-separated classes.
  data::ClientData client;
  client.features = Matrix(12, 4);
  client.labels.resize(12);
  for (std::size_t i = 0; i < 12; ++i) {
    const std::int32_t y = static_cast<std::int32_t>(i % 3);
    client.labels[i] = y;
    client.features(i, static_cast<std::size_t>(y)) = 3.0f;
  }
  const auto idx = iota_idx(12);
  double last_loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    model.zero_grad();
    last_loss = model.forward_backward(client, idx);
    auto params = model.params();
    const auto grads = model.grads();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= 0.3f * grads[i];
    }
  }
  EXPECT_LT(last_loss, 0.1);
  EXPECT_EQ(model.errors(client).first, 0u);
}

TEST(LstmLm, LearnsDeterministicSequence) {
  Rng rng(6);
  LstmLm model(4, 6, 8);
  model.init(rng);
  // One repeating pattern 0,1,2,3,0,1,2,3 — fully predictable.
  data::ClientData client;
  client.seq_len = 8;
  for (int s = 0; s < 4; ++s) {
    for (int t = 0; t < 8; ++t) {
      client.tokens.push_back(static_cast<std::int32_t>((s + t) % 4));
    }
  }
  const auto idx = iota_idx(4);
  for (int step = 0; step < 400; ++step) {
    model.zero_grad();
    model.forward_backward(client, idx);
    auto params = model.params();
    const auto grads = model.grads();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= 0.5f * grads[i];
    }
  }
  const auto [wrong, total] = model.errors(client);
  EXPECT_EQ(total, 4u * 7u);
  EXPECT_LT(static_cast<double>(wrong) / static_cast<double>(total), 0.05);
}

TEST(Model, CloneArchitectureIsIndependent) {
  Rng rng(7);
  MlpClassifier model(4, {5}, 3);
  model.init(rng);
  auto clone = model.clone_architecture();
  EXPECT_EQ(clone->num_params(), model.num_params());
  clone->init(rng);
  clone->params()[0] = 123.0f;
  EXPECT_NE(model.params()[0], 123.0f);
}

TEST(Model, ErrorRateEmptyClientIsOne) {
  MlpClassifier model(4, {}, 2);
  data::ClientData empty;
  empty.features = Matrix(0, 4);
  EXPECT_DOUBLE_EQ(model.error_rate(empty), 1.0);
}

TEST(TextMlp, ChunkedEvalMatchesSmallBatches) {
  Rng rng(8);
  TextMlp model(6, 2, 4, 5);
  model.init(rng);
  // > 256 sequences forces the chunked path in errors().
  const data::ClientData big = small_token_client(rng, 600, 5, 6);
  const auto [wrong, total] = model.errors(big);
  EXPECT_EQ(total, 600u * 3u);  // (5 - 2) predictions per sequence

  // Reference: accumulate per-sequence errors one at a time.
  std::size_t wrong_ref = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    data::ClientData one;
    one.seq_len = 5;
    const auto seq = big.sequence(i);
    one.tokens.assign(seq.begin(), seq.end());
    wrong_ref += model.errors(one).first;
  }
  EXPECT_EQ(wrong, wrong_ref);
}

// TextMlp errors recomputed from params() alone: embedding rows, hidden
// GEMM + bias, tanh, output GEMM + bias, and count_errors over every
// predictable position in natural order, in one batch. The parameter layout
// is the ParamStore allocation order: embedding (V,E), hidden W (C*E,H) and
// b (H), output W (H,V) and b (V).
std::pair<std::size_t, std::size_t> reference_errors(
    const TextMlp& model, std::size_t vocab, std::size_t context,
    std::size_t embed, std::size_t hidden, const data::ClientData& client) {
  const auto p = model.params();
  EXPECT_EQ(p.size(), vocab * embed + context * embed * hidden + hidden +
                          hidden * vocab + vocab);
  const float* table = p.data();
  const float* w1 = table + vocab * embed;
  const float* b1 = w1 + context * embed * hidden;
  const float* w2 = b1 + hidden;
  const float* b2 = w2 + hidden * vocab;

  const std::size_t preds = client.seq_len - context;
  const std::size_t rows = client.num_examples() * preds;
  Matrix x(rows, context * embed);
  std::vector<std::int32_t> labels(rows);
  std::size_t r = 0;
  for (std::size_t s = 0; s < client.num_examples(); ++s) {
    const auto seq = client.sequence(s);
    for (std::size_t t = context; t < client.seq_len; ++t, ++r) {
      for (std::size_t j = 0; j < context; ++j) {
        const auto id = static_cast<std::size_t>(seq[t - context + j]);
        std::copy(table + id * embed, table + (id + 1) * embed,
                  x.data() + r * x.cols() + j * embed);
      }
      labels[r] = seq[t];
    }
  }
  Matrix pre(rows, hidden), act, logits(rows, vocab);
  ops::gemm_raw(x.data(), w1, pre.data(), rows, context * embed, hidden,
                false);
  ops::add_row_bias(pre, std::span(b1, hidden));
  ops::tanh_forward(pre, act);
  ops::gemm_raw(act.data(), w2, logits.data(), rows, hidden, vocab, false);
  ops::add_row_bias(logits, std::span(b2, vocab));
  return {ops::count_errors(logits, labels), rows};
}

TEST(TextMlp, TableEvalMatchesReferenceForContexts1To3) {
  Rng rng(11);
  for (std::size_t context : {1, 2, 3}) {
    TextMlp model(7, context, 4, 5);
    model.init(rng);
    const data::ClientData client = small_token_client(rng, 40, 8, 7);
    EXPECT_EQ(model.errors(client),
              reference_errors(model, 7, context, 4, 5, client))
        << "context=" << context;
  }
  // The pool-building shape (nn::make_default_model on stackoverflow-like).
  TextMlp model(32, 2, 8, 24);
  model.init(rng);
  const data::ClientData client = small_token_client(rng, 300, 15, 32);
  EXPECT_EQ(model.errors(client),
            reference_errors(model, 32, 2, 8, 24, client));
}

TEST(TextMlp, TableRebuildsWhenOneParameterChanges) {
  Rng rng(12);
  TextMlp model(6, 2, 4, 5);
  model.init(rng);
  const data::ClientData client = small_token_client(rng, 30, 6, 6);
  const auto before = model.errors(client);
  EXPECT_EQ(before, reference_errors(model, 6, 2, 4, 5, client));

  // The last parameter is the output bias of token 5: a huge value makes
  // every prediction 5, so only positions labelled 5 are right.
  model.params().back() = 1e6f;
  const auto after = model.errors(client);
  EXPECT_EQ(after, reference_errors(model, 6, 2, 4, 5, client));
  std::size_t not_five = 0;
  for (std::size_t s = 0; s < client.num_examples(); ++s) {
    const auto seq = client.sequence(s);
    for (std::size_t t = 2; t < client.seq_len; ++t) not_five += seq[t] != 5;
  }
  EXPECT_EQ(after.first, not_five);
  EXPECT_NE(after, before);
}

TEST(TextMlp, ReplicaResetRefreshesTable) {
  Rng rng(13);
  TextMlp proto(6, 2, 4, 5);
  proto.init(rng);
  const data::ClientData client = small_token_client(rng, 30, 6, 6);
  ReplicaSet replicas;
  replicas.reset(proto, 1, /*copy_params=*/true);
  EXPECT_EQ(replicas.at(0).errors(client),
            reference_errors(proto, 6, 2, 4, 5, client));

  proto.init(rng);
  replicas.reset(proto, 1, /*copy_params=*/true);
  EXPECT_EQ(replicas.at(0).errors(client),
            reference_errors(proto, 6, 2, 4, 5, client));
}

TEST(TextMlp, NonFiniteParametersMatchReferenceAndHitCache) {
  Rng rng(14);
  // 64^2 windows: a rebuild costs far more than a cached lookup.
  TextMlp model(64, 2, 4, 8);
  model.init(rng);
  const data::ClientData client = small_token_client(rng, 4, 6, 64);
  auto params = model.params();
  // Diverged configs: a NaN hidden weight poisons one hidden unit for every
  // window, Inf output weights saturate the logits.
  params[64 * 4 + 3] = std::numeric_limits<float>::quiet_NaN();
  params[params.size() - 64 - 17] = std::numeric_limits<float>::infinity();
  params[params.size() - 64 - 40] = -std::numeric_limits<float>::infinity();
  EXPECT_EQ(model.errors(client), reference_errors(model, 64, 2, 4, 8, client));

  // A NaN key must still hit: ten cached calls cost less than one rebuild.
  // Each side takes its best of three rounds so a preemption cannot flip it.
  using Clock = std::chrono::steady_clock;
  Clock::duration cached = Clock::duration::max();
  Clock::duration rebuild = Clock::duration::max();
  for (int round = 0; round < 3; ++round) {
    auto start = Clock::now();
    for (int i = 0; i < 10; ++i) model.errors(client);
    cached = std::min(cached, Clock::now() - start);

    params[0] += 1.0f;
    start = Clock::now();
    model.errors(client);
    rebuild = std::min(rebuild, Clock::now() - start);
  }
  EXPECT_LT(cached, rebuild);
  EXPECT_EQ(model.errors(client), reference_errors(model, 64, 2, 4, 8, client));
}

TEST(TextMlp, TableEvalRejectsOutOfRangeContextTokens) {
  Rng rng(15);
  TextMlp model(6, 2, 4, 5);
  model.init(rng);
  for (std::int32_t bad : {-1, 6}) {
    data::ClientData client = small_token_client(rng, 3, 5, 6);
    client.tokens[1 * 5 + 1] = bad;  // a context slot of sequence 1
    EXPECT_THROW(model.errors(client), std::invalid_argument) << bad;
  }
  // A final token is only ever a label: out of range, it counts as an error.
  data::ClientData client = small_token_client(rng, 3, 5, 6);
  client.tokens[5 - 1] = 6;
  client.tokens[2 * 5 + 4] = -1;
  EXPECT_EQ(model.errors(client), reference_errors(model, 6, 2, 4, 5, client));
}

TEST(TextMlp, ModelAboveTableBoundMatchesReference) {
  Rng rng(16);
  // 300^2 = 90,000 windows exceeds the table bound: chunked forward.
  TextMlp model(300, 2, 4, 5);
  model.init(rng);
  const data::ClientData client = small_token_client(rng, 600, 5, 300);
  EXPECT_EQ(model.errors(client),
            reference_errors(model, 300, 2, 4, 5, client));
}

TEST(TextMlp, RejectsTooShortSequences) {
  Rng rng(9);
  TextMlp model(6, 3, 4, 5);
  model.init(rng);
  const data::ClientData client = small_token_client(rng, 2, 3, 6);
  const std::vector<std::size_t> idx = {0};
  EXPECT_THROW(model.forward_backward(client, idx), std::invalid_argument);
}

TEST(Gradcheck, RestoresParameters) {
  Rng rng(10);
  MlpClassifier model(4, {4}, 2);
  model.init(rng);
  const std::vector<float> before(model.params().begin(), model.params().end());
  const data::ClientData client = small_classification_client(rng, 6, 4, 2);
  const auto idx = iota_idx(6);
  gradient_check(model, client, idx, rng, 10);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(model.params()[i], before[i]);
  }
}

}  // namespace
}  // namespace fedtune::nn
