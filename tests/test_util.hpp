// Shared fixtures for the test suite: small deterministic datasets, a
// trivial constant-prediction model stub, and the network tests' client.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "data/synth_image.hpp"
#include "data/synth_text.hpp"
#include "net/client.hpp"
#include "nn/model.hpp"

namespace fedtune::testutil {

inline data::FederatedDataset small_image_dataset(std::uint64_t seed = 1,
                                                  double alpha = 0.3) {
  data::SynthImageConfig cfg;
  cfg.name = "test-image";
  cfg.num_classes = 4;
  cfg.input_dim = 8;
  cfg.num_train_clients = 20;
  cfg.num_eval_clients = 10;
  cfg.mean_examples = 30.0;
  cfg.dirichlet_alpha = alpha;
  cfg.class_separation = 3.0;
  cfg.seed = seed;
  return data::make_synth_image(cfg);
}

inline data::FederatedDataset small_text_dataset(std::uint64_t seed = 2) {
  data::SynthTextConfig cfg;
  cfg.name = "test-text";
  cfg.vocab = 8;
  cfg.seq_len = 6;
  cfg.num_train_clients = 15;
  cfg.num_eval_clients = 8;
  cfg.mean_examples = 12.0;
  cfg.base_row_concentration = 0.4;
  cfg.client_concentration = 10.0;
  cfg.seed = seed;
  return data::make_synth_text(cfg);
}

// A model that always predicts class `target` — error rates are exactly
// computable, which makes evaluator tests deterministic.
class ConstantModel final : public nn::Model {
 public:
  explicit ConstantModel(std::int32_t target) : target_(target), params_(1) {}

  std::size_t num_params() const override { return 1; }
  std::span<float> params() override { return params_; }
  std::span<const float> params() const override { return params_; }
  std::span<float> grads() override { return grads_; }
  void zero_grad() override { grads_[0] = 0.0f; }
  void init(Rng&) override {}

  double forward_backward(const data::ClientData&,
                          std::span<const std::size_t>) override {
    return 0.0;
  }

  std::pair<std::size_t, std::size_t> errors(
      const data::ClientData& client) const override {
    std::size_t wrong = 0;
    const std::size_t n = client.num_examples();
    for (std::size_t i = 0; i < n; ++i) {
      if (client.labels[i] != target_) ++wrong;
    }
    return {wrong, n};
  }

  std::unique_ptr<nn::Model> clone_architecture() const override {
    return std::make_unique<ConstantModel>(target_);
  }

 private:
  std::int32_t target_;
  std::vector<float> params_;
  std::vector<float> grads_ = {0.0f};
};

inline net::Endpoint loopback(std::uint16_t port) {
  return net::Endpoint::tcp("127.0.0.1", port);
}

// net::Client as the network tests drive it: a 10 s I/O timeout turns a
// hung server into a failed test instead of a wedged one, and call()
// answers "" when no reply came back (tests assert on content).
class TestClient : public net::Client {
 public:
  explicit TestClient(net::Endpoint ep, std::uint64_t tenant = 0,
                      std::string token = {})
      : net::Client(std::move(ep), options(tenant, std::move(token))) {}

  std::string call(std::string_view line) {
    return request(line).value_or("");
  }
  std::string read() { return read_reply().value_or(""); }

 private:
  static net::ClientOptions options(std::uint64_t tenant,
                                    std::string token) {
    net::ClientOptions opts;
    opts.tenant = tenant;
    opts.token = std::move(token);
    opts.io_timeout_s = 10.0;
    return opts;
  }
};

}  // namespace fedtune::testutil
