#include "core/config_pool.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "nn/factory.hpp"
#include "test_util.hpp"

namespace fedtune::core {
namespace {

struct PoolFixture : public ::testing::Test {
  void SetUp() override {
    dataset = testutil::small_image_dataset();
    arch = nn::make_default_model(dataset);
    opts.num_configs = 6;
    opts.checkpoints = {1, 3, 9};
    opts.trainer.clients_per_round = 5;
    opts.num_threads = 2;
    pool = std::make_unique<ConfigPool>(
        ConfigPool::build(dataset, *arch, hpo::appendix_b_space(), opts));
  }

  data::FederatedDataset dataset;
  std::unique_ptr<nn::Model> arch;
  PoolBuildOptions opts;
  std::unique_ptr<ConfigPool> pool;
};

TEST_F(PoolFixture, ShapesAndInvariants) {
  EXPECT_EQ(pool->configs().size(), 6u);
  const PoolEvalView& v = pool->view();
  EXPECT_EQ(v.num_configs(), 6u);
  EXPECT_EQ(v.num_clients(), dataset.eval_clients.size());
  EXPECT_EQ(v.checkpoints(), (std::vector<std::size_t>{1, 3, 9}));
  for (std::size_t c = 0; c < 6; ++c) {
    for (std::size_t ck = 0; ck < 3; ++ck) {
      for (float e : v.errors(c, ck)) {
        EXPECT_GE(e, 0.0f);
        EXPECT_LE(e, 1.0f);
      }
    }
  }
}

TEST_F(PoolFixture, FullErrorMatchesManualAggregation) {
  const PoolEvalView& v = pool->view();
  const auto errs = v.errors(2, 1);
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < errs.size(); ++k) {
    const double w = v.client_weights()[k];
    num += w * errs[k];
    den += w;
  }
  EXPECT_NEAR(v.full_error(2, 1, fl::Weighting::kByExampleCount), num / den,
              1e-9);
}

TEST_F(PoolFixture, MinClientError) {
  const PoolEvalView& v = pool->view();
  const auto errs = v.errors(0, 2);
  const double expected = *std::min_element(errs.begin(), errs.end());
  EXPECT_DOUBLE_EQ(v.min_client_error(0, 2), expected);
}

TEST_F(PoolFixture, BestFullErrorIsMinimum) {
  const PoolEvalView& v = pool->view();
  double manual = 1.0;
  for (std::size_t c = 0; c < v.num_configs(); ++c) {
    manual = std::min(manual,
                      v.full_error(c, 2, fl::Weighting::kByExampleCount));
  }
  EXPECT_DOUBLE_EQ(v.best_full_error(fl::Weighting::kByExampleCount), manual);
}

TEST_F(PoolFixture, CheckpointIndexValidation) {
  const PoolEvalView& v = pool->view();
  EXPECT_EQ(v.checkpoint_index(3), 1u);
  EXPECT_THROW(v.checkpoint_index(5), std::invalid_argument);
}

TEST_F(PoolFixture, SaveLoadRoundTrip) {
  const std::string path = "/tmp/fedtune_test_pool.bin";
  pool->save(path);
  const auto loaded = ConfigPool::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dataset_name(), pool->dataset_name());
  EXPECT_EQ(loaded->configs().size(), pool->configs().size());
  for (std::size_t c = 0; c < 6; ++c) {
    // Config maps equal.
    EXPECT_EQ(loaded->configs()[c], pool->configs()[c]);
    for (std::size_t ck = 0; ck < 3; ++ck) {
      const auto a = pool->view().errors(c, ck);
      const auto b = loaded->view().errors(c, ck);
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_FLOAT_EQ(a[k], b[k]);
      }
    }
  }
  EXPECT_TRUE(loaded->has_params());
  std::filesystem::remove(path);
}

TEST_F(PoolFixture, LoadMissingFileReturnsNullopt) {
  EXPECT_FALSE(ConfigPool::load("/tmp/definitely_missing_pool.bin").has_value());
}

TEST_F(PoolFixture, LoadCorruptFileReturnsNullopt) {
  const std::string path = "/tmp/fedtune_corrupt_pool.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a pool";
  }
  EXPECT_FALSE(ConfigPool::load(path).has_value());
  std::filesystem::remove(path);
}

namespace {
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Overwrites the leading u64 magic of a saved file in place.
void rewrite_magic(const std::string& path, std::uint64_t magic) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.write(reinterpret_cast<const char*>(&magic), sizeof magic);
}
}  // namespace

// Pools and views cached by the build before the libm-free tanh/exp kernels
// hold different bits: they must load as nullopt so the caller rebuilds.
TEST_F(PoolFixture, LoadRejectsPreviousPoolMagic) {
  const std::string path = "/tmp/fedtune_old_magic_pool.bin";
  pool->save(path);
  ASSERT_TRUE(ConfigPool::load(path).has_value());
  rewrite_magic(path, 0xfed7d2ae00000003ULL);
  EXPECT_FALSE(ConfigPool::load(path).has_value());
  std::filesystem::remove(path);
}

TEST_F(PoolFixture, ViewLoadRejectsPreviousViewMagic) {
  const std::string path = "/tmp/fedtune_old_magic_view.bin";
  pool->view().save(path);
  ASSERT_TRUE(PoolEvalView::load(path).has_value());
  rewrite_magic(path, 0xfed7a11e00000002ULL);
  EXPECT_FALSE(PoolEvalView::load(path).has_value());
  std::filesystem::remove(path);
}

TEST_F(PoolFixture, LoadTruncatedFileReturnsNullopt) {
  const std::string path = "/tmp/fedtune_truncated_pool.bin";
  pool->save(path);
  const std::string bytes = slurp(path);
  // Cut at several depths: mid-header, mid-error-tensor, just shy of EOF.
  for (const std::size_t keep :
       {bytes.size() / 8, bytes.size() / 2, bytes.size() - 1}) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    EXPECT_FALSE(ConfigPool::load(path).has_value()) << "kept " << keep;
  }
  std::filesystem::remove(path);
}

TEST_F(PoolFixture, LoadRejectsTrailingGarbage) {
  const std::string path = "/tmp/fedtune_trailing_pool.bin";
  pool->save(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra bytes";
  }
  EXPECT_FALSE(ConfigPool::load(path).has_value());
  std::filesystem::remove(path);
}

TEST_F(PoolFixture, ViewLoadRejectsCorruptMagicAndTruncation) {
  const std::string path = "/tmp/fedtune_bad_view.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a view";
  }
  EXPECT_FALSE(PoolEvalView::load(path).has_value());

  pool->view().save(path);
  const std::string bytes = slurp(path);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(PoolEvalView::load(path).has_value());
  EXPECT_FALSE(PoolEvalView::load("/tmp/definitely_missing.view").has_value());
  std::filesystem::remove(path);
}

TEST_F(PoolFixture, EvaluateOnSameClientsReproducesErrors) {
  // Re-evaluating the stored params on the original eval clients must give
  // the same error tensor.
  const PoolEvalView again =
      pool->evaluate_on(*arch, dataset.eval_clients, {}, 2);
  for (std::size_t c = 0; c < 6; ++c) {
    for (std::size_t ck = 0; ck < 3; ++ck) {
      const auto a = pool->view().errors(c, ck);
      const auto b = again.errors(c, ck);
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_FLOAT_EQ(a[k], b[k]) << "config " << c << " ckpt " << ck;
      }
    }
  }
}

TEST_F(PoolFixture, EvaluateOnSubsetOfCheckpoints) {
  const PoolEvalView last_only =
      pool->evaluate_on(*arch, dataset.eval_clients, {9}, 2);
  EXPECT_EQ(last_only.checkpoints(), (std::vector<std::size_t>{9}));
  const auto a = pool->view().errors(1, 2);
  const auto b = last_only.errors(1, 0);
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_FLOAT_EQ(a[k], b[k]);
  }
}

TEST_F(PoolFixture, EvaluateOnRejectsOffGridCheckpoint) {
  EXPECT_THROW(pool->evaluate_on(*arch, dataset.eval_clients, {7}, 2),
               std::invalid_argument);
}

TEST_F(PoolFixture, ViewSaveLoadRoundTrip) {
  const std::string path = "/tmp/fedtune_test_view.bin";
  pool->view().save(path);
  const auto loaded = PoolEvalView::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_configs(), 6u);
  EXPECT_EQ(loaded->checkpoints(), pool->view().checkpoints());
  const auto a = pool->view().errors(3, 1);
  const auto b = loaded->errors(3, 1);
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_FLOAT_EQ(a[k], b[k]);
  }
  std::filesystem::remove(path);
}

TEST_F(PoolFixture, DeterministicRebuild) {
  // Same options -> identical pool (parallel build must not change results).
  const ConfigPool again =
      ConfigPool::build(dataset, *arch, hpo::appendix_b_space(), opts);
  for (std::size_t c = 0; c < 6; ++c) {
    const auto a = pool->view().errors(c, 2);
    const auto b = again.view().errors(c, 2);
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_FLOAT_EQ(a[k], b[k]);
    }
  }
}

TEST_F(PoolFixture, ErrorsImproveWithFidelityOnReasonableSpace) {
  // With a search space confined to sensible learning rates, more training
  // rounds must improve the best achievable error. (The Appendix-B space is
  // too wide for this to hold with only 8 draws and 9 rounds.)
  hpo::SearchSpace good_space;
  good_space.add_log_uniform("server_lr", 5e-3, 5e-2)
      .add_uniform("beta1", 0.8, 0.9)
      .add_uniform("beta2", 0.9, 0.999)
      .add_log_uniform("client_lr", 0.02, 0.2)
      .add_choice("batch_size", {32.0});
  PoolBuildOptions good_opts = opts;
  good_opts.checkpoints = {1, 9, 27};
  const ConfigPool good =
      ConfigPool::build(dataset, *arch, good_space, good_opts);
  const PoolEvalView& v = good.view();
  double best_first = 1.0, best_last = 1.0;
  for (std::size_t c = 0; c < v.num_configs(); ++c) {
    best_first = std::min(
        best_first, v.full_error(c, 0, fl::Weighting::kByExampleCount));
    best_last = std::min(
        best_last, v.full_error(c, 2, fl::Weighting::kByExampleCount));
  }
  EXPECT_LT(best_last, best_first - 0.05);
}

TEST(ConfigPoolStandalone, SharedConfigSeedAcrossDatasets) {
  // Two pools built with the same config seed share the config list — the
  // invariant behind the transfer/proxy experiments.
  const auto ds_a = testutil::small_image_dataset(1);
  const auto ds_b = testutil::small_image_dataset(2);
  const auto arch_a = nn::make_default_model(ds_a);
  const auto arch_b = nn::make_default_model(ds_b);
  PoolBuildOptions opts;
  opts.num_configs = 4;
  opts.checkpoints = {1, 3};
  opts.store_params = false;
  opts.num_threads = 2;
  const ConfigPool a =
      ConfigPool::build(ds_a, *arch_a, hpo::appendix_b_space(), opts);
  const ConfigPool b =
      ConfigPool::build(ds_b, *arch_b, hpo::appendix_b_space(), opts);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(a.configs()[c], b.configs()[c]);
  }
  EXPECT_FALSE(a.has_params());
  EXPECT_THROW(a.params(0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace fedtune::core
