// Determinism regression tests for the parallel training substrate.
//
// The contract (src/README.md): every (round, client) RNG stream is derived
// by splitting, all reductions run in a fixed order, and work-to-output
// mappings never depend on the schedule — so any thread count must produce
// bitwise-identical results, and PoolEvalView caches stay byte-compatible
// across machines with different core counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "common/thread_pool.hpp"
#include "core/config_pool.hpp"
#include "fl/trainer.hpp"
#include "nn/factory.hpp"
#include "sim/experiments.hpp"
#include "sim/method_runner.hpp"
#include "test_util.hpp"

namespace fedtune {
namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ParallelDeterminism, SerialAndParallelTrainerBitwiseIdentical) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  fl::FedHyperParams hps;
  hps.client_lr = 0.05;
  hps.client_momentum = 0.9;
  hps.batch_size = 16;

  fl::TrainerConfig serial_cfg;
  serial_cfg.client_threads = 1;
  fl::TrainerConfig parallel_cfg;
  parallel_cfg.client_threads = 0;  // shared pool

  fl::FedTrainer serial(ds, *arch, hps, serial_cfg, Rng(77));
  fl::FedTrainer parallel(ds, *arch, hps, parallel_cfg, Rng(77));
  serial.run_rounds(6);
  parallel.run_rounds(6);

  const auto ps = serial.model().params();
  const auto pp = parallel.model().params();
  ASSERT_EQ(ps.size(), pp.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    // Bitwise: no tolerance.
    ASSERT_EQ(ps[i], pp[i]) << "param " << i;
  }
}

TEST(ParallelDeterminism, PoolBuildThreadCountInvariantBytes) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  core::PoolBuildOptions opts;
  opts.num_configs = 4;
  opts.checkpoints = {1, 3};
  opts.trainer.clients_per_round = 5;
  opts.store_params = false;

  opts.num_threads = 1;
  const core::ConfigPool one =
      core::ConfigPool::build(ds, *arch, hpo::appendix_b_space(), opts);
  opts.num_threads = 4;
  const core::ConfigPool four =
      core::ConfigPool::build(ds, *arch, hpo::appendix_b_space(), opts);

  const std::string path_one = "/tmp/fedtune_det_view_1.bin";
  const std::string path_four = "/tmp/fedtune_det_view_4.bin";
  one.view().save(path_one);
  four.view().save(path_four);
  EXPECT_EQ(read_bytes(path_one), read_bytes(path_four));
  std::filesystem::remove(path_one);
  std::filesystem::remove(path_four);
}

TEST(ParallelDeterminism, EvaluateOnThreadCountInvariant) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  core::PoolBuildOptions opts;
  opts.num_configs = 3;
  opts.checkpoints = {1, 3};
  opts.trainer.clients_per_round = 5;
  opts.num_threads = 2;
  const core::ConfigPool pool =
      core::ConfigPool::build(ds, *arch, hpo::appendix_b_space(), opts);

  const core::PoolEvalView a =
      pool.evaluate_on(*arch, ds.eval_clients, {}, /*num_threads=*/1);
  const core::PoolEvalView b =
      pool.evaluate_on(*arch, ds.eval_clients, {}, /*num_threads=*/4);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t ck = 0; ck < 2; ++ck) {
      const auto ea = a.errors(c, ck);
      const auto eb = b.errors(c, ck);
      for (std::size_t k = 0; k < ea.size(); ++k) {
        ASSERT_EQ(ea[k], eb[k]) << "config " << c << " ckpt " << ck;
      }
    }
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Runs `fn` on a worker of an enclosing parallel loop, where every
// parallel_for it issues runs inline on the calling thread.
void run_nested_inline(const std::function<void()>& fn) {
  ThreadPool outer(2);
  outer.parallel_for(2, [&](std::size_t i) {
    if (i != 0) return;
    ASSERT_TRUE(ThreadPool::in_parallel_region());
    fn();
  });
}

// The figure suite's trial loops (bootstrap RS, method curves) run on the
// global pool; each trial seeds itself by splitting and writes its own
// index, so the tables are the same bits at any thread count.
TEST(ParallelDeterminism, BootstrapAndMethodTablesThreadCountInvariant) {
  // Synthetic pool: 16 configs, rung grid {1, 3, 9}, 40 clients whose
  // errors differ per config, rung and client (so bias and subsampling
  // both matter).
  constexpr std::size_t kConfigs = 16, kClients = 40;
  const hpo::SearchSpace space = hpo::appendix_b_space();
  Rng rng(21);
  std::vector<hpo::Config> configs;
  for (std::size_t c = 0; c < kConfigs; ++c) configs.push_back(space.sample(rng));
  std::vector<double> weights(kClients);
  for (double& w : weights) w = 1.0 + std::floor(20.0 * rng.uniform());
  core::PoolEvalView view({1, 3, 9}, weights, kConfigs);
  for (std::size_t c = 0; c < kConfigs; ++c) {
    for (std::size_t ck = 0; ck < 3; ++ck) {
      for (float& e : view.errors(c, ck)) {
        e = static_cast<float>(std::min(
            1.0, 0.1 + 0.04 * static_cast<double>(c % 7) +
                     0.2 * static_cast<double>(2 - ck) + 0.3 * rng.uniform()));
      }
    }
  }

  std::vector<core::NoiseModel> settings(4);
  settings[0].eval_clients = 5;  // subsample
  settings[1].eval_clients = 1;  // biased, k = 1
  settings[1].bias_b = 1.5;
  settings[2].eval_clients = kClients;  // biased, k = n
  settings[2].bias_b = 1.5;
  settings[3].eval_clients = 5;  // DP
  settings[3].epsilon = 10.0;
  settings[3].weighting = fl::Weighting::kUniform;
  core::NoiseModel fig8_noisy = settings[3];
  fig8_noisy.epsilon = 100.0;

  struct Tables {
    std::vector<stats::QuartileSummary> quartiles;
    std::vector<std::vector<core::CurvePoint>> curves;
  };
  const auto run_all = [&] {
    Tables out;
    sim::BootstrapOptions opts;
    opts.rs_configs = 6;
    opts.trials = 24;
    opts.seed = 5;
    for (const core::NoiseModel& noise : settings) {
      out.quartiles.push_back(
          sim::bootstrap_random_search(configs, view, noise, opts));
    }
    for (const sim::Method m : {sim::Method::kTpe, sim::Method::kBohb}) {
      const auto curves = sim::pool_method_curves(
          m, configs, view, fig8_noisy, 6, 6,
          [](std::size_t t) { return Rng(3).split(t).seed(); });
      out.curves.insert(out.curves.end(), curves.begin(), curves.end());
    }
    return out;
  };

  const Tables pooled = run_all();
  Tables inline_run;
  run_nested_inline([&] { inline_run = run_all(); });

  ASSERT_EQ(pooled.quartiles.size(), inline_run.quartiles.size());
  for (std::size_t i = 0; i < pooled.quartiles.size(); ++i) {
    const stats::QuartileSummary& a = pooled.quartiles[i];
    const stats::QuartileSummary& b = inline_run.quartiles[i];
    EXPECT_TRUE(same_bits(a.q25, b.q25) && same_bits(a.median, b.median) &&
                same_bits(a.q75, b.q75))
        << "bootstrap setting " << i;
  }
  ASSERT_EQ(pooled.curves.size(), inline_run.curves.size());
  for (std::size_t t = 0; t < pooled.curves.size(); ++t) {
    const auto& a = pooled.curves[t];
    const auto& b = inline_run.curves[t];
    ASSERT_EQ(a.size(), b.size()) << "curve " << t;
    ASSERT_FALSE(a.empty()) << "curve " << t;
    for (std::size_t g = 0; g < a.size(); ++g) {
      EXPECT_EQ(a[g].rounds, b[g].rounds) << "curve " << t << " point " << g;
      EXPECT_TRUE(same_bits(a[g].full_error, b[g].full_error))
          << "curve " << t << " point " << g;
    }
  }
}

}  // namespace
}  // namespace fedtune
