// Method-comparison experiments: Fig. 8 (online curves) and the bar figures
// (Fig. 1 at 1/3 budget on CIFAR10-like, Figs. 15/16 across datasets).
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/proxy.hpp"
#include "sim/curve_utils.hpp"
#include "sim/experiments.hpp"
#include "sim/method_runner.hpp"
#include "sim/pool_hub.hpp"

namespace fedtune::sim {

namespace {

// The paper's "noisy" setting for method comparisons: 1% of eval clients
// subsampled, eps = 100 evaluation privacy.
core::NoiseModel noisy_setting(const core::PoolEvalView& view) {
  core::NoiseModel noise;
  noise.eval_clients = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(0.01 * static_cast<double>(view.num_clients()))));
  noise.epsilon = 100.0;
  noise.weighting = fl::Weighting::kUniform;
  return noise;
}

core::NoiseModel noiseless_setting() {
  core::NoiseModel noise;  // full eval, no DP
  return noise;
}

}  // namespace

Table fig8_methods_online(data::BenchmarkId id, std::size_t trials,
                          std::uint64_t seed) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool = hub.pool(id);
  const core::PoolEvalView& view = pool.view();
  constexpr std::size_t kRsConfigs = 16;

  Table table({"dataset", "method", "setting", "rounds", "err_q25",
               "err_median", "err_q75"});
  Rng rng(seed);
  for (Method method : all_methods()) {
    const std::size_t total = method_total_rounds(method, view, kRsConfigs);
    for (const bool noisy : {false, true}) {
      const core::NoiseModel noise =
          noisy ? noisy_setting(view) : noiseless_setting();
      // Paired trials: the noiseless and noisy runs of trial t share a seed
      // (same configuration draws; only the evaluation noise differs).
      const auto curves = pool_method_curves(
          method, pool.configs(), view, noise, kRsConfigs, trials,
          [&](std::size_t t) {
            return rng.split(t * 31 + static_cast<std::size_t>(method) * 7)
                .seed();
          });
      const AggregatedCurve agg =
          aggregate_curves(curves, budget_grid(total, 16));
      for (std::size_t g = 0; g < agg.grid.size(); ++g) {
        table.add_row({data::benchmark_name(id), method_name(method),
                       noisy ? "noisy" : "noiseless",
                       std::to_string(agg.grid[g]),
                       Table::format(100.0 * agg.summary[g].q25),
                       Table::format(100.0 * agg.summary[g].median),
                       Table::format(100.0 * agg.summary[g].q75)});
      }
    }
  }
  return table;
}

Table fig_method_bars(double budget_fraction, std::size_t trials,
                      std::uint64_t seed) {
  FEDTUNE_CHECK(budget_fraction > 0.0 && budget_fraction <= 1.0);
  constexpr std::size_t kRsConfigs = 16;

  Table table({"dataset", "method", "setting", "err_q25", "err_median",
               "err_q75"});
  PoolHub& hub = PoolHub::instance();
  Rng rng(seed);
  for (data::BenchmarkId id : data::all_benchmarks()) {
    const core::ConfigPool& pool = hub.pool(id);
    const core::PoolEvalView& view = pool.view();
    for (Method method : all_methods()) {
      const std::size_t total = method_total_rounds(method, view, kRsConfigs);
      const auto cut = static_cast<std::size_t>(
          std::llround(budget_fraction * static_cast<double>(total)));
      for (const bool noisy : {false, true}) {
        const core::NoiseModel noise =
            noisy ? noisy_setting(view) : noiseless_setting();
        // Paired seeds across the noiseless/noisy settings (see Fig. 8).
        const auto curves = pool_method_curves(
            method, pool.configs(), view, noise, kRsConfigs, trials,
            [&](std::size_t t) {
              return rng.split(t * 53 + static_cast<std::size_t>(method) * 11 +
                               static_cast<std::size_t>(id) * 101)
                  .seed();
            });
        std::vector<double> errors(trials);
        for (std::size_t t = 0; t < trials; ++t) {
          errors[t] = curve_value_at(curves[t], cut);
        }
        const stats::QuartileSummary q = stats::quartiles(errors);
        table.add_row({data::benchmark_name(id), method_name(method),
                       noisy ? "noisy" : "noiseless",
                       Table::format(100.0 * q.q25),
                       Table::format(100.0 * q.median),
                       Table::format(100.0 * q.q75)});
      }
    }
    // Fig. 1 adds a proxy-RS reference bar: immune to evaluation noise.
    // Proxy = the other dataset of the same task family.
    const data::BenchmarkId proxy_id =
        (id == data::BenchmarkId::kCifar10Like)
            ? data::BenchmarkId::kFemnistLike
        : (id == data::BenchmarkId::kFemnistLike)
            ? data::BenchmarkId::kCifar10Like
        : (id == data::BenchmarkId::kStackOverflowLike)
            ? data::BenchmarkId::kRedditLike
            : data::BenchmarkId::kStackOverflowLike;
    const core::PoolEvalView& proxy_view = hub.view(proxy_id);
    std::vector<double> proxy_errors(trials);
    Rng proxy_rng = rng.split(static_cast<std::size_t>(id) * 997 + 13);
    ThreadPool::global().parallel_for(trials, [&](std::size_t t) {
      Rng trial_rng = proxy_rng.split(t);
      proxy_errors[t] =
          core::one_shot_proxy_rs(proxy_view, view, kRsConfigs, trial_rng)
              .client_full_error;
    });
    const stats::QuartileSummary q = stats::quartiles(proxy_errors);
    table.add_row({data::benchmark_name(id), "RS(proxy)", "noisy-immune",
                   Table::format(100.0 * q.q25),
                   Table::format(100.0 * q.median),
                   Table::format(100.0 * q.q75)});
  }
  return table;
}

}  // namespace fedtune::sim
