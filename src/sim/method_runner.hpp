// Internal helper shared by experiment implementations: constructs one of
// the four tuning methods in candidate-pool mode and runs it through the
// TuningDriver against a pool view.
#pragma once

#include <functional>
#include <memory>

#include "core/pool_runner.hpp"
#include "core/tuning_driver.hpp"
#include "hpo/tuner.hpp"
#include "sim/experiments.hpp"

namespace fedtune::sim {

// Budget conventions matching the paper (scaled): RS/TPE train K configs to
// the fidelity ceiling; HB/BOHB sweep all eta=3 brackets over the pool's
// checkpoint grid.
std::unique_ptr<hpo::Tuner> make_pool_tuner(
    Method method, const std::vector<hpo::Config>& configs,
    const core::PoolEvalView& view, std::size_t rs_configs, Rng rng);

// Single SHA bracket over the pool's checkpoint grid (n0 entrants at the
// grid's first rung, eta=3 eliminations up to its ceiling) — the fifth
// method the StudyService offers (service/study.hpp). Self-contained: owns
// the trial-id counter Hyperband normally shares across brackets.
std::unique_ptr<hpo::Tuner> make_pool_sha_tuner(
    const std::vector<hpo::Config>& configs, const core::PoolEvalView& view,
    std::size_t n0, Rng rng);

// DP style for the method (per-eval Laplace vs one-shot top-k).
core::DpStyle dp_style_for(Method method);

// One tuning run on the pool under the noise model.
core::TuneResult run_pool_method(Method method,
                                 const std::vector<hpo::Config>& configs,
                                 const core::PoolEvalView& view,
                                 const core::NoiseModel& noise,
                                 std::size_t rs_configs, std::uint64_t seed);

// Incumbent curves of `trials` runs of the method, run t seeded by
// seed_of(t). The runs go on ThreadPool::global(); curves[t] is run t's, so
// the result does not depend on the thread count.
std::vector<std::vector<core::CurvePoint>> pool_method_curves(
    Method method, const std::vector<hpo::Config>& configs,
    const core::PoolEvalView& view, const core::NoiseModel& noise,
    std::size_t rs_configs, std::size_t trials,
    const std::function<std::uint64_t(std::size_t)>& seed_of);

// Total training rounds the method consumes (for budget grids).
std::size_t method_total_rounds(Method method, const core::PoolEvalView& view,
                                std::size_t rs_configs);

}  // namespace fedtune::sim
