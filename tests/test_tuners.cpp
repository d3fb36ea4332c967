// RandomSearch and TPE lifecycle + behavior tests driven by a synthetic
// objective (no federated training involved).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>

#include "hpo/random_search.hpp"
#include "hpo/tpe.hpp"

namespace fedtune::hpo {
namespace {

SearchSpace simple_space() {
  SearchSpace s;
  s.add_uniform("x", 0.0, 1.0).add_uniform("y", 0.0, 1.0);
  return s;
}

// Quadratic bowl: minimum at (0.3, 0.7).
double bowl(const Config& c) {
  const double dx = c.at("x") - 0.3;
  const double dy = c.at("y") - 0.7;
  return dx * dx + dy * dy;
}

template <typename Tuner>
double run_to_completion(Tuner& tuner) {
  while (auto t = tuner.ask()) {
    tuner.tell(*t, bowl(t->config));
  }
  return bowl(tuner.best_trial()->config);
}

TEST(RandomSearch, LifecycleAndCounts) {
  RandomSearch rs(simple_space(), 10, 5, Rng(1));
  EXPECT_EQ(rs.planned_evaluations(), 10u);
  int trials = 0;
  while (auto t = rs.ask()) {
    EXPECT_EQ(t->target_rounds, 5u);
    EXPECT_EQ(t->parent_id, -1);
    EXPECT_EQ(t->id, trials);
    rs.tell(*t, bowl(t->config));
    ++trials;
    EXPECT_EQ(rs.done(), trials == 10);
  }
  EXPECT_EQ(trials, 10);
}

TEST(RandomSearch, BestTrialIsArgmin) {
  RandomSearch rs(simple_space(), 20, 1, Rng(2));
  double best = 1e9;
  while (auto t = rs.ask()) {
    const double obj = bowl(t->config);
    best = std::min(best, obj);
    rs.tell(*t, obj);
  }
  EXPECT_DOUBLE_EQ(bowl(rs.best_trial()->config), best);
}

TEST(RandomSearch, BestTrialBeforeAnyTellIsEmpty) {
  RandomSearch rs(simple_space(), 3, 1, Rng(3));
  EXPECT_FALSE(rs.best_trial().has_value());
  const auto t = rs.ask();
  ASSERT_TRUE(t.has_value());
  // Still empty after an ask without a tell.
  EXPECT_FALSE(rs.best_trial().has_value());
  rs.tell(*t, 0.5);
  ASSERT_TRUE(rs.best_trial().has_value());
  EXPECT_EQ(rs.best_trial()->id, t->id);
}

TEST(RandomSearch, PoolModeSetsIndices) {
  Rng rng(4);
  CandidatePool pool;
  for (int i = 0; i < 7; ++i) pool.configs.push_back(simple_space().sample(rng));
  RandomSearch rs(simple_space(), 30, 1, Rng(5));
  rs.set_candidate_pool(pool);
  std::set<std::size_t> used;
  while (auto t = rs.ask()) {
    ASSERT_LT(t->config_index, 7u);
    // Config content must match the pool entry.
    EXPECT_DOUBLE_EQ(t->config.at("x"), pool.configs[t->config_index].at("x"));
    used.insert(t->config_index);
    rs.tell(*t, bowl(t->config));
  }
  EXPECT_GT(used.size(), 3u);  // bootstrap w/ replacement covers several
}

TEST(RandomSearch, DeterministicGivenSeed) {
  RandomSearch a(simple_space(), 5, 1, Rng(6));
  RandomSearch b(simple_space(), 5, 1, Rng(6));
  while (auto ta = a.ask()) {
    const auto tb = b.ask();
    ASSERT_TRUE(tb.has_value());
    EXPECT_DOUBLE_EQ(ta->config.at("x"), tb->config.at("x"));
    a.tell(*ta, 0.5);
    b.tell(*tb, 0.5);
  }
}

TEST(TpeDensityModel, SplitsAndScoresTowardGoodRegion) {
  const SearchSpace space = simple_space();
  TpeDensityModel model(space, TpeOptions{});
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    const Config c = space.sample(rng);
    model.add_observation(c, bowl(c));
  }
  ASSERT_TRUE(model.ready());
  // Acquisition at the optimum should beat a far corner.
  const double at_opt = model.acquisition({0.3, 0.7});
  const double at_corner = model.acquisition({0.99, 0.01});
  EXPECT_GT(at_opt, at_corner);
}

TEST(TpeDensityModel, ProposalsConcentrateNearOptimum) {
  const SearchSpace space = simple_space();
  TpeDensityModel model(space, TpeOptions{});
  Rng rng(12);
  for (int i = 0; i < 60; ++i) {
    const Config c = space.sample(rng);
    model.add_observation(c, bowl(c));
  }
  double mean_obj = 0.0;
  for (int i = 0; i < 30; ++i) {
    mean_obj += bowl(model.propose(rng));
  }
  mean_obj /= 30;
  // Random samples average E[bowl] ~ 0.22; proposals should do much better.
  EXPECT_LT(mean_obj, 0.1);
}

// log l(x) - log g(x) computed the direct way, once per scored point:
// re-split the history at the gamma-quantile, then per dim a smoothed
// category frequency or a Silverman-bandwidth Gaussian Parzen mixture whose
// kernels are evaluated twice (max pass, then log-sum-exp pass).
double direct_acquisition(const SearchSpace& space, const TpeOptions& opts,
                          const std::vector<std::vector<double>>& xs,
                          const std::vector<double>& ys,
                          const std::vector<double>& point) {
  const std::size_t n = ys.size();
  const auto n_good = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(opts.gamma * static_cast<double>(n))));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ys[a] < ys[b]; });
  std::vector<const std::vector<double>*> good, bad;
  for (std::size_t i = 0; i < n; ++i) {
    (i < n_good ? good : bad).push_back(&xs[order[i]]);
  }
  if (bad.empty()) bad = good;
  const auto log_density = [&](const std::vector<const std::vector<double>*>& g) {
    double total = 0.0;
    for (std::size_t d = 0; d < space.num_dims(); ++d) {
      const ParamSpec& spec = space.dim_spec(d);
      if (spec.kind == ParamSpec::Kind::kChoice) {
        const std::size_t n_cat = spec.choices.size();
        const auto cat = [&](double v) {
          return static_cast<std::size_t>(std::clamp<double>(
              std::round(v), 0.0, static_cast<double>(n_cat - 1)));
        };
        std::vector<double> counts(n_cat, opts.prior_weight / static_cast<double>(n_cat));
        double total_count = opts.prior_weight;
        for (const auto* x : g) {
          counts[cat((*x)[d])] += 1.0;
          total_count += 1.0;
        }
        total += std::log(counts[cat(point[d])] / total_count);
        continue;
      }
      double bw = std::max(opts.bandwidth_floor, 0.25);
      if (g.size() >= 2) {
        double mean = 0.0;
        for (const auto* x : g) mean += (*x)[d];
        mean /= static_cast<double>(g.size());
        double var = 0.0;
        for (const auto* x : g) var += ((*x)[d] - mean) * ((*x)[d] - mean);
        var /= static_cast<double>(g.size());
        const double sd = std::sqrt(var);
        bw = std::max(1.06 * sd * std::pow(static_cast<double>(g.size()), -0.2),
                      opts.bandwidth_floor);
      }
      const auto log_pdf = [&](double mu) {
        const double z = (point[d] - mu) / bw;
        return -0.5 * (z * z + 1.8378770664093453) - std::log(bw);
      };
      double acc = -std::numeric_limits<double>::infinity();
      for (const auto* x : g) acc = std::max(acc, log_pdf((*x)[d]));
      double sum = 0.0;
      for (const auto* x : g) sum += std::exp(log_pdf((*x)[d]) - acc);
      total += acc + std::log(sum / static_cast<double>(g.size()));
    }
    return total;
  };
  return log_density(good) - log_density(bad);
}

TEST(TpeDensityModel, AcquisitionIsBitwiseTheDirectFormula) {
  const SearchSpace space = appendix_b_space();  // continuous + choice dims
  const TpeOptions opts;
  for (const std::size_t history : {2, 3, 7, 16, 33, 60}) {
    Rng rng(77 + history);
    TpeDensityModel model(space, opts);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < history; ++i) {
      const Config c = space.sample(rng);
      const double y = std::round(10.0 * c.at("beta1")) / 10.0;  // ties
      model.add_observation(c, y);
      xs.push_back(space.encode(c));
      ys.push_back(y);
    }
    for (int i = 0; i < 40; ++i) {
      const std::vector<double> point = space.encode(space.sample(rng));
      const double got = model.acquisition(point);
      const double want = direct_acquisition(space, opts, xs, ys, point);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "history " << history << ": " << got << " vs " << want;
    }
  }
}

// propose_pool_index scores candidates on a density prepared once per
// proposal; acquisition() prepares its own. Both must give the same bits, so
// the proposal is the first argmax of acquisition() over the candidates the
// proposal draws (all of a small pool, a random subset of a large one).
TEST(TpeDensityModel, PoolProposalIsFirstArgmaxOfAcquisition) {
  const SearchSpace space = appendix_b_space();  // continuous + choice dims
  const TpeOptions opts;
  for (const std::size_t pool_size : {std::size_t{50}, std::size_t{200}}) {
    for (std::size_t run = 0; run < 48; ++run) {
      const std::size_t history = 2 + run * 58 / 47;  // 2 .. 60
      Rng rng(1000 * pool_size + run);
      std::vector<Config> pool;
      for (std::size_t i = 0; i < pool_size; ++i) pool.push_back(space.sample(rng));
      TpeDensityModel model(space, opts);
      for (std::size_t i = 0; i < history; ++i) {
        const Config& c = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool_size) - 1))];
        // Coarse objectives: ties in the good/bad split are common.
        model.add_observation(c, std::round(10.0 * c.at("beta1")) / 10.0);
      }
      Rng proposer = rng;
      const std::size_t picked = model.propose_pool_index(proposer, pool);

      std::vector<std::size_t> candidates(pool_size);
      std::iota(candidates.begin(), candidates.end(), std::size_t{0});
      if (pool_size > 4 * opts.n_candidates) {
        candidates = rng.sample_without_replacement(pool_size,
                                                    4 * opts.n_candidates);
      }
      std::size_t best = candidates.front();
      double best_score = -std::numeric_limits<double>::infinity();
      for (const std::size_t i : candidates) {
        const double score = model.acquisition(space.encode(pool[i]));
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      EXPECT_EQ(picked, best) << "pool " << pool_size << " history " << history;
      const double picked_score = model.acquisition(space.encode(pool[picked]));
      EXPECT_EQ(std::memcmp(&picked_score, &best_score, sizeof(double)), 0)
          << "pool " << pool_size << " history " << history;
    }
  }
}

TEST(TpeDensityModel, PoolProposalReturnsValidIndex) {
  const SearchSpace space = simple_space();
  TpeDensityModel model(space, TpeOptions{});
  Rng rng(13);
  std::vector<Config> pool;
  for (int i = 0; i < 50; ++i) pool.push_back(space.sample(rng));
  for (int i = 0; i < 20; ++i) {
    model.add_observation(pool[static_cast<std::size_t>(i)], bowl(pool[i]));
  }
  const std::size_t idx = model.propose_pool_index(rng, pool);
  ASSERT_LT(idx, pool.size());
  // The chosen pool config should be better than the pool median.
  std::vector<double> objs;
  for (const auto& c : pool) objs.push_back(bowl(c));
  std::sort(objs.begin(), objs.end());
  EXPECT_LT(bowl(pool[idx]), objs[25]);
}

TEST(Tpe, BeatsRandomSearchOnSmoothObjective) {
  // Paired comparison over several seeds; TPE should usually win.
  int tpe_wins = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    RandomSearch rs(simple_space(), 24, 1, Rng(seed));
    Tpe tpe(simple_space(), 24, 1, TpeOptions{}, Rng(seed + 100));
    const double rs_best = run_to_completion(rs);
    const double tpe_best = run_to_completion(tpe);
    if (tpe_best <= rs_best) ++tpe_wins;
  }
  EXPECT_GE(tpe_wins, 6);
}

TEST(Tpe, StartupPhaseIsRandom) {
  TpeOptions opts;
  opts.n_startup = 5;
  Tpe tpe(simple_space(), 10, 1, opts, Rng(14));
  // Must be able to issue startup trials without any observations.
  for (int i = 0; i < 5; ++i) {
    const auto t = tpe.ask();
    ASSERT_TRUE(t.has_value());
    tpe.tell(*t, bowl(t->config));
  }
}

TEST(Tpe, PlannedEvaluations) {
  Tpe tpe(simple_space(), 16, 81, TpeOptions{}, Rng(15));
  EXPECT_EQ(tpe.planned_evaluations(), 16u);
}

TEST(Tpe, PoolModeProposalsComeFromPool) {
  const SearchSpace space = simple_space();
  Rng rng(16);
  CandidatePool pool;
  for (int i = 0; i < 12; ++i) pool.configs.push_back(space.sample(rng));
  Tpe tpe(space, 10, 1, TpeOptions{}, Rng(17));
  tpe.set_candidate_pool(pool);
  while (auto t = tpe.ask()) {
    ASSERT_LT(t->config_index, 12u);
    tpe.tell(*t, bowl(t->config));
  }
  EXPECT_TRUE(tpe.done());
}

}  // namespace
}  // namespace fedtune::hpo
