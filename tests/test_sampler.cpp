#include "sampling/client_sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

namespace fedtune::sampling {
namespace {

TEST(UniformSampler, DistinctInRange) {
  Rng rng(1);
  const auto s = sample_uniform(20, 5, rng);
  EXPECT_EQ(s.size(), 5u);
  std::set<std::size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 5u);
  for (std::size_t v : s) EXPECT_LT(v, 20u);
}

TEST(WeightedSampler, ZeroWeightNeverSampled) {
  Rng rng(2);
  const std::vector<double> w = {1.0, 0.0, 1.0, 1.0};
  for (int t = 0; t < 200; ++t) {
    for (std::size_t v : sample_weighted(w, 3, rng)) {
      EXPECT_NE(v, 1u);
    }
  }
}

TEST(WeightedSampler, ThrowsWhenNotEnoughNonZero) {
  Rng rng(3);
  const std::vector<double> w = {1.0, 0.0, 0.0};
  EXPECT_THROW(sample_weighted(w, 2, rng), std::invalid_argument);
}

TEST(WeightedSampler, NegativeWeightThrows) {
  Rng rng(4);
  const std::vector<double> w = {1.0, -0.5};
  EXPECT_THROW(sample_weighted(w, 1, rng), std::invalid_argument);
}

TEST(WeightedSampler, HeavyWeightSampledMoreOften) {
  Rng rng(5);
  const std::vector<double> w = {1.0, 1.0, 8.0, 1.0};
  std::vector<int> counts(4, 0);
  for (int t = 0; t < 2000; ++t) {
    ++counts[sample_weighted(w, 1, rng).front()];
  }
  // Index 2 has weight 8/11 of the mass.
  EXPECT_NEAR(counts[2] / 2000.0, 8.0 / 11.0, 0.05);
}

TEST(WeightedSampler, FullSampleReturnsEveryNonZeroIndex) {
  Rng rng(6);
  const std::vector<double> w = {2.0, 5.0, 0.5};
  const auto s = sample_weighted(w, 3, rng);
  std::set<std::size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 3u);
}

// The exponential race ordered by partial_sort of the k smallest
// (key, index) pairs: the specification sample_weighted must reproduce
// index for index.
std::vector<std::size_t> reference_sample_weighted(
    const std::vector<double>& weights, std::size_t k, Rng& rng) {
  std::vector<std::pair<double, std::size_t>> keyed;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] == 0.0) continue;
    keyed.emplace_back(rng.exponential(1.0) / weights[i], i);
  }
  std::partial_sort(keyed.begin(),
                    keyed.begin() + static_cast<std::ptrdiff_t>(k),
                    keyed.end());
  std::vector<std::size_t> out(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = keyed[i].second;
  return out;
}

TEST(WeightedSampler, MatchesPartialSortReferenceExactly) {
  Rng gen(9);
  std::vector<std::vector<double>> weight_sets;
  weight_sets.emplace_back(300, 1.0);  // all equal
  std::vector<double> mixed(300);
  for (double& w : mixed) {
    const double u = gen.uniform();
    w = u < 0.2 ? 0.0 : u < 0.5 ? 0.25 : u;  // zeros and repeated values
  }
  weight_sets.push_back(mixed);
  // Denormal weights push most keys to +inf: ties broken by index alone.
  std::vector<double> tiny(300, 1e-310);
  for (std::size_t i = 0; i < tiny.size(); i += 7) tiny[i] = 0.0;
  for (std::size_t i = 3; i < tiny.size(); i += 11) tiny[i] = 2.0;
  weight_sets.push_back(tiny);

  for (const std::vector<double>& w : weight_sets) {
    const auto n = static_cast<std::size_t>(
        std::count_if(w.begin(), w.end(), [](double x) { return x > 0.0; }));
    for (const std::size_t k : {std::size_t{1}, std::size_t{9}, std::size_t{81},
                                n - 1, n}) {
      for (std::uint64_t seed = 0; seed < 60; ++seed) {
        Rng a(seed), b(seed);
        ASSERT_EQ(sample_weighted(w, k, a), reference_sample_weighted(w, k, b))
            << "n " << n << " k " << k << " seed " << seed;
        ASSERT_EQ(a.uniform(), b.uniform());  // same draws consumed
      }
    }
  }
}

TEST(BiasedSampler, BZeroIsUniformPath) {
  Rng a(7), b(7);
  const std::vector<double> acc = {0.1, 0.9, 0.5, 0.3};
  const auto biased = sample_biased(acc, 2, {0.0, 1e-4}, a);
  const auto uniform = sample_uniform(4, 2, b);
  EXPECT_EQ(biased, uniform);  // identical draws from identical rng state
}

TEST(BiasedSampler, LargeBPrefersAccurateClients) {
  Rng rng(8);
  // Client 0 has near-perfect accuracy, the rest are poor.
  std::vector<double> acc = {0.99, 0.1, 0.1, 0.1, 0.1};
  int hits = 0;
  for (int t = 0; t < 500; ++t) {
    const auto s = sample_biased(acc, 1, {3.0, 1e-4}, rng);
    if (s.front() == 0) ++hits;
  }
  // (0.99)^3 vs 4 * (0.1)^3: client 0 carries ~99.6% of the mass.
  EXPECT_GT(hits, 450);
}

TEST(BiasedSampler, ZeroAccuracyStillSampleable) {
  // delta keeps zero-accuracy clients alive.
  Rng rng(9);
  const std::vector<double> acc = {0.0, 0.0, 0.0};
  const auto s = sample_biased(acc, 2, {1.5, 1e-4}, rng);
  EXPECT_EQ(s.size(), 2u);
}

TEST(BiasedSampler, RejectsInvalidInputs) {
  Rng rng(10);
  const std::vector<double> acc = {0.5, 1.5};
  EXPECT_THROW(sample_biased(acc, 1, {1.0, 1e-4}, rng), std::invalid_argument);
  const std::vector<double> ok = {0.5, 0.5};
  EXPECT_THROW(sample_biased(ok, 1, {-1.0, 1e-4}, rng), std::invalid_argument);
  EXPECT_THROW(sample_biased(ok, 1, {1.0, 0.0}, rng), std::invalid_argument);
}

class BiasStrengthTest : public ::testing::TestWithParam<double> {};

TEST_P(BiasStrengthTest, MeanSampledAccuracyIncreasesWithB) {
  const double b = GetParam();
  Rng rng(11);
  std::vector<double> acc(50);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = static_cast<double>(i) / 49.0;
  }
  double mean_acc = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t v : sample_biased(acc, 5, {b, 1e-4}, rng)) {
      mean_acc += acc[v];
    }
  }
  mean_acc /= trials * 5;
  // Uniform sampling gives ~0.5; bias must raise it monotonically in b.
  if (b == 0.0) {
    EXPECT_NEAR(mean_acc, 0.5, 0.05);
  } else if (b >= 3.0) {
    EXPECT_GT(mean_acc, 0.75);
  } else {
    EXPECT_GT(mean_acc, 0.55);
  }
}

INSTANTIATE_TEST_SUITE_P(BiasLevels, BiasStrengthTest,
                         ::testing::Values(0.0, 1.0, 1.5, 3.0));

}  // namespace
}  // namespace fedtune::sampling
