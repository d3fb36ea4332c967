#include "sampling/client_sampler.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace fedtune::sampling {

std::vector<std::size_t> sample_uniform(std::size_t n, std::size_t k, Rng& rng) {
  return rng.sample_without_replacement(n, k);
}

std::vector<std::size_t> sample_weighted(std::span<const double> weights,
                                         std::size_t k, Rng& rng) {
  const std::size_t n = weights.size();
  FEDTUNE_CHECK_MSG(k <= n, "cannot sample " << k << " of " << n << " clients");
  // Efraimidis–Spirakis: key_i = u^(1/w_i); take the k largest keys.
  // Equivalently order by -log(u)/w_i ascending (exponential race).
  std::vector<std::pair<double, std::size_t>> keyed;
  keyed.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FEDTUNE_CHECK_MSG(weights[i] >= 0.0, "weights must be non-negative");
    if (weights[i] == 0.0) continue;
    keyed.emplace_back(rng.exponential(1.0) / weights[i], i);
  }
  FEDTUNE_CHECK_MSG(keyed.size() >= k,
                    "fewer than k clients have non-zero weight");
  // The k smallest pairs, ascending. (key, index) pairs are a strict total
  // order, so this is exactly what partial_sort returns; selecting first and
  // sorting only the k winners is cheaper, and k = 1 is one min scan.
  const auto kth = keyed.begin() + static_cast<std::ptrdiff_t>(k);
  if (k == 1) {
    std::iter_swap(keyed.begin(), std::min_element(keyed.begin(), keyed.end()));
  } else {
    std::nth_element(keyed.begin(), kth, keyed.end());
    std::sort(keyed.begin(), kth);
  }
  std::vector<std::size_t> out(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = keyed[i].second;
  return out;
}

std::vector<std::size_t> sample_biased(std::span<const double> accuracies,
                                       std::size_t k, const BiasConfig& cfg,
                                       Rng& rng) {
  FEDTUNE_CHECK(cfg.delta > 0.0);
  FEDTUNE_CHECK(cfg.b >= 0.0);
  if (cfg.b == 0.0) return sample_uniform(accuracies.size(), k, rng);
  std::vector<double> weights(accuracies.size());
  for (std::size_t i = 0; i < accuracies.size(); ++i) {
    FEDTUNE_CHECK_MSG(accuracies[i] >= 0.0 && accuracies[i] <= 1.0,
                      "accuracy out of [0,1]");
    weights[i] = std::pow(accuracies[i] + cfg.delta, cfg.b);
  }
  return sample_weighted(weights, k, rng);
}

}  // namespace fedtune::sampling
