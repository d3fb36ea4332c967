// Tree-structured Parzen Estimator (Bergstra et al., 2011; Appendix A of the
// paper).
//
// Observations (config, error) are split at the gamma-quantile of the
// objective into a "good" set (errors below the threshold) modelling l(x)
// and a "bad" set modelling g(x). Both densities are per-dimension Parzen
// mixtures in the unit-hypercube encoding (Gaussian kernels for continuous
// dims with Silverman bandwidths, smoothed histograms for choice dims).
// Expected improvement is maximized by sampling candidates from l and
// keeping the one minimizing g(x)/l(x).
//
// The density model doubles as BOHB's proposal engine (hpo/bohb.hpp) and
// supports pool-restricted proposals for the tabular-benchmark protocol.
#pragma once

#include <optional>

#include "hpo/tuner.hpp"

namespace fedtune::hpo {

struct TpeOptions {
  std::size_t n_startup = 4;      // random configs before the model kicks in
  double gamma = 0.25;            // good-set quantile
  std::size_t n_candidates = 24;  // EI candidates sampled from l(x)
  double bandwidth_floor = 0.08;  // minimum kernel bandwidth (unit space)
  double prior_weight = 1.0;      // smoothing pseudo-count for choice dims
};

// Standalone density model, reusable by BOHB.
class TpeDensityModel {
 public:
  TpeDensityModel(const SearchSpace& space, TpeOptions opts);

  void add_observation(const Config& config, double objective);
  std::size_t num_observations() const { return xs_.size(); }
  void clear();

  // True once both groups can be formed (>= 2 observations).
  bool ready() const { return xs_.size() >= 2; }

  // Proposes the EI-maximizing config: from `pool` if non-null (scores every
  // pool entry), else by sampling candidates from l(x).
  Config propose(Rng& rng, const std::vector<Config>* pool = nullptr) const;
  // Index variant for pool proposals.
  std::size_t propose_pool_index(Rng& rng, const std::vector<Config>& pool) const;

  // log l(x) - log g(x) for an encoded point (higher = more promising).
  double acquisition(const std::vector<double>& encoded) const;

 private:
  // l(x) and g(x) of the current history, with everything that does not
  // depend on the scored point (the split, bandwidths, category counts)
  // computed once per proposal. Defined in tpe.cpp.
  struct Prepared;
  Prepared prepare() const;
  std::vector<double> sample_from_good(const Prepared& prepared, Rng& rng) const;

  const SearchSpace* space_;
  TpeOptions opts_;
  std::vector<std::vector<double>> xs_;  // encoded observations
  std::vector<double> ys_;               // objectives (errors)
};

class Tpe final : public Tuner {
 public:
  Tpe(SearchSpace space, std::size_t num_configs, std::size_t rounds_per_config,
      TpeOptions opts, Rng rng);

  void set_candidate_pool(CandidatePool pool);

  std::optional<Trial> ask() override;
  void tell(const Trial& trial, double objective) override;
  bool done() const override;
  std::optional<Trial> best_trial() const override;
  std::size_t planned_evaluations() const override { return num_configs_; }

 private:
  SearchSpace space_;
  std::size_t num_configs_;
  std::size_t rounds_per_config_;
  TpeOptions opts_;
  Rng rng_;
  TpeDensityModel model_;
  std::optional<CandidatePool> pool_;
  std::size_t issued_ = 0;
  std::vector<std::pair<Trial, double>> history_;
};

}  // namespace fedtune::hpo
