#include "hpo/tpe.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.hpp"

namespace fedtune::hpo {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

double gaussian_log_pdf(double x, double mu, double sigma, double log_sigma) {
  const double z = (x - mu) / sigma;
  return -0.5 * (z * z + kLog2Pi) - log_sigma;
}

// Silverman's rule over one dim's values, floored.
double bandwidth(const std::vector<double>& values, double floor_bw) {
  if (values.size() < 2) return std::max(floor_bw, 0.25);
  double mean = 0.0;
  for (const double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (const double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size());
  const double sd = std::sqrt(var);
  const double bw =
      1.06 * sd * std::pow(static_cast<double>(values.size()), -0.2);
  return std::max(bw, floor_bw);
}

std::size_t category(double encoded, std::size_t n_cat) {
  return static_cast<std::size_t>(std::clamp<double>(
      std::round(encoded), 0.0, static_cast<double>(n_cat - 1)));
}

// One dim of a group's Parzen density. A continuous dim keeps the group's
// values (kernel centres, in group order), the bandwidth and its log; a
// choice dim keeps the smoothed category counts and their log-probabilities.
struct DimDensity {
  bool choice = false;
  std::vector<double> values;
  double bw = 0.0, log_bw = 0.0;
  std::vector<double> counts, log_prob;
};

struct Density {
  std::size_t size = 0;  // observations in the group
  std::vector<DimDensity> dims;
};

Density make_density(const SearchSpace& space, const TpeOptions& opts,
                     const std::vector<const std::vector<double>*>& group) {
  Density density;
  density.size = group.size();
  density.dims.resize(space.num_dims());
  for (std::size_t d = 0; d < density.dims.size(); ++d) {
    const ParamSpec& spec = space.dim_spec(d);
    DimDensity& dim = density.dims[d];
    if (spec.kind == ParamSpec::Kind::kChoice) {
      // Smoothed categorical frequency.
      dim.choice = true;
      const std::size_t n_cat = spec.choices.size();
      dim.counts.assign(n_cat, opts.prior_weight / static_cast<double>(n_cat));
      double total_count = opts.prior_weight;
      for (const auto* x : group) {
        dim.counts[category((*x)[d], n_cat)] += 1.0;
        total_count += 1.0;
      }
      for (const double c : dim.counts) {
        dim.log_prob.push_back(std::log(c / total_count));
      }
    } else {
      for (const auto* x : group) dim.values.push_back((*x)[d]);
      dim.bw = bandwidth(dim.values, opts.bandwidth_floor);
      dim.log_bw = std::log(dim.bw);
    }
  }
  return density;
}

// Per-dim log-density of `encoded`. `lp` is scratch holding one dim's
// kernel log-pdfs, read by both the max pass and the sum pass.
double log_density(const std::vector<double>& encoded, const Density& density,
                   std::vector<double>& lp) {
  FEDTUNE_CHECK(encoded.size() == density.dims.size());
  double total = 0.0;
  for (std::size_t d = 0; d < density.dims.size(); ++d) {
    const DimDensity& dim = density.dims[d];
    if (dim.choice) {
      total += dim.log_prob[category(encoded[d], dim.log_prob.size())];
      continue;
    }
    // Parzen mixture of Gaussians (untruncated; the shared support of l
    // and g makes the normalization cancel in the EI ratio), combined by
    // log-sum-exp over kernels (max + correction).
    const std::size_t n = dim.values.size();
    lp.resize(n);
    double acc = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      lp[j] = gaussian_log_pdf(encoded[d], dim.values[j], dim.bw, dim.log_bw);
      acc = std::max(acc, lp[j]);
    }
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += std::exp(lp[j] - acc);
    total += acc + std::log(sum / static_cast<double>(n));
  }
  return total;
}

}  // namespace

struct TpeDensityModel::Prepared {
  Density good, bad;

  // log l(x) - log g(x).
  double acquisition(const std::vector<double>& encoded,
                     std::vector<double>& scratch) const {
    return log_density(encoded, good, scratch) -
           log_density(encoded, bad, scratch);
  }
};

TpeDensityModel::TpeDensityModel(const SearchSpace& space, TpeOptions opts)
    : space_(&space), opts_(opts) {
  FEDTUNE_CHECK(opts.gamma > 0.0 && opts.gamma < 1.0);
  FEDTUNE_CHECK(opts.n_candidates > 0);
}

void TpeDensityModel::add_observation(const Config& config, double objective) {
  xs_.push_back(space_->encode(config));
  ys_.push_back(objective);
}

void TpeDensityModel::clear() {
  xs_.clear();
  ys_.clear();
}

TpeDensityModel::Prepared TpeDensityModel::prepare() const {
  FEDTUNE_CHECK(ready());
  const std::size_t n = ys_.size();
  const auto n_good = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(opts_.gamma * static_cast<double>(n))));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ys_[a] < ys_[b]; });
  std::vector<const std::vector<double>*> good, bad;
  for (std::size_t i = 0; i < n; ++i) {
    (i < n_good ? good : bad).push_back(&xs_[order[i]]);
  }
  if (bad.empty()) {  // degenerate tiny history: reuse good as bad
    bad = good;
  }
  return {make_density(*space_, opts_, good), make_density(*space_, opts_, bad)};
}

double TpeDensityModel::acquisition(const std::vector<double>& encoded) const {
  std::vector<double> scratch;
  return prepare().acquisition(encoded, scratch);
}

std::vector<double> TpeDensityModel::sample_from_good(const Prepared& prepared,
                                                      Rng& rng) const {
  const Density& good = prepared.good;
  const auto anchor = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(good.size) - 1));
  std::vector<double> out(good.dims.size());
  for (std::size_t d = 0; d < out.size(); ++d) {
    const DimDensity& dim = good.dims[d];
    if (dim.choice) {
      // Sample a category from the smoothed good histogram.
      out[d] = static_cast<double>(rng.categorical(dim.counts));
    } else {
      out[d] = std::clamp(dim.values[anchor] + rng.normal(0.0, dim.bw), 0.0, 1.0);
    }
  }
  return out;
}

Config TpeDensityModel::propose(Rng& rng, const std::vector<Config>* pool) const {
  FEDTUNE_CHECK(ready());
  if (pool != nullptr) {
    return (*pool)[propose_pool_index(rng, *pool)];
  }
  const Prepared prepared = prepare();
  std::vector<double> scratch;
  std::vector<double> best;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < opts_.n_candidates; ++c) {
    std::vector<double> cand = sample_from_good(prepared, rng);
    const double score = prepared.acquisition(cand, scratch);
    if (score > best_score) {
      best_score = score;
      best = std::move(cand);
    }
  }
  return space_->decode(best);
}

std::size_t TpeDensityModel::propose_pool_index(
    Rng& rng, const std::vector<Config>& pool) const {
  FEDTUNE_CHECK(ready());
  FEDTUNE_CHECK(!pool.empty());
  // Score a random subset (or all, if small) to bound cost on large pools.
  std::vector<std::size_t> candidates;
  if (pool.size() <= 4 * opts_.n_candidates) {
    candidates.resize(pool.size());
    std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  } else {
    candidates = rng.sample_without_replacement(pool.size(),
                                                4 * opts_.n_candidates);
  }
  const Prepared prepared = prepare();
  std::vector<double> scratch;
  std::size_t best = candidates.front();
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i : candidates) {
    const double score = prepared.acquisition(space_->encode(pool[i]), scratch);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

// -------------------------------------------------------------------- Tpe --

Tpe::Tpe(SearchSpace space, std::size_t num_configs,
         std::size_t rounds_per_config, TpeOptions opts, Rng rng)
    : space_(std::move(space)), num_configs_(num_configs),
      rounds_per_config_(rounds_per_config), opts_(opts), rng_(rng),
      model_(space_, opts) {
  FEDTUNE_CHECK(num_configs > 0 && rounds_per_config > 0);
}

void Tpe::set_candidate_pool(CandidatePool pool) {
  FEDTUNE_CHECK(!pool.configs.empty());
  pool_ = std::move(pool);
}

std::optional<Trial> Tpe::ask() {
  if (issued_ >= num_configs_) return std::nullopt;
  Trial t;
  t.id = static_cast<int>(issued_);
  t.target_rounds = rounds_per_config_;

  const bool use_model =
      issued_ >= opts_.n_startup && model_.num_observations() >= 2;
  if (pool_.has_value()) {
    if (use_model) {
      t.config_index = model_.propose_pool_index(rng_, pool_->configs);
    } else {
      t.config_index = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(pool_->configs.size()) - 1));
    }
    t.config = pool_->configs[t.config_index];
  } else {
    t.config = use_model ? model_.propose(rng_) : space_.sample(rng_);
  }
  ++issued_;
  return t;
}

void Tpe::tell(const Trial& trial, double objective) {
  history_.emplace_back(trial, objective);
  model_.add_observation(trial.config, objective);
}

bool Tpe::done() const {
  return issued_ >= num_configs_ && history_.size() >= num_configs_;
}

std::optional<Trial> Tpe::best_trial() const {
  if (history_.empty()) return std::nullopt;
  std::vector<double> accuracies;
  accuracies.reserve(history_.size());
  for (const auto& [trial, obj] : history_) accuracies.push_back(1.0 - obj);
  return history_[selector_(accuracies, 1).front()].first;
}

}  // namespace fedtune::hpo
