#include "core/config_pool.hpp"

#include <algorithm>
#include <filesystem>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "core/hp_mapping.hpp"
#include "fl/evaluator.hpp"

namespace fedtune::core {

namespace {
// Bump the low word of a magic whenever the file's layout OR the bits of
// what it stores change (a pool cached by an older build must be rebuilt,
// not served). v4 pools, v3 views and v2 shards: training runs on the
// libm-free tanh/exp kernels (tensor/ops.hpp), and views re-evaluate stored
// params through that tanh.
constexpr std::uint64_t kPoolMagic = 0xfed7d2ae00000004ULL;
constexpr std::uint64_t kViewMagic = 0xfed7a11e00000003ULL;
// Shard files: range header (lo, hi, total) + monolithic payload.
constexpr std::uint64_t kShardMagic = 0xfed75a2d00000002ULL;
}

// ------------------------------------------------------------ PoolEvalView --

PoolEvalView::PoolEvalView(std::vector<std::size_t> checkpoints,
                           std::vector<double> client_weights,
                           std::size_t num_configs)
    : checkpoints_(std::move(checkpoints)),
      client_weights_(std::move(client_weights)), num_configs_(num_configs) {
  FEDTUNE_CHECK(!checkpoints_.empty());
  FEDTUNE_CHECK(std::is_sorted(checkpoints_.begin(), checkpoints_.end()));
  FEDTUNE_CHECK(!client_weights_.empty());
  FEDTUNE_CHECK(num_configs_ > 0);
  errors_.assign(num_configs_ * checkpoints_.size() * client_weights_.size(),
                 1.0f);
  // Aggregation denominators and the rounds->index lookup are fixed at
  // construction; full_error/checkpoint_index are called per simulated trial,
  // so neither should rescan per call.
  weight_sum_ = 0.0;
  for (double w : client_weights_) weight_sum_ += w;
  for (std::size_t i = 0; i < checkpoints_.size(); ++i) {
    checkpoint_lookup_.emplace(checkpoints_[i], i);
  }
}

std::size_t PoolEvalView::checkpoint_index(std::size_t rounds) const {
  const auto it = checkpoint_lookup_.find(rounds);
  FEDTUNE_CHECK_MSG(it != checkpoint_lookup_.end(),
                    "no checkpoint at " << rounds << " rounds");
  return it->second;
}

std::span<float> PoolEvalView::errors(std::size_t config,
                                      std::size_t checkpoint) {
  FEDTUNE_CHECK(config < num_configs_ && checkpoint < checkpoints_.size());
  const std::size_t n = num_clients();
  return std::span<float>(
      errors_.data() + (config * checkpoints_.size() + checkpoint) * n, n);
}

std::span<const float> PoolEvalView::errors(std::size_t config,
                                            std::size_t checkpoint) const {
  FEDTUNE_CHECK(config < num_configs_ && checkpoint < checkpoints_.size());
  const std::size_t n = num_clients();
  return std::span<const float>(
      errors_.data() + (config * checkpoints_.size() + checkpoint) * n, n);
}

std::vector<double> PoolEvalView::errors_f64(std::size_t config,
                                             std::size_t checkpoint) const {
  const auto e = errors(config, checkpoint);
  return std::vector<double>(e.begin(), e.end());
}

double PoolEvalView::full_error(std::size_t config, std::size_t checkpoint,
                                fl::Weighting weighting) const {
  const auto e = errors(config, checkpoint);
  double num = 0.0;
  if (weighting == fl::Weighting::kUniform) {
    for (std::size_t k = 0; k < e.size(); ++k) num += static_cast<double>(e[k]);
    return num / static_cast<double>(e.size());
  }
  for (std::size_t k = 0; k < e.size(); ++k) {
    num += client_weights_[k] * static_cast<double>(e[k]);
  }
  return num / weight_sum_;
}

double PoolEvalView::min_client_error(std::size_t config,
                                      std::size_t checkpoint) const {
  const auto e = errors(config, checkpoint);
  return static_cast<double>(*std::min_element(e.begin(), e.end()));
}

void PoolEvalView::save(const std::string& path, Env* env) const {
  const std::string tmp = path + ".tmp";
  BinaryWriter w(tmp, env);
  w.write_u64(kViewMagic);
  w.write_u64(num_configs_);
  w.write_vector<std::size_t>(checkpoints_);
  w.write_vector<double>(client_weights_);
  w.write_vector<float>(errors_);
  w.close();
  env_or_real(env).rename_file(tmp, path);
}

std::optional<PoolEvalView> PoolEvalView::load(const std::string& path) {
  BinaryReader r(path);
  if (!r.is_open()) return std::nullopt;
  try {
    if (r.read_u64() != kViewMagic) return std::nullopt;
    const std::uint64_t num_configs = r.read_u64();
    const auto checkpoints = r.read_vector<std::size_t>();
    const auto weights = r.read_vector<double>();
    PoolEvalView view(checkpoints, weights, num_configs);
    view.errors_ = r.read_vector<float>();
    FEDTUNE_CHECK(view.errors_.size() ==
                  num_configs * checkpoints.size() * weights.size());
    FEDTUNE_CHECK_MSG(r.at_end(), "trailing bytes after view payload");
    return view;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

double PoolEvalView::best_full_error(fl::Weighting weighting) const {
  double best = 1.0;
  for (std::size_t c = 0; c < num_configs_; ++c) {
    best = std::min(best, full_error(c, final_checkpoint(), weighting));
  }
  return best;
}

// -------------------------------------------------------------- ConfigPool --

ConfigPool ConfigPool::build(const data::FederatedDataset& dataset,
                             const nn::Model& architecture,
                             const hpo::SearchSpace& space,
                             const PoolBuildOptions& opts) {
  return build_shard(dataset, architecture, space, opts, 0, opts.num_configs);
}

ConfigPool ConfigPool::build_shard(const data::FederatedDataset& dataset,
                                   const nn::Model& architecture,
                                   const hpo::SearchSpace& space,
                                   const PoolBuildOptions& opts,
                                   std::size_t config_lo,
                                   std::size_t config_hi) {
  FEDTUNE_CHECK(opts.num_configs > 0);
  FEDTUNE_CHECK_MSG(config_lo < config_hi && config_hi <= opts.num_configs,
                    "bad shard range [" << config_lo << ", " << config_hi
                                        << ") of " << opts.num_configs);
  FEDTUNE_CHECK(!opts.checkpoints.empty());
  FEDTUNE_CHECK(std::is_sorted(opts.checkpoints.begin(), opts.checkpoints.end()));

  ConfigPool pool;
  pool.dataset_name_ = dataset.name;
  pool.shard_lo_ = config_lo;
  // The FULL config list is sampled in every shard: it is cheap, keeps the
  // sampling stream independent of the sharding, and lets merge() verify
  // that all shards came from the same (seed, space) pool definition.
  Rng config_rng(opts.config_seed);
  pool.configs_.reserve(opts.num_configs);
  for (std::size_t i = 0; i < opts.num_configs; ++i) {
    pool.configs_.push_back(space.sample(config_rng));
  }

  const std::size_t range = config_hi - config_lo;
  pool.view_ = PoolEvalView(opts.checkpoints,
                            data::example_count_weights(dataset.eval_clients),
                            range);
  pool.param_count_ = architecture.num_params();
  if (opts.store_params) {
    pool.params_.assign(range * opts.checkpoints.size() * pool.param_count_,
                        0.0f);
  }

  // Config-level parallelism is the outer loop. With num_threads == 0
  // (auto) the client-level loops inside (run_round, all_client_errors)
  // also request parallelism: it materializes only when the config level
  // leaves the pool idle (a single-config build), and degrades inline when
  // the config level occupies it — configs in [2, threads) therefore run at
  // config-level width, never oversubscribed. Any explicit num_threads is a
  // hard cap: the client level stays serial so total concurrency can never
  // exceed the requested count, even when the config loop runs inline.
  const Rng train_rng(opts.train_seed);
  std::unique_ptr<ThreadPool> local_pool;
  if (opts.num_threads != 0) {
    local_pool = std::make_unique<ThreadPool>(opts.num_threads);
  }
  ThreadPool& workers = local_pool ? *local_pool : ThreadPool::global();
  fl::TrainerConfig trainer_cfg = opts.trainer;
  const std::size_t inner_threads = opts.num_threads == 0 ? 0 : 1;
  if (opts.num_threads != 0) trainer_cfg.client_threads = 1;
  workers.parallel_for(range, [&](std::size_t local) {
    // Training streams split on the GLOBAL config index, so a shard build is
    // bitwise identical to the same slice of a monolithic build.
    const std::size_t c = config_lo + local;
    const fl::FedHyperParams hps = to_fed_hyperparams(pool.configs_[c]);
    fl::FedTrainer trainer(dataset, architecture, hps, trainer_cfg,
                           train_rng.split(c));
    for (std::size_t ck = 0; ck < opts.checkpoints.size(); ++ck) {
      trainer.run_rounds(opts.checkpoints[ck] - trainer.rounds_done());
      const std::vector<double> errs = fl::all_client_errors(
          trainer.model(), dataset.eval_clients, inner_threads);
      auto dst = pool.view_.errors(local, ck);
      for (std::size_t k = 0; k < errs.size(); ++k) {
        dst[k] = static_cast<float>(errs[k]);
      }
      if (opts.store_params) {
        const auto src = trainer.model().params();
        std::copy(src.begin(), src.end(),
                  pool.params_.begin() +
                      static_cast<std::ptrdiff_t>(
                          (local * opts.checkpoints.size() + ck) *
                          pool.param_count_));
      }
    }
  });
  return pool;
}

ConfigPool ConfigPool::merge(std::span<const ConfigPool> shards) {
  FEDTUNE_CHECK_MSG(!shards.empty(), "nothing to merge");
  std::vector<const ConfigPool*> ordered;
  ordered.reserve(shards.size());
  for (const ConfigPool& s : shards) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const ConfigPool* a, const ConfigPool* b) {
              return a->shard_lo() < b->shard_lo();
            });

  const ConfigPool& first = *ordered.front();
  const std::size_t total = first.configs_.size();
  std::size_t expected_lo = 0;
  for (const ConfigPool* s : ordered) {
    FEDTUNE_CHECK_MSG(s->shard_lo() == expected_lo,
                      "shard ranges not contiguous: expected lo "
                          << expected_lo << ", got [" << s->shard_lo() << ", "
                          << s->shard_hi() << ")");
    expected_lo = s->shard_hi();
    FEDTUNE_CHECK_MSG(s->dataset_name_ == first.dataset_name_,
                      "shards from different datasets");
    FEDTUNE_CHECK_MSG(s->configs_ == first.configs_,
                      "shards disagree on the config list");
    FEDTUNE_CHECK_MSG(s->view_.checkpoints() == first.view_.checkpoints(),
                      "shards disagree on the checkpoint grid");
    FEDTUNE_CHECK_MSG(s->view_.client_weights() == first.view_.client_weights(),
                      "shards disagree on eval-client weights");
    FEDTUNE_CHECK_MSG(s->param_count_ == first.param_count_ &&
                          s->has_params() == first.has_params(),
                      "shards disagree on parameter snapshots");
  }
  FEDTUNE_CHECK_MSG(expected_lo == total,
                    "shards cover [0, " << expected_lo << ") of " << total
                                        << " configs");

  ConfigPool merged;
  merged.dataset_name_ = first.dataset_name_;
  merged.configs_ = first.configs_;
  merged.param_count_ = first.param_count_;
  merged.view_ = PoolEvalView(first.view_.checkpoints(),
                              first.view_.client_weights(), total);
  if (first.has_params()) {
    merged.params_.reserve(total * first.view_.checkpoints().size() *
                           first.param_count_);
  }
  const std::size_t num_ck = first.view_.checkpoints().size();
  for (const ConfigPool* s : ordered) {
    for (std::size_t local = 0; local < s->view_.num_configs(); ++local) {
      for (std::size_t ck = 0; ck < num_ck; ++ck) {
        const auto src = s->view_.errors(local, ck);
        auto dst = merged.view_.errors(s->shard_lo() + local, ck);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
    // Both tensors are config-major, so ordered shards splice by append.
    merged.params_.insert(merged.params_.end(), s->params_.begin(),
                          s->params_.end());
  }
  return merged;
}

std::span<const float> ConfigPool::params(std::size_t config,
                                          std::size_t checkpoint) const {
  FEDTUNE_CHECK_MSG(has_params(), "pool was built without parameter snapshots");
  FEDTUNE_CHECK(config < view_.num_configs());
  FEDTUNE_CHECK(checkpoint < view_.checkpoints().size());
  return std::span<const float>(
      params_.data() +
          (config * view_.checkpoints().size() + checkpoint) * param_count_,
      param_count_);
}

PoolEvalView ConfigPool::evaluate_on(const nn::Model& architecture,
                                     std::span<const data::ClientData> clients,
                                     std::vector<std::size_t> checkpoint_subset,
                                     std::size_t num_threads) const {
  FEDTUNE_CHECK_MSG(!is_shard(),
                    "re-evaluation needs the full pool: merge shards first");
  FEDTUNE_CHECK(has_params());
  FEDTUNE_CHECK(architecture.num_params() == param_count_);
  if (checkpoint_subset.empty()) checkpoint_subset = view_.checkpoints();
  // Map requested rounds onto source checkpoint indices (validates grid).
  std::vector<std::size_t> src_idx;
  src_idx.reserve(checkpoint_subset.size());
  for (std::size_t rounds : checkpoint_subset) {
    src_idx.push_back(view_.checkpoint_index(rounds));
  }

  PoolEvalView out(checkpoint_subset, data::example_count_weights(clients),
                   configs_.size());
  std::unique_ptr<ThreadPool> local_pool;
  if (num_threads != 0) local_pool = std::make_unique<ThreadPool>(num_threads);
  ThreadPool& workers = local_pool ? *local_pool : ThreadPool::global();
  // One model replica per worker slot, reused across the configs that slot
  // processes. Same concurrency contract as build(): auto (0) lets the
  // per-client loop fan out when the config level leaves the pool idle; an
  // explicit num_threads caps total concurrency, so the client level stays
  // serial.
  const std::size_t inner_threads = num_threads == 0 ? 0 : 1;
  nn::ReplicaSet replicas;
  replicas.reset(architecture, workers.max_slots(), /*copy_params=*/false);
  workers.parallel_for_slots(configs_.size(), [&](std::size_t slot,
                                                  std::size_t c) {
    nn::Model& model = replicas.at(slot);
    for (std::size_t ck = 0; ck < src_idx.size(); ++ck) {
      const auto p = params(c, src_idx[ck]);
      std::copy(p.begin(), p.end(), model.params().begin());
      const std::vector<double> errs =
          fl::all_client_errors(model, clients, inner_threads);
      auto dst = out.errors(c, ck);
      for (std::size_t k = 0; k < errs.size(); ++k) {
        dst[k] = static_cast<float>(errs[k]);
      }
    }
  });
  return out;
}

// Payload shared by .pool and shard files: full config list, view metadata,
// then error/param blocks for the file's config range (the full range for a
// monolithic .pool, [lo, hi) for a shard — the count is implied by the
// header, so the monolithic byte layout is unchanged from magic v3).
void ConfigPool::write_payload(BinaryWriter& w) const {
  w.write_string(dataset_name_);
  w.write_u64(configs_.size());
  for (const auto& config : configs_) {
    w.write_u64(config.size());
    for (const auto& [name, value] : config) {
      w.write_string(name);
      w.write_f64(value);
    }
  }
  w.write_vector<std::size_t>(view_.checkpoints());
  w.write_vector<double>(view_.client_weights());
  // Error tensor, config-major, local (in-range) indices.
  for (std::size_t c = 0; c < view_.num_configs(); ++c) {
    for (std::size_t ck = 0; ck < view_.checkpoints().size(); ++ck) {
      w.write_vector<float>(view_.errors(c, ck));
    }
  }
  w.write_u64(param_count_);
  w.write_vector<float>(params_);
}

ConfigPool ConfigPool::read_payload(BinaryReader& r,
                                    std::size_t range_configs) {
  ConfigPool pool;
  pool.dataset_name_ = r.read_string();
  const std::uint64_t num_configs = r.read_u64();
  if (range_configs == 0) range_configs = num_configs;  // monolithic file
  FEDTUNE_CHECK(range_configs <= num_configs);
  pool.configs_.resize(num_configs);
  for (auto& config : pool.configs_) {
    const std::uint64_t n = r.read_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::string name = r.read_string();
      config[name] = r.read_f64();
    }
  }
  const auto checkpoints = r.read_vector<std::size_t>();
  const auto weights = r.read_vector<double>();
  pool.view_ = PoolEvalView(checkpoints, weights, range_configs);
  for (std::size_t c = 0; c < range_configs; ++c) {
    for (std::size_t ck = 0; ck < checkpoints.size(); ++ck) {
      const auto errs = r.read_vector<float>();
      FEDTUNE_CHECK(errs.size() == weights.size());
      auto dst = pool.view_.errors(c, ck);
      std::copy(errs.begin(), errs.end(), dst.begin());
    }
  }
  pool.param_count_ = r.read_u64();
  pool.params_ = r.read_vector<float>();
  if (!pool.params_.empty()) {
    FEDTUNE_CHECK(pool.params_.size() ==
                  range_configs * checkpoints.size() * pool.param_count_);
  }
  FEDTUNE_CHECK_MSG(r.at_end(), "trailing bytes after pool payload");
  return pool;
}

void ConfigPool::save(const std::string& path, Env* env) const {
  FEDTUNE_CHECK_MSG(!is_shard(),
                    "partial pool [" << shard_lo() << ", " << shard_hi()
                                     << "): use save_shard()");
  const std::string tmp = path + ".tmp";
  BinaryWriter w(tmp, env);
  w.write_u64(kPoolMagic);
  write_payload(w);
  w.close();
  env_or_real(env).rename_file(tmp, path);
}

std::optional<ConfigPool> ConfigPool::load(const std::string& path) {
  BinaryReader r(path);
  if (!r.is_open()) return std::nullopt;
  try {
    if (r.read_u64() != kPoolMagic) return std::nullopt;
    return read_payload(r, 0);
  } catch (const std::exception&) {
    return std::nullopt;  // stale/corrupt cache: rebuild
  }
}

void ConfigPool::save_shard(const std::string& path, Env* env) const {
  const std::string tmp = path + ".tmp";
  BinaryWriter w(tmp, env);
  w.write_u64(kShardMagic);
  w.write_u64(shard_lo_);
  w.write_u64(shard_hi());
  w.write_u64(configs_.size());
  write_payload(w);
  w.close();
  env_or_real(env).rename_file(tmp, path);
}

std::optional<ConfigPool> ConfigPool::load_shard(const std::string& path) {
  BinaryReader r(path);
  if (!r.is_open()) return std::nullopt;
  try {
    if (r.read_u64() != kShardMagic) return std::nullopt;
    const std::uint64_t lo = r.read_u64();
    const std::uint64_t hi = r.read_u64();
    const std::uint64_t total = r.read_u64();
    if (!(lo < hi && hi <= total)) return std::nullopt;
    ConfigPool pool = read_payload(r, hi - lo);
    if (pool.configs_.size() != total) return std::nullopt;
    pool.shard_lo_ = lo;
    return pool;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<PoolFileInfo> inspect_pool_file(const std::string& path) {
  BinaryReader r(path);
  if (!r.is_open()) return std::nullopt;
  PoolFileInfo info;
  std::error_code ec;
  info.file_bytes = std::filesystem::file_size(path, ec);
  try {
    info.magic = r.read_u64();

    if (info.magic == kViewMagic) {
      info.kind = PoolFileInfo::Kind::kView;
      info.total_configs = r.read_u64();
      info.num_configs = info.total_configs;
      info.shard_hi = info.total_configs;
      info.checkpoints = r.read_vector<std::size_t>();
      info.num_clients = r.read_vector<double>().size();
      (void)r.read_vector<float>();  // error tensor
      if (!r.at_end()) return std::nullopt;
      return info;
    }

    if (info.magic == kShardMagic) {
      info.kind = PoolFileInfo::Kind::kShard;
      info.shard_lo = r.read_u64();
      info.shard_hi = r.read_u64();
      info.total_configs = r.read_u64();
      if (!(info.shard_lo < info.shard_hi &&
            info.shard_hi <= info.total_configs)) {
        return std::nullopt;
      }
    } else if (info.magic != kPoolMagic) {
      return std::nullopt;
    }

    // Shared payload prefix (write_payload layout).
    info.dataset = r.read_string();
    const std::uint64_t num_configs = r.read_u64();
    if (info.magic == kPoolMagic) {
      info.total_configs = num_configs;
      info.shard_hi = num_configs;
    } else if (num_configs != info.total_configs) {
      return std::nullopt;
    }
    for (std::uint64_t c = 0; c < num_configs; ++c) {
      const std::uint64_t n = r.read_u64();
      for (std::uint64_t i = 0; i < n; ++i) {
        (void)r.read_string();
        (void)r.read_f64();
      }
    }
    info.checkpoints = r.read_vector<std::size_t>();
    info.num_clients = r.read_vector<double>().size();
    info.num_configs = info.shard_hi - info.shard_lo;
    for (std::size_t c = 0; c < info.num_configs; ++c) {
      for (std::size_t ck = 0; ck < info.checkpoints.size(); ++ck) {
        (void)r.read_vector<float>();
      }
    }
    // param_count_ records the architecture's size even in --no-params
    // builds; only report it when snapshots are actually stored.
    info.param_count = r.read_u64();
    if (r.read_vector<float>().empty()) info.param_count = 0;
    if (!r.at_end()) return std::nullopt;
    return info;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace fedtune::core
