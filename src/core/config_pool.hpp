// ConfigPool — train once, simulate many times.
//
// The paper's evaluation protocol (§3, "Evaluation") trains 128 random HP
// configurations per dataset and then *bootstraps* tuning runs over the
// cached results. A ConfigPool stores, for every configuration and every
// rung checkpoint, the per-client error vector over the full eval pool (and
// optionally the model parameters, so new evaluation views — e.g. the
// IID-repartitioned clients of Fig. 4 — can be computed later without
// retraining).
//
// Pools are expensive to build (they are the only place real federated
// training happens in the benches) and are cached on disk; see
// sim/pool_cache.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/noise_model.hpp"
#include "data/client_data.hpp"
#include "fl/trainer.hpp"
#include "hpo/search_space.hpp"
#include "nn/model.hpp"

namespace fedtune {
class BinaryReader;
class BinaryWriter;
class Env;
}

namespace fedtune::core {

// Per-client errors for every (config, checkpoint) — the data the
// PoolTrialRunner and all pool simulations consume.
class PoolEvalView {
 public:
  PoolEvalView() = default;
  PoolEvalView(std::vector<std::size_t> checkpoints,
               std::vector<double> client_weights, std::size_t num_configs);

  std::size_t num_configs() const { return num_configs_; }
  std::size_t num_clients() const { return client_weights_.size(); }
  const std::vector<std::size_t>& checkpoints() const { return checkpoints_; }
  const std::vector<double>& client_weights() const { return client_weights_; }

  // Index of the checkpoint with exactly `rounds` cumulative rounds.
  std::size_t checkpoint_index(std::size_t rounds) const;
  std::size_t final_checkpoint() const { return checkpoints_.size() - 1; }

  std::span<float> errors(std::size_t config, std::size_t checkpoint);
  std::span<const float> errors(std::size_t config, std::size_t checkpoint) const;
  // Double-precision copy (NoisyEvaluator input).
  std::vector<double> errors_f64(std::size_t config, std::size_t checkpoint) const;

  double full_error(std::size_t config, std::size_t checkpoint,
                    fl::Weighting weighting) const;
  double min_client_error(std::size_t config, std::size_t checkpoint) const;

  // "Best HPs" reference line of Fig. 3: min over configs of full error at
  // the final checkpoint.
  double best_full_error(fl::Weighting weighting) const;

  // Standalone (de)serialization — derived views (e.g. Fig. 4's
  // repartitioned eval clients) are cached without the parameter snapshots.
  // Saves write path + ".tmp" then rename, so a crashed save never leaves a
  // half-written cache under the final name. `env` routes the write for
  // fault-injection tests; nullptr = Env::real().
  void save(const std::string& path, Env* env = nullptr) const;
  static std::optional<PoolEvalView> load(const std::string& path);

 private:
  std::vector<std::size_t> checkpoints_;
  std::vector<double> client_weights_;
  std::size_t num_configs_ = 0;
  std::vector<float> errors_;  // [config][checkpoint][client]
  // Derived at construction (not serialized): aggregation denominator and
  // rounds -> checkpoint index lookup.
  double weight_sum_ = 0.0;
  std::unordered_map<std::size_t, std::size_t> checkpoint_lookup_;
};

struct PoolBuildOptions {
  std::size_t num_configs = 128;
  // Shared across datasets so configurations can be compared pairwise
  // (Figures 10/11/12/14).
  std::uint64_t config_seed = 1234;
  std::uint64_t train_seed = 99;
  fl::TrainerConfig trainer;
  // Cumulative-round checkpoints (the SHA rung grid). Must be increasing.
  std::vector<std::size_t> checkpoints = {1, 3, 9, 27, 81};
  bool store_params = true;
  // 0 = auto: shared global pool at the config level, client-level loops
  // fan out only when the config level leaves it idle. Any explicit value
  // is a hard concurrency cap: at most that many threads, the calling
  // thread among them, run the config level, and client-level loops stay
  // serial (1 = fully serial).
  std::size_t num_threads = 0;
};

class ConfigPool {
 public:
  // Trains the pool (parallel over configurations).
  static ConfigPool build(const data::FederatedDataset& dataset,
                          const nn::Model& architecture,
                          const hpo::SearchSpace& space,
                          const PoolBuildOptions& opts);

  // Trains only configurations [config_lo, config_hi) of the pool described
  // by `opts` (opts.num_configs is the FULL pool size). The determinism
  // contract (src/README.md) keys every per-config training stream off the
  // global config index, so a shard's error/param blocks are bitwise
  // identical to the corresponding slice of a monolithic build — shards can
  // run on separate machines and be reassembled with merge().
  static ConfigPool build_shard(const data::FederatedDataset& dataset,
                                const nn::Model& architecture,
                                const hpo::SearchSpace& space,
                                const PoolBuildOptions& opts,
                                std::size_t config_lo, std::size_t config_hi);

  // Splices contiguous, non-overlapping shards (any order) covering the full
  // config range back into one pool. Throws std::invalid_argument on gaps,
  // overlaps, or shards that disagree on dataset/configs/checkpoints/
  // weights/params.
  static ConfigPool merge(std::span<const ConfigPool> shards);

  const std::string& dataset_name() const { return dataset_name_; }
  const std::vector<hpo::Config>& configs() const { return configs_; }
  const PoolEvalView& view() const { return view_; }
  bool has_params() const { return !params_.empty(); }

  // Shard range within the full pool. A monolithic pool is the trivial shard
  // [0, configs().size()). view()/errors()/params() index configs locally,
  // i.e. relative to shard_lo().
  std::size_t shard_lo() const { return shard_lo_; }
  std::size_t shard_hi() const { return shard_lo_ + view_.num_configs(); }
  bool is_shard() const {
    return shard_lo_ != 0 || view_.num_configs() != configs_.size();
  }

  // Stored global-model parameters at (config, checkpoint).
  std::span<const float> params(std::size_t config, std::size_t checkpoint) const;

  // Recomputes per-client errors on an alternative eval-client set (same
  // architecture) from the stored parameter snapshots — Fig. 4's
  // repartitioned views. `checkpoint_subset` (cumulative rounds) restricts
  // the work to the listed fidelities; empty = all checkpoints.
  // `num_threads` caps concurrency as PoolBuildOptions::num_threads does.
  PoolEvalView evaluate_on(const nn::Model& architecture,
                           std::span<const data::ClientData> clients,
                           std::vector<std::size_t> checkpoint_subset = {},
                           std::size_t num_threads = 0) const;

  // Monolithic pool files (.pool). save() rejects shards — their error
  // blocks cover only a subrange; use save_shard(). Both savers are
  // tmp-write + atomic-rename (see PoolEvalView::save).
  void save(const std::string& path, Env* env = nullptr) const;
  static std::optional<ConfigPool> load(const std::string& path);

  // Shard files: a versioned magic plus a [lo, hi, total) range header on
  // top of the monolithic payload (full config list; errors/params for the
  // local range only). A monolithic pool may be saved as its trivial shard.
  void save_shard(const std::string& path, Env* env = nullptr) const;
  static std::optional<ConfigPool> load_shard(const std::string& path);

 private:
  void write_payload(BinaryWriter& w) const;
  // Reads the payload shared by .pool and shard files; `range_configs` is
  // the number of configs whose error/param blocks follow (== total configs
  // for a monolithic file).
  static ConfigPool read_payload(BinaryReader& r, std::size_t range_configs);

  std::string dataset_name_;
  std::vector<hpo::Config> configs_;  // full pool list, even in a shard
  PoolEvalView view_;                 // covers [shard_lo_, shard_hi())
  std::size_t shard_lo_ = 0;
  std::size_t param_count_ = 0;
  std::vector<float> params_;  // [local config][checkpoint][param]
};

// Header/metadata summary of a pool-cache file (`<name>.pool`, shard, or
// derived-view file) without retaining the payload — what `fedtune_pool
// info` prints so cache files can be inspected without a hex dump.
struct PoolFileInfo {
  enum class Kind { kPool, kShard, kView };
  Kind kind = Kind::kPool;
  std::uint64_t magic = 0;  // full magic word; the low 32 bits version it
  // Config range: [shard_lo, shard_hi) of total_configs. A monolithic pool
  // or a view is the trivial range [0, total).
  std::size_t shard_lo = 0;
  std::size_t shard_hi = 0;
  std::size_t total_configs = 0;
  std::string dataset;               // empty for derived views
  std::size_t num_configs = 0;       // configs with error blocks in the file
  std::vector<std::size_t> checkpoints;
  std::size_t num_clients = 0;
  std::size_t param_count = 0;  // floats per (config, checkpoint); 0 = none
  std::uintmax_t file_bytes = 0;
};

// Parses `path` as any of the three pool-cache formats. nullopt on unknown
// magic, truncation, or trailing bytes — the same acceptance rules as the
// loaders.
std::optional<PoolFileInfo> inspect_pool_file(const std::string& path);

}  // namespace fedtune::core
