#include "core/eval_cache.hpp"

#include <filesystem>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace fedtune::core {

namespace {

// v1 of the cache format. Bump the low word of the magic on any payload
// layout change — open() rejects unknown magic rather than misreading a
// stale cache.
constexpr RecordFormat kEvalCacheFormat{.magic = 0xfedc0de500000001ULL,
                                        .max_payload = 1u << 20,
                                        .what = "eval cache"};

constexpr std::uint8_t kEntry = 1;

std::string encode_entry(const hpo::EvalKey& key,
                         const hpo::EvalOutcome& outcome) {
  BufferWriter payload;
  payload.write_u8(kEntry);
  payload.write_string(key.fingerprint);
  payload.write_u64(key.fidelity);
  payload.write_u64(key.noise_signature);
  payload.write_f64(outcome.noisy_objective);
  payload.write_f64(outcome.full_error);
  return payload.bytes();
}

}  // namespace

EvalCache::EvalCache(Env& env, std::string path, RecordLog log,
                     bool sync_on_commit)
    : env_(&env),
      path_(std::move(path)),
      log_(std::move(log)),
      sync_on_commit_(sync_on_commit) {
  // Cache-wide series, labeled by the file's stem (the pool name in the
  // StudyManager layout <dir>/<pool>-<digest>.evalcache) — one cache per
  // registered pool content, so the label set is bounded by the pools.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::LabelSet labels = {
      {"cache", std::filesystem::path(path_).stem().string()}};
  hits_counter_ = &reg.counter("fedtune_evalcache_hits_total", labels);
  misses_counter_ = &reg.counter("fedtune_evalcache_misses_total", labels);
  inserts_counter_ = &reg.counter("fedtune_evalcache_inserts_total", labels);
  compactions_counter_ =
      &reg.counter("fedtune_evalcache_compactions_total", labels);
  entries_gauge_ = &reg.gauge("fedtune_evalcache_entries", labels);
}

std::unique_ptr<EvalCache> EvalCache::open(const std::string& path, Env* env,
                                           bool sync_on_commit) {
  Env& e = env_or_real(env);
  std::map<hpo::EvalKey, hpo::EvalOutcome> map;
  // A new cache is an empty log; an existing one is scanned and healed.
  if (!e.exists(path)) RecordLog::create(e, path, kEvalCacheFormat, false);
  RecordLog::recover(e, path, kEvalCacheFormat, [&map](BufferReader& r) {
    if (r.read_u8() != kEntry) {
      throw std::invalid_argument("unknown entry type");
    }
    hpo::EvalKey key;
    key.fingerprint = r.read_string();
    key.fidelity = r.read_u64();
    key.noise_signature = r.read_u64();
    hpo::EvalOutcome outcome;
    outcome.noisy_objective = r.read_f64();
    outcome.full_error = r.read_f64();
    if (!r.at_end()) throw std::invalid_argument("payload trailing bytes");
    map.emplace(key, outcome);  // first write wins across duplicates
  });
  std::unique_ptr<EvalCache> cache(new EvalCache(
      e, path, RecordLog::open(e, path, kEvalCacheFormat, sync_on_commit),
      sync_on_commit));
  cache->map_ = std::move(map);
  return cache;
}

std::optional<hpo::EvalOutcome> EvalCache::lookup(const hpo::EvalKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    misses_counter_->add(1);
    return std::nullopt;
  }
  ++hits_;
  hits_counter_->add(1);
  return it->second;
}

bool EvalCache::insert(const hpo::EvalKey& key,
                       const hpo::EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!map_.emplace(key, outcome).second) return false;
  inserts_counter_->add(1);
  entries_gauge_->set(static_cast<double>(map_.size()));
  // The in-memory map is the logical store; the append is best-effort
  // persistence (failures degrade, never refuse the insert). A failed
  // append heals the file to its last whole frame, or breaks the log until
  // compact() rebuilds it.
  try {
    log_.append(encode_entry(key, outcome));
  } catch (const IoError&) {
    degraded_ = true;
  }
  return true;
}

std::size_t EvalCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::size_t EvalCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t EvalCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

bool EvalCache::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

void EvalCache::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> payloads;
  payloads.reserve(map_.size());
  for (const auto& [key, outcome] : map_) {
    payloads.push_back(encode_entry(key, outcome));
  }
  RecordLog::rewrite(*env_, path_, kEvalCacheFormat, payloads, /*sync=*/true);
  log_ = RecordLog::open(*env_, path_, kEvalCacheFormat, sync_on_commit_);
  degraded_ = false;
  compactions_counter_->add(1);
}

std::vector<std::pair<hpo::EvalKey, hpo::EvalOutcome>> EvalCache::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {map_.begin(), map_.end()};
}

}  // namespace fedtune::core
