// EvalCache — persistent, shared (config, fidelity, noise-signature) →
// evaluation-outcome store behind the CachingTuner/TuningSession cache path.
//
// One cache file per pool, owned by the StudyManager and shared by every
// tenant tuning that pool: N studies sweeping overlapping config sets pay
// for each distinct evaluation once. Built on the Env abstraction so the
// fault-injection suite can crash/fail every write boundary.
//
// File format: a RecordLog (common/record_log.hpp owns the magic, the
// CRC framing, tail healing and the atomic rewrite) whose payloads are
//   u8 type(kEntry) | string fingerprint | u64 fidelity |
//   u64 noise_signature | f64 noisy_objective | f64 full_error
// Each entry is one frame. open() keeps first-write-wins for duplicate keys
// (concurrent tenants may both evaluate a config before either insert
// lands; the first recorded outcome is the canonical one).
//
// Durability is BEST-EFFORT by design: insert() always updates the
// in-memory map (the logical store the session consults) and treats a
// failed disk append as degradation, not an error — a cache must never
// quarantine a study. Crash-consistency of studies does not depend on this
// file at all (see the contract note in hpo/tuner.hpp: hits are journaled
// as tells and replay re-inserts journaled outcomes), so a lost tail only
// costs future hits, never correctness.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/record_log.hpp"
#include "hpo/middleware.hpp"

namespace fedtune::obs {
class Counter;
class Gauge;
}

namespace fedtune::core {

class EvalCache : public hpo::EvalStore {
 public:
  // Opens (scanning + healing an existing file) or creates the cache at
  // `path`. Throws IoError when the file cannot be created/read at all.
  // (Pointer return: the internal mutex makes the class immovable.)
  static std::unique_ptr<EvalCache> open(const std::string& path,
                                         Env* env = nullptr,
                                         bool sync_on_commit = false);

  std::optional<hpo::EvalOutcome> lookup(const hpo::EvalKey& key) override;
  bool insert(const hpo::EvalKey& key,
              const hpo::EvalOutcome& outcome) override;
  std::size_t entries() const override;

  // Pool-wide counters across every tenant sharing this cache.
  std::size_t hits() const;
  std::size_t misses() const;
  // True once a disk append failed (entries since then may be memory-only).
  bool degraded() const;

  // Atomically rewrites the file from the in-memory map (tmp + rename),
  // dropping duplicate/torn history and clearing the degraded flag.
  void compact();

  // All entries, for warm-start enumeration (bench_fig10_transfer).
  std::vector<std::pair<hpo::EvalKey, hpo::EvalOutcome>> snapshot() const;

  const std::string& path() const { return path_; }

 private:
  EvalCache(Env& env, std::string path, RecordLog log, bool sync_on_commit);

  Env* env_;
  std::string path_;
  RecordLog log_;  // broken after an unhealable failure, until compact()
  bool sync_on_commit_ = false;
  bool degraded_ = false;

  mutable std::mutex mu_;
  std::map<hpo::EvalKey, hpo::EvalOutcome> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;

  // fedtune_evalcache_*{cache=<file stem>} series, resolved once at open().
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* inserts_counter_ = nullptr;
  obs::Counter* compactions_counter_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
};

}  // namespace fedtune::core
