#include "service/journal.hpp"

#include <chrono>
#include <optional>

#include "common/check.hpp"
#include "common/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedtune::service {

namespace {

// Journal metrics are service-wide (no per-study label): the journal layer
// sees paths, not tenant identities, and per-path labels would make series
// cardinality track journal-directory history. Per-tenant latency lives one
// layer up in fedtune_study_ask_tell_seconds (src/README.md §Observability).
struct JournalMetrics {
  obs::Histogram& append_seconds;
  obs::Histogram& fsync_seconds;
  obs::Counter& append_bytes;
  obs::Counter& append_failures;
  obs::Histogram& recover_seconds;
  obs::Counter& recover_truncated_bytes;
};

JournalMetrics& metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  static JournalMetrics m{
      reg.histogram("fedtune_journal_append_seconds"),
      reg.histogram("fedtune_journal_fsync_seconds"),
      reg.counter("fedtune_journal_append_bytes_total"),
      reg.counter("fedtune_journal_append_failures_total"),
      reg.histogram("fedtune_journal_recover_seconds"),
      reg.counter("fedtune_journal_recover_truncated_bytes_total")};
  return m;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// v2 of the journal format (v2 appended the eval-cache/limit spec fields).
// Bump the low word of the magic on any layout change — recovery rejects
// unknown magic rather than misreading stale journals. The create record
// defines the study, so a journal whose first frame is unreadable is
// rejected, not healed.
constexpr RecordFormat kJournalFormat{.magic = 0xfed75d0a00000002ULL,
                                      .max_payload = 64u << 20,
                                      .first_frame_required = true,
                                      .what = "journal"};

enum RecordType : std::uint8_t {
  kCreate = 1,
  kAsk = 2,
  kTell = 3,
  kSelection = 4,
  kSnapshot = 5,
};

void write_config(BufferWriter& w, const hpo::Config& config) {
  w.write_u64(config.size());
  for (const auto& [name, value] : config) {
    w.write_string(name);
    w.write_f64(value);
  }
}

hpo::Config read_config(BufferReader& r) {
  hpo::Config config;
  const std::uint64_t n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string name = r.read_string();
    config[name] = r.read_f64();
  }
  return config;
}

void write_trial(BufferWriter& w, const hpo::Trial& t) {
  w.write_i64(t.id);
  w.write_u64(t.target_rounds);
  w.write_i64(t.parent_id);
  w.write_u64(t.config_index);
  write_config(w, t.config);
}

hpo::Trial read_trial(BufferReader& r) {
  hpo::Trial t;
  t.id = static_cast<int>(r.read_i64());
  t.target_rounds = r.read_u64();
  t.parent_id = static_cast<int>(r.read_i64());
  t.config_index = r.read_u64();
  t.config = read_config(r);
  return t;
}

void write_record(BufferWriter& w, const core::TrialRecord& rec) {
  write_trial(w, rec.trial);
  w.write_f64(rec.noisy_objective);
  w.write_f64(rec.full_error);
  w.write_u64(rec.cumulative_rounds);
}

core::TrialRecord read_record(BufferReader& r) {
  core::TrialRecord rec;
  rec.trial = read_trial(r);
  rec.noisy_objective = r.read_f64();
  rec.full_error = r.read_f64();
  rec.cumulative_rounds = r.read_u64();
  return rec;
}

void write_spec(BufferWriter& w, const StudySpec& spec) {
  w.write_string(spec.name);
  w.write_u8(static_cast<std::uint8_t>(spec.method));
  w.write_u64(spec.seed);
  w.write_u64(spec.num_configs);
  w.write_u64(spec.budget_rounds);
  w.write_u64(spec.deadline_slices);
  w.write_u8(spec.external ? 1 : 0);
  w.write_string(spec.pool);
  w.write_u64(spec.rounds_per_config);
  w.write_u64(spec.r0);
  w.write_u64(spec.max_rounds);
  w.write_u64(spec.noise.eval_clients);
  w.write_f64(spec.noise.bias_b);
  w.write_f64(spec.noise.bias_delta);
  w.write_f64(spec.noise.epsilon);
  w.write_f64(spec.noise.eval_dropout);
  w.write_u8(static_cast<std::uint8_t>(spec.noise.weighting));
  w.write_u8(spec.use_eval_cache ? 1 : 0);
  w.write_u8(spec.warm_start ? 1 : 0);
  w.write_u64(spec.max_trials);
}

StudySpec read_spec(BufferReader& r) {
  StudySpec spec;
  spec.name = r.read_string();
  spec.method = static_cast<StudyMethod>(r.read_u8());
  spec.seed = r.read_u64();
  spec.num_configs = r.read_u64();
  spec.budget_rounds = r.read_u64();
  spec.deadline_slices = r.read_u64();
  spec.external = r.read_u8() != 0;
  spec.pool = r.read_string();
  spec.rounds_per_config = r.read_u64();
  spec.r0 = r.read_u64();
  spec.max_rounds = r.read_u64();
  spec.noise.eval_clients = r.read_u64();
  spec.noise.bias_b = r.read_f64();
  spec.noise.bias_delta = r.read_f64();
  spec.noise.epsilon = r.read_f64();
  spec.noise.eval_dropout = r.read_f64();
  spec.noise.weighting = static_cast<fl::Weighting>(r.read_u8());
  spec.use_eval_cache = r.read_u8() != 0;
  spec.warm_start = r.read_u8() != 0;
  spec.max_trials = r.read_u64();
  return spec;
}

// One record's payload: its type byte, then whatever `fields` writes.
template <typename Fields>
std::string encode(RecordType type, const Fields& fields) {
  BufferWriter payload;
  payload.write_u8(type);
  fields(payload);
  return payload.bytes();
}

std::string encode_create(const StudySpec& spec) {
  return encode(kCreate, [&](BufferWriter& w) { write_spec(w, spec); });
}

std::string encode_selection(std::int64_t best_id, double best_full_error) {
  return encode(kSelection, [&](BufferWriter& w) {
    w.write_i64(best_id);
    w.write_f64(best_full_error);
  });
}

}  // namespace

StudyJournal StudyJournal::create(const std::string& path,
                                  const StudySpec& spec, Env* env,
                                  bool sync_on_commit) {
  Env& e = env_or_real(env);
  FEDTUNE_CHECK_MSG(!e.exists(path), "journal already exists: " << path);
  try {
    StudyJournal journal(
        RecordLog::create(e, path, kJournalFormat, sync_on_commit));
    journal.append_frame(encode_create(spec));
    return journal;
  } catch (const IoError&) {
    // A failed create must not leave a stub claiming the study name: the
    // spec was never acknowledged, so there is nothing worth recovering.
    try {
      e.remove_file(path);
    } catch (const IoError&) {
    }
    throw;
  }
}

StudyJournal StudyJournal::append_to(const std::string& path, Env* env,
                                     bool sync_on_commit) {
  Env& e = env_or_real(env);
  FEDTUNE_CHECK_MSG(e.exists(path), "no journal at " << path);
  return StudyJournal(RecordLog::open(e, path, kJournalFormat, sync_on_commit));
}

void StudyJournal::append_frame(const std::string& payload) {
  RecordLog::Appended appended;
  try {
    obs::TraceSpan span("journal.append", "journal");
    const auto t0 = std::chrono::steady_clock::now();
    appended = log_.append(payload);
    JournalMetrics& m = metrics();
    m.append_seconds.observe(seconds_since(t0) -
                             appended.sync_seconds.value_or(0.0));
    if (appended.sync_seconds) m.fsync_seconds.observe(*appended.sync_seconds);
    m.append_bytes.add(appended.frame.size());
  } catch (const IoError&) {
    metrics().append_failures.add(1);
    throw;
  }
  if (sink_) {
    sink_({JournalMutation::Kind::kAppend, appended.offset,
           std::move(appended.frame)});
  }
}

void StudyJournal::append_ask(const hpo::Trial& trial) {
  append_frame(encode(kAsk, [&](BufferWriter& w) { write_trial(w, trial); }));
}

void StudyJournal::append_tell(const core::TrialRecord& record) {
  append_frame(
      encode(kTell, [&](BufferWriter& w) { write_record(w, record); }));
}

void StudyJournal::append_selection(std::int64_t best_id,
                                    double best_full_error) {
  append_frame(encode_selection(best_id, best_full_error));
}

RecoveredStudy StudyJournal::recover(const std::string& path, Env* env) {
  obs::TraceSpan span("journal.recover", "journal");
  const auto t0 = std::chrono::steady_clock::now();
  Env& e = env_or_real(env);
  FEDTUNE_CHECK_MSG(e.exists(path), "no journal at " << path);

  RecoveredStudy study;
  bool have_spec = false;
  std::optional<hpo::Trial> pending_ask;
  // Each case reads its whole payload and validates full consumption BEFORE
  // mutating the study: a frame rejected halfway (trailing bytes inside a
  // CRC-clean frame = writer/reader version skew, treated like any other
  // corruption) must leave no partial state behind.
  const auto replay = [&](BufferReader& r) {
    const auto consumed = [&r] {
      if (!r.at_end()) throw std::invalid_argument("payload trailing bytes");
    };
    const std::uint8_t type = r.read_u8();
    if ((type == kCreate) == have_spec) {
      throw std::invalid_argument("create must be the first record, once");
    }
    switch (type) {
      case kCreate: {
        StudySpec spec = read_spec(r);
        consumed();
        study.spec = std::move(spec);
        have_spec = true;
        break;
      }
      case kAsk: {
        // A re-issued ask after a crash-mid-step may repeat the dangling
        // one; the latest ask is the live one.
        hpo::Trial trial = read_trial(r);
        consumed();
        pending_ask = std::move(trial);
        break;
      }
      case kTell: {
        core::TrialRecord rec = read_record(r);
        consumed();
        if (!pending_ask.has_value() || rec.trial.id != pending_ask->id) {
          throw std::invalid_argument("tell does not match the pending ask");
        }
        study.steps.push_back(std::move(rec));
        pending_ask.reset();
        break;
      }
      case kSelection: {
        const std::int64_t best_id = r.read_i64();
        const double best_full_error = r.read_f64();
        consumed();
        study.best_id = best_id;
        study.best_full_error = best_full_error;
        study.finished = true;
        break;
      }
      case kSnapshot: {
        const std::uint64_t n = r.read_u64();
        std::vector<core::TrialRecord> steps;
        steps.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) steps.push_back(read_record(r));
        consumed();
        study.steps = std::move(steps);
        pending_ask.reset();
        break;
      }
      default:
        throw std::invalid_argument("unknown record type");
    }
  };
  // A dangling ask stays in the file (it is a valid frame); recovery simply
  // ignores it and the resumed tuner re-issues the trial.
  study.truncated_bytes = RecordLog::recover(e, path, kJournalFormat, replay);
  if (study.truncated_bytes > 0) {
    metrics().recover_truncated_bytes.add(study.truncated_bytes);
  }
  metrics().recover_seconds.observe(seconds_since(t0));
  return study;
}

StudyJournal StudyJournal::compact(const std::string& path, Env* env,
                                   bool sync_on_commit) {
  const RecoveredStudy study = recover(path, env);
  const auto snapshot = [&](BufferWriter& w) {
    w.write_u64(study.steps.size());
    for (const core::TrialRecord& rec : study.steps) write_record(w, rec);
  };
  std::vector<std::string> payloads = {encode_create(study.spec),
                                       encode(kSnapshot, snapshot)};
  if (study.finished) {
    payloads.push_back(encode_selection(study.best_id, study.best_full_error));
  }
  RecordLog::rewrite(env_or_real(env), path, kJournalFormat, payloads,
                     sync_on_commit);
  return append_to(path, env, sync_on_commit);
}

}  // namespace fedtune::service
