// StudyJournal — the per-study write-ahead log that makes service studies
// crash-recoverable.
//
// Tuners, the noisy evaluator (in pure-stream mode), and pool runners are
// pure functions of (spec seed, tell sequence) — see the replay contract in
// hpo/tuner.hpp and core/tuning_driver.hpp. The journal therefore persists
// exactly that: the study spec (create record) and every completed step's
// outcome (ask + tell records). Recovery reconstructs the study by
// re-running the tuner against the journaled tells; the result is bitwise
// identical to a run that never stopped.
//
// File format: a record log (common/record_log.hpp) whose payloads are
// `u8 type, fields...` in BufferWriter layout (common/serialize.hpp):
//   create    — the StudySpec; must be the first record
//   ask       — the trial issued for the next step (a crash before its tell
//               leaves a dangling ask; the resumed tuner re-issues it)
//   tell      — the step's outcome; completes the preceding ask
//   selection — the tuner's final pick; marks the study finished
//   snapshot  — all completed TrialRecords; written by compact()
// A frame that breaks these rules or carries trailing bytes ends the valid
// prefix like a torn one.
//
// Durability: every append reaches the OS as one whole frame before the
// service acknowledges the step — durable across PROCESS crashes, the
// contract the tests and CI enforce. sync_on_commit adds an fsync per frame
// for machine crashes (bench/bench_micro_substrate.cpp prices it). A failed
// append heals to the durable boundary before it rethrows IoError, so the
// study layer's retry/quarantine ladder can simply retry.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/record_log.hpp"
#include "core/tuning_driver.hpp"
#include "service/study_spec.hpp"

namespace fedtune::service {

// One byte-level journal change, for replication (cluster/replicator.hpp):
// kAppend carries one durable frame and the file offset it starts at;
// kRewrite carries the whole file (emitted after create, resume, and
// compaction — any point where the file is not a pure extension of what a
// follower may hold). A follower that applies the stream at matching
// offsets holds a byte-identical copy of the journal.
struct JournalMutation {
  enum class Kind : std::uint8_t { kAppend, kRewrite };
  Kind kind = Kind::kAppend;
  std::uint64_t offset = 0;  // kAppend: where `bytes` begins in the file
  std::string bytes;         // kAppend: one frame; kRewrite: the whole file
};

// Mutation consumer. Invoked synchronously after the bytes are durable, on
// whatever thread performed the append (the scheduler pumps sessions on a
// thread pool, so sinks must be thread-safe). Sinks must not throw: a
// replication hiccup must never fail a locally-durable step.
using JournalSink = std::function<void(const JournalMutation&)>;

// recover()'s reconstruction of a journal: the spec, the completed steps in
// order, and the terminal selection if the study finished.
struct RecoveredStudy {
  StudySpec spec;
  std::vector<core::TrialRecord> steps;
  bool finished = false;
  std::int64_t best_id = -1;
  double best_full_error = 1.0;
  // Bytes dropped from the tail (0 for a clean shutdown) — torn frames,
  // trailing garbage, or a dangling ask's frame.
  std::uint64_t truncated_bytes = 0;
};

class StudyJournal {
 public:
  StudyJournal(StudyJournal&&) = default;
  StudyJournal& operator=(StudyJournal&&) = default;

  // Starts a new journal (header + create record). Fails if `path` exists —
  // study names are unique per journal directory. A create that fails
  // partway removes the partial file before rethrowing, so the name is not
  // left claimed by an unrecoverable stub.
  static StudyJournal create(const std::string& path, const StudySpec& spec,
                             Env* env = nullptr, bool sync_on_commit = false);

  // Validates the journal frame by frame, truncates the torn/corrupt tail
  // (if any), and returns the reconstructed history. Throws
  // std::invalid_argument when the file is missing or its create record is
  // unreadable.
  static RecoveredStudy recover(const std::string& path, Env* env = nullptr);

  // Opens an existing journal for appending (call after recover()).
  static StudyJournal append_to(const std::string& path, Env* env = nullptr,
                                bool sync_on_commit = false);

  // Atomically rewrites the journal as {create, snapshot[, selection]},
  // bounding file size and recovery work, and reopens it for appending
  // (close the old handle first). Safe to re-run after any failure.
  static StudyJournal compact(const std::string& path, Env* env = nullptr,
                              bool sync_on_commit = false);

  // Appends one record as one frame. Throws IoError on failure after
  // healing the file back to the durable boundary.
  void append_ask(const hpo::Trial& trial);
  void append_tell(const core::TrialRecord& record);
  void append_selection(std::int64_t best_id, double best_full_error);

  // Installs the replication sink; pass {} to detach. The sink sees every
  // subsequent durable frame as a kAppend at its offset. It does NOT see
  // bytes already on disk — callers that attach mid-life (create, resume,
  // reopen after compact) emit a kRewrite of the current file themselves
  // (StudySession::wire_journal_sink).
  void set_sink(JournalSink sink) { sink_ = std::move(sink); }

  // False once a failed append could not be healed; appends then throw.
  bool good() const { return log_.good(); }

  // End of the last acknowledged frame — the recovery point.
  std::uint64_t durable_bytes() const { return log_.durable_bytes(); }

 private:
  explicit StudyJournal(RecordLog log) : log_(std::move(log)) {}

  // Appends one payload frame, records the journal metrics, feeds the sink.
  void append_frame(const std::string& payload);

  RecordLog log_;
  JournalSink sink_;
};

}  // namespace fedtune::service
