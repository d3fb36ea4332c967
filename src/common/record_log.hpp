// RecordLog — the one CRC-framed, append-only file format behind the study
// journal (service/journal.hpp) and the shared evaluation cache
// (core/eval_cache.hpp). Only this module knows the bytes; each owner
// passes a RecordFormat and encodes/decodes its own payloads.
//
//   file  := u64 magic  frame*
//   frame := u32 payload_size  u32 crc32(payload)  payload
//
// Scan, append, heal-to-durable and rewrite rules: src/README.md §Record log.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/env.hpp"
#include "common/serialize.hpp"

namespace fedtune {

struct RecordFormat {
  std::uint64_t magic = 0;        // versioned: bump on any payload change
  std::uint32_t max_payload = 0;  // larger size words are torn, not trusted
  bool first_frame_required = false;  // reject, don't heal, without one
  const char* what = "record log";    // file kind, for error messages
};

// Decodes one CRC-clean payload; throws to reject the frame, which ends the
// valid prefix.
using PayloadDecoder = std::function<void(BufferReader& payload)>;

class RecordLog {
 public:
  // One durable frame: its file offset and bytes (the journal replicates
  // both), and the fsync's share of the append when the log syncs.
  struct Appended {
    std::uint64_t offset = 0;
    std::string frame;
    std::optional<double> sync_seconds;
  };

  // Writes the magic to a new file (one append) and opens it for appending.
  static RecordLog create(Env& env, const std::string& path,
                          const RecordFormat& format, bool sync);

  // Checks the magic, feeds each valid frame to `decode` in file order, and
  // truncates everything after the valid prefix; returns the bytes dropped.
  // Throws std::invalid_argument, leaving the file untouched, on a short or
  // foreign header or a required first frame that is unreadable.
  static std::uint64_t recover(Env& env, const std::string& path,
                               const RecordFormat& format,
                               const PayloadDecoder& decode);

  // Opens a recovered file for appending at its end. Checks the magic.
  static RecordLog open(Env& env, const std::string& path,
                        const RecordFormat& format, bool sync);

  // Atomically replaces `path` with magic + one frame per payload, via
  // `path`.tmp and rename (fsynced first when `sync`).
  static void rewrite(Env& env, const std::string& path,
                      const RecordFormat& format,
                      std::span<const std::string> payloads, bool sync);

  // One contiguous Env append (+ fsync when syncing). On IoError, heals the
  // file to the durable boundary (the end of the last whole frame) and
  // rethrows; if the heal fails, good() turns false and every later append
  // throws a persistent IoError.
  Appended append(std::string_view payload);

  bool good() const { return !broken_ && file_ != nullptr; }
  std::uint64_t durable_bytes() const { return durable_; }

 private:
  RecordLog(Env& env, std::string path, const RecordFormat& format,
            std::unique_ptr<WritableFile> file, std::uint64_t durable,
            bool sync)
      : env_(&env), path_(std::move(path)), format_(format),
        file_(std::move(file)), durable_(durable), sync_(sync) {}

  void heal_to_durable();

  Env* env_;
  std::string path_;
  RecordFormat format_;
  std::unique_ptr<WritableFile> file_;
  std::uint64_t durable_ = 0;
  bool sync_ = false;
  bool broken_ = false;
};

}  // namespace fedtune
