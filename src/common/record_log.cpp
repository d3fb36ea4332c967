#include "common/record_log.hpp"

#include <chrono>
#include <cstring>

#include "common/check.hpp"
#include "common/crc32.hpp"

namespace fedtune {

namespace {

constexpr std::size_t kMagicBytes = sizeof(std::uint64_t);
constexpr std::size_t kFrameHeaderBytes = 2 * sizeof(std::uint32_t);

void append_frame(std::string& out, std::string_view payload) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&size), sizeof(size));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.append(payload);
}

// The whole file, after checking its magic.
std::string read_checked(Env& env, const std::string& path,
                         const RecordFormat& format) {
  std::string bytes = env.read_file(path);
  FEDTUNE_CHECK_MSG(bytes.size() >= kMagicBytes,
                    format.what << " too short for header: " << path);
  FEDTUNE_CHECK_MSG(std::memcmp(bytes.data(), &format.magic, kMagicBytes) == 0,
                    "unknown " << format.what << " magic in " << path);
  return bytes;
}

}  // namespace

RecordLog RecordLog::create(Env& env, const std::string& path,
                            const RecordFormat& format, bool sync) {
  auto file = env.open_writable(path, Env::WriteMode::kTruncate);
  file->append(std::string_view(reinterpret_cast<const char*>(&format.magic),
                                kMagicBytes));
  return RecordLog(env, path, format, std::move(file), kMagicBytes, sync);
}

std::uint64_t RecordLog::recover(Env& env, const std::string& path,
                                 const RecordFormat& format,
                                 const PayloadDecoder& decode) {
  const std::string bytes = read_checked(env, path, format);
  std::size_t end = kMagicBytes;  // of the valid prefix
  while (end + kFrameHeaderBytes <= bytes.size()) {
    std::uint32_t size = 0, crc = 0;
    std::memcpy(&size, bytes.data() + end, sizeof(size));
    std::memcpy(&crc, bytes.data() + end + sizeof(size), sizeof(crc));
    const char* payload = bytes.data() + end + kFrameHeaderBytes;
    if (size > format.max_payload) break;                        // torn length
    if (end + kFrameHeaderBytes + size > bytes.size()) break;    // torn payload
    if (crc32(payload, size) != crc) break;                      // bit rot
    BufferReader r(std::span<const char>(payload, size));
    try {
      decode(r);
    } catch (const std::exception&) {
      break;
    }
    end += kFrameHeaderBytes + size;
  }
  FEDTUNE_CHECK_MSG(!format.first_frame_required || end > kMagicBytes,
                    format.what << " has no valid first record: " << path);
  if (end < bytes.size()) env.truncate_file(path, end);
  return bytes.size() - end;
}

RecordLog RecordLog::open(Env& env, const std::string& path,
                          const RecordFormat& format, bool sync) {
  const std::uint64_t size = read_checked(env, path, format).size();
  return RecordLog(env, path, format,
                   env.open_writable(path, Env::WriteMode::kAppend), size,
                   sync);
}

void RecordLog::rewrite(Env& env, const std::string& path,
                        const RecordFormat& format,
                        std::span<const std::string> payloads, bool sync) {
  std::string out(reinterpret_cast<const char*>(&format.magic), kMagicBytes);
  for (const std::string& payload : payloads) {
    FEDTUNE_CHECK(payload.size() <= format.max_payload);
    append_frame(out, payload);
  }
  const std::string tmp = path + ".tmp";
  env.remove_file(tmp);
  auto file = env.open_writable(tmp, Env::WriteMode::kTruncate);
  file->append(out);
  if (sync) file->sync();
  file->close();
  env.rename_file(tmp, path);
}

RecordLog::Appended RecordLog::append(std::string_view payload) {
  FEDTUNE_CHECK(payload.size() <= format_.max_payload);
  if (!good()) {
    throw IoError(IoErrorKind::kPersistent, "append", path_,
                  std::string(format_.what) +
                      " is broken (an earlier failure could not be healed)");
  }
  Appended a;
  a.offset = durable_;
  a.frame.reserve(kFrameHeaderBytes + payload.size());
  append_frame(a.frame, payload);
  try {
    file_->append(a.frame);
    if (sync_) {
      const auto t0 = std::chrono::steady_clock::now();
      file_->sync();
      a.sync_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    }
  } catch (const IoError&) {
    heal_to_durable();
    throw;
  }
  durable_ += a.frame.size();
  return a;
}

// Close + truncate to the durable boundary + reopen; broken if that fails
// (the on-disk prefix stays recoverable either way).
void RecordLog::heal_to_durable() {
  try {
    if (file_ != nullptr) {
      try {
        file_->close();
      } catch (const IoError&) {  // close error does not block the truncate
      }
      file_.reset();
    }
    env_->truncate_file(path_, durable_);
    file_ = env_->open_writable(path_, Env::WriteMode::kAppend);
  } catch (const IoError&) {
    broken_ = true;
  }
}

}  // namespace fedtune
