#include "net/frame.hpp"

#include <array>
#include <cstring>
#include <utility>

#include "common/crc32.hpp"
#include "common/serialize.hpp"

namespace fedtune::net {

namespace {

// One row per request opcode; order is irrelevant (looked up both ways).
constexpr std::array<std::pair<Opcode, const char*>, 22> kVerbTable = {{
    {Opcode::kPing, "ping"},
    {Opcode::kList, "list"},
    {Opcode::kPump, "pump"},
    {Opcode::kCacheStats, "cache-stats"},
    {Opcode::kMetrics, "metrics"},
    {Opcode::kShutdown, "shutdown"},
    {Opcode::kCreateStudy, "create-study"},
    {Opcode::kAsk, "ask"},
    {Opcode::kTell, "tell"},
    {Opcode::kStatus, "status"},
    {Opcode::kBest, "best"},
    {Opcode::kTrace, "trace"},
    {Opcode::kSuspend, "suspend"},
    {Opcode::kResume, "resume"},
    {Opcode::kDrive, "drive"},
    {Opcode::kTraceExport, "trace-export"},
    {Opcode::kReplAppend, "repl-append"},
    {Opcode::kReplAck, "repl-ack"},
    {Opcode::kReplSnapshot, "repl-snapshot"},
    {Opcode::kPromote, "promote"},
    {Opcode::kClusterInfo, "cluster-info"},
    {Opcode::kHello, "hello"},
}};

template <typename T>
T read_le(const char* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

const char* verb_for_opcode(Opcode op) {
  for (const auto& [code, verb] : kVerbTable) {
    if (code == op) return verb;
  }
  return nullptr;
}

std::optional<Opcode> opcode_for_verb(std::string_view verb) {
  for (const auto& [code, name] : kVerbTable) {
    if (verb == name) return code;
  }
  return std::nullopt;
}

std::string encode_frame(const Frame& frame) {
  BufferWriter out;
  out.write_u32(kFrameMagic);
  out.write_u8(frame.version);
  out.write_u8(static_cast<std::uint8_t>(frame.opcode));
  out.write_scalar<std::uint16_t>(0);  // reserved
  out.write_u64(frame.tenant);
  out.write_u32(static_cast<std::uint32_t>(frame.payload.size()));
  out.write_u32(crc32(frame.payload.data(), frame.payload.size()));
  std::string bytes = out.bytes();
  bytes.append(frame.payload);
  return bytes;
}

DecodeResult decode_frame(std::string_view in, std::size_t max_payload) {
  DecodeResult r;
  // Validate the magic byte-by-byte so garbage fails on its first byte
  // instead of stalling in kNeedMore forever.
  const std::uint32_t magic_le = kFrameMagic;
  char magic_bytes[4];
  std::memcpy(magic_bytes, &magic_le, 4);
  const std::size_t magic_have = in.size() < 4 ? in.size() : 4;
  if (std::memcmp(in.data(), magic_bytes, magic_have) != 0) {
    r.status = DecodeStatus::kBad;
    r.error = "bad frame magic";
    return r;
  }
  if (in.size() >= 5 && in[4] != static_cast<char>(kFrameVersion)) {
    r.status = DecodeStatus::kBad;
    r.error = "unsupported frame version";
    return r;
  }
  if (in.size() >= 8 && read_le<std::uint16_t>(in.data() + 6) != 0) {
    r.status = DecodeStatus::kBad;
    r.error = "nonzero reserved header field";
    return r;
  }
  if (in.size() < kFrameHeaderSize) {
    r.status = DecodeStatus::kNeedMore;
    return r;
  }
  const std::uint32_t payload_size = read_le<std::uint32_t>(in.data() + 16);
  if (payload_size > max_payload) {
    r.status = DecodeStatus::kBad;
    r.error = "oversized frame (" + std::to_string(payload_size) + " > " +
              std::to_string(max_payload) + " bytes)";
    return r;
  }
  if (in.size() < kFrameHeaderSize + payload_size) {
    r.status = DecodeStatus::kNeedMore;
    return r;
  }
  const std::uint32_t declared_crc = read_le<std::uint32_t>(in.data() + 20);
  const std::uint32_t actual_crc =
      crc32(in.data() + kFrameHeaderSize, payload_size);
  if (declared_crc != actual_crc) {
    r.status = DecodeStatus::kBad;
    r.error = "frame CRC mismatch";
    return r;
  }
  r.status = DecodeStatus::kFrame;
  r.consumed = kFrameHeaderSize + payload_size;
  r.frame.version = static_cast<std::uint8_t>(in[4]);
  r.frame.opcode = static_cast<Opcode>(static_cast<std::uint8_t>(in[5]));
  r.frame.tenant = read_le<std::uint64_t>(in.data() + 8);
  r.frame.payload.assign(in.data() + kFrameHeaderSize, payload_size);
  return r;
}

}  // namespace fedtune::net
