// Client — the blocking client of the frame protocol (net/frame.hpp),
// shared by fedtune_ctl, the JournalReplicator and the tests. One Client is
// one connection to one endpoint (a Unix socket or TCP): it connects,
// optionally authenticates with a kHello frame, then makes requests one at
// a time, each answered by exactly one kOk/kErr frame rendered back as the
// `ok …`/`err …` reply line.
//
// Failures are classified for the caller's retry policy:
//   - kConnectFailed: no reply arrived — the connect was refused or timed
//     out, or the connection dropped before a whole frame came back. A
//     daemon that is restarting looks like this; retrying is sensible.
//   - kProtocolError: the peer answered with bytes that are not a valid
//     kOk/kErr frame (an impostor, or a corrupt stream). Retrying cannot
//     help. The connection is closed either way.
//
// connect_endpoint() is the one place sockets are opened towards a daemon;
// fedtune_loadgen's non-blocking epoll clients use it directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/frame.hpp"

namespace fedtune::net {

// A daemon address: a Unix socket path, or an IPv4 host and TCP port.
struct Endpoint {
  std::string unix_path;  // non-empty selects the Unix transport
  std::string host;
  std::uint16_t port = 0;

  static Endpoint unix_socket(std::string path);
  static Endpoint tcp(std::string host, std::uint16_t port);
  std::string describe() const;
};

// Opens a CLOEXEC stream socket to `ep`; TCP sockets get TCP_NODELAY. A
// blocking socket is returned connected. A `nonblocking` one may still be
// connecting: wait for EPOLLOUT, then read SO_ERROR. `io_timeout_s` > 0
// bounds the connect and every later send/recv (SO_SNDTIMEO/SO_RCVTIMEO).
// Returns -1 on failure.
int connect_endpoint(const Endpoint& ep, bool nonblocking,
                     double io_timeout_s = 0.0);

// A kOk/kErr frame as its reply line: `ok PAYLOAD` / `err PAYLOAD`, or a
// bare `ok`/`err` for an empty payload. nullopt for any other opcode.
std::optional<std::string> reply_line(const Frame& frame);

struct ClientOptions {
  std::uint64_t tenant = 0;   // header tenant of every request frame
  std::string token;          // non-empty: kHello with it on connect
  double io_timeout_s = 0.0;  // 0 = block indefinitely
};

class Client {
 public:
  enum class Error : std::uint8_t { kNone, kConnectFailed, kProtocolError };

  explicit Client(Endpoint ep, ClientOptions opts = {});
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects (a no-op while connected) and, when the options carry a token,
  // sends kHello. Returns the handshake's reply — `ok hello tenant=N`, or
  // the daemon's `err auth …` refusal after which the daemon hangs up —
  // "ok" when there is no token, nullopt on failure (error() says which).
  std::optional<std::string> connect();
  bool connected() const { return fd_ >= 0; }

  // One request frame and its reply line, connecting first if needed (a
  // refused hello is returned as the reply). nullopt on failure.
  std::optional<std::string> request(Opcode op, std::string_view payload);
  // `VERB ARGS…` form: the verb selects the opcode, the rest is the
  // payload. A verb with no opcode cannot be framed and is answered
  // locally with the daemon's own wording, `err unknown verb 'VERB'`.
  std::optional<std::string> request(std::string_view line);

  // Raw halves of request(), for callers that frame or split bytes
  // themselves.
  bool send_bytes(std::string_view bytes);
  std::optional<std::string> read_reply();

  Error error() const { return error_; }
  // Human-readable detail of the last failure.
  const std::string& error_message() const { return error_message_; }

 private:
  void close();
  // Records the failure, closes the connection, returns nullopt.
  std::optional<std::string> fail(Error error, std::string message);

  Endpoint ep_;
  ClientOptions opts_;
  int fd_ = -1;
  std::string in_;  // received bytes not yet decoded
  Error error_ = Error::kNone;
  std::string error_message_;
};

}  // namespace fedtune::net
