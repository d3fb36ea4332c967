// Server — the StudyService's network front-end: listens on TCP and/or a
// Unix domain socket off one EventLoop, runs a per-connection state
// machine, and forwards admitted requests to a line handler (the verb
// dispatcher in service/service_handler.hpp).
//
// Connection state machine:
//   - Framing: every connection speaks the length-prefixed frame protocol
//     (net/frame.hpp); bytes that are not a frame are a protocol error,
//     answered with a kErr frame and a disconnect. Partial input is
//     buffered per connection: a frame arriving one byte per segment
//     decodes identically to one arriving in a single read
//     (regression-tested over TCP and Unix).
//   - Auth: with a non-empty AuthTable, TCP connections must send a kHello
//     frame (token as payload, tenant id in the header) before any other
//     request. Unix connections are local and pre-trusted as tenant 0
//     (hello still switches tenant). Failed hellos and pre-auth requests
//     are answered with `err ...` and disconnected.
//   - Quotas (net/quota.hpp): each admitted request costs one token from
//     the tenant's frames/sec bucket (`err quota exceeded (rate)` when
//     empty), and create-study is additionally gated on the tenant's
//     concurrent-study cap — both enforced here, before the StudyManager,
//     and decided from the request's opcode. Replication opcodes (repl-*)
//     are exempt from the rate bucket.
//   - Backpressure: responses are queued per connection and flushed as the
//     socket drains. A slow or stalled reader accumulates queue bytes up to
//     max_write_queue_bytes and is then disconnected — the daemon never
//     blocks on one tenant's socket, so a stalled reader cannot stall the
//     event loop, the scheduler, or any other tenant (test-enforced with a
//     bitwise-identical-trajectory check on the healthy tenants).
//
// Threading: everything runs on the EventLoop thread. The handler is
// invoked synchronously; study execution stays on the journaled
// StudySession path, so serving over TCP preserves the kill/resume replay
// contract bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/quota.hpp"

namespace fedtune::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace fedtune::obs

namespace fedtune::net {

struct ServerOptions {
  std::size_t max_frame_payload = kMaxFramePayload;
  // Backpressure cap: pending unsent response bytes above this disconnect
  // the connection.
  std::size_t max_write_queue_bytes = 256 * 1024;
  int listen_backlog = 1024;
  // SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Tests use
  // tiny buffers to hit the backpressure cap deterministically.
  int sndbuf_bytes = 0;
  QuotaOptions quota;
  AuthTable auth;
  // Injectable monotone clock in seconds (quota refill); nullptr =
  // std::chrono::steady_clock.
  std::function<double()> now_s;
};

class Server {
 public:
  // `line` is the request frame as `VERB PAYLOAD` (the opcode mapped
  // through the verb table), `tenant` the authenticated tenant id; clearing
  // `keep_running` requests daemon shutdown. The returned `ok …`/`err …`
  // line goes back as a kOk/kErr frame with the prefix stripped.
  using Handler = std::function<std::string(
      const std::string& line, std::uint64_t tenant, bool* keep_running)>;

  Server(EventLoop& loop, ServerOptions opts, Handler handler);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and registers listeners; both may be active at once. listen_tcp
  // with port 0 binds an ephemeral port, readable via tcp_port().
  bool listen_unix(const std::string& path);
  bool listen_tcp(const std::string& host, std::uint16_t port);
  std::uint16_t tcp_port() const { return tcp_port_; }

  // True once a handled request cleared keep_running (the shutdown verb):
  // the serve loop should drain and exit.
  bool stopping() const { return stopping_; }

  std::size_t connections() const { return conns_.size(); }

  // Flushes pending responses (bounded by drain_timeout_ms of run_once
  // pumping), closes every connection and listener, unlinks the Unix
  // socket. Idempotent; the destructor calls it with no drain.
  void shutdown(int drain_timeout_ms = 0);

 private:
  struct Conn {
    int fd = -1;
    bool via_unix = false;
    bool authed = false;
    std::uint64_t tenant = 0;
    std::string in;        // unparsed request bytes
    std::string out;       // queued response bytes, [out_off, end) unsent
    std::size_t out_off = 0;
    bool close_after_flush = false;
    const char* close_reason = "eof";
  };

  Conn* find(int fd);
  void on_accept(int listen_fd, bool via_unix);
  void on_conn_event(int fd, std::uint32_t revents);
  // Decodes and dispatches every complete frame in conn.in. The connection
  // may be closed by the time this returns.
  void process_input(int fd);
  // Auth/quota gates + handler dispatch for one request; queues the
  // response.
  void dispatch(int fd, Opcode op, const std::string& args);
  void handle_hello(int fd, std::uint64_t tenant, const std::string& token);
  void queue_response(int fd, const std::string& response);
  // Writes as much of conn.out as the socket accepts; enforces the
  // backpressure cap; closes when close_after_flush and drained. Returns
  // false if the connection was closed.
  bool flush(int fd);
  void close_conn(int fd, const char* reason);
  void protocol_error(int fd, const std::string& message);
  double now_seconds() const;

  EventLoop& loop_;
  ServerOptions opts_;
  Handler handler_;
  TenantQuotas quotas_;
  std::map<int, std::unique_ptr<Conn>> conns_;
  std::map<int, bool> listeners_;  // fd -> via_unix
  std::string unix_path_;
  std::uint16_t tcp_port_ = 0;
  bool stopping_ = false;

  // Connection/frame/backpressure series (global MetricsRegistry; names in
  // src/README.md §Metric naming scheme — no per-tenant labels here, the
  // connection layer sits below the tenancy boundary).
  obs::Counter* conns_tcp_;
  obs::Counter* conns_unix_;
  obs::Counter* frames_in_;
  obs::Counter* frames_out_;
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
  obs::Counter* protocol_errors_;
  obs::Counter* auth_failures_;
  obs::Counter* quota_rate_rejections_;
  obs::Counter* quota_study_rejections_;
  obs::Gauge* open_conns_;
  obs::Histogram* request_seconds_;
  std::map<std::string, obs::Counter*> disconnects_;  // by reason
};

}  // namespace fedtune::net
