#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace fedtune::net {

Endpoint Endpoint::unix_socket(std::string path) {
  Endpoint ep;
  ep.unix_path = std::move(path);
  return ep;
}

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  Endpoint ep;
  ep.host = std::move(host);
  ep.port = port;
  return ep;
}

std::string Endpoint::describe() const {
  if (!unix_path.empty()) return unix_path;
  return host + ":" + std::to_string(port);
}

int connect_endpoint(const Endpoint& ep, bool nonblocking,
                     double io_timeout_s) {
  const bool via_unix = !ep.unix_path.empty();
  const int fd =
      ::socket(via_unix ? AF_UNIX : AF_INET,
               SOCK_STREAM | SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0),
               0);
  if (fd < 0) return -1;
  if (io_timeout_s > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<long>(io_timeout_s);
    tv.tv_usec = static_cast<long>((io_timeout_s - tv.tv_sec) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  sockaddr_un un{};
  sockaddr_in in{};
  const sockaddr* addr = nullptr;
  socklen_t addr_len = 0;
  if (via_unix) {
    if (ep.unix_path.size() >= sizeof(un.sun_path)) {
      ::close(fd);
      return -1;
    }
    un.sun_family = AF_UNIX;
    std::memcpy(un.sun_path, ep.unix_path.data(), ep.unix_path.size());
    addr = reinterpret_cast<const sockaddr*>(&un);
    addr_len = sizeof(un);
  } else {
    in.sin_family = AF_INET;
    in.sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &in.sin_addr) != 1) {
      ::close(fd);
      return -1;
    }
    addr = reinterpret_cast<const sockaddr*>(&in);
    addr_len = sizeof(in);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (::connect(fd, addr, addr_len) < 0 &&
      !(nonblocking && (errno == EINPROGRESS || errno == EAGAIN))) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

std::optional<std::string> reply_line(const Frame& frame) {
  const char* prefix = frame.opcode == Opcode::kOk    ? "ok"
                       : frame.opcode == Opcode::kErr ? "err"
                                                      : nullptr;
  if (prefix == nullptr) return std::nullopt;
  std::string line = prefix;
  if (!frame.payload.empty()) {
    line += ' ';
    line += frame.payload;
  }
  return line;
}

Client::Client(Endpoint ep, ClientOptions opts)
    : ep_(std::move(ep)), opts_(std::move(opts)) {}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.clear();
}

std::optional<std::string> Client::fail(Error error, std::string message) {
  error_ = error;
  error_message_ = std::move(message);
  close();
  return std::nullopt;
}

std::optional<std::string> Client::connect() {
  if (fd_ >= 0) return std::string("ok");
  fd_ = connect_endpoint(ep_, /*nonblocking=*/false, opts_.io_timeout_s);
  if (fd_ < 0) {
    return fail(Error::kConnectFailed, "cannot connect to " +
                                           ep_.describe() + ": " +
                                           std::strerror(errno));
  }
  if (opts_.token.empty()) return std::string("ok");
  Frame hello;
  hello.opcode = Opcode::kHello;
  hello.tenant = opts_.tenant;
  hello.payload = opts_.token;
  if (!send_bytes(encode_frame(hello))) return std::nullopt;
  std::optional<std::string> reply = read_reply();
  if (reply.has_value() && reply->rfind("ok", 0) != 0) close();
  return reply;
}

std::optional<std::string> Client::request(Opcode op,
                                           std::string_view payload) {
  if (fd_ < 0) {
    std::optional<std::string> hello = connect();
    if (!hello.has_value() || hello->rfind("ok", 0) != 0) return hello;
  }
  Frame frame;
  frame.opcode = op;
  frame.tenant = opts_.tenant;
  frame.payload = payload;
  if (!send_bytes(encode_frame(frame))) return std::nullopt;
  return read_reply();
}

std::optional<std::string> Client::request(std::string_view line) {
  const std::size_t sp = line.find(' ');
  const std::string_view verb = line.substr(0, sp);
  const std::optional<Opcode> op = opcode_for_verb(verb);
  if (!op.has_value()) return "err unknown verb '" + std::string(verb) + "'";
  return request(*op, sp == std::string_view::npos ? std::string_view()
                                                   : line.substr(sp + 1));
}

bool Client::send_bytes(std::string_view bytes) {
  if (fd_ < 0) {
    fail(Error::kConnectFailed, "not connected");
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      fail(Error::kConnectFailed,
           std::string("send failed: ") + std::strerror(errno));
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

std::optional<std::string> Client::read_reply() {
  if (fd_ < 0) return fail(Error::kConnectFailed, "not connected");
  char buf[8192];
  for (;;) {
    const DecodeResult r = decode_frame(in_);
    if (r.status == DecodeStatus::kBad) {
      return fail(Error::kProtocolError, r.error);
    }
    if (r.status == DecodeStatus::kFrame) {
      in_.erase(0, r.consumed);
      std::optional<std::string> line = reply_line(r.frame);
      if (!line.has_value()) {
        return fail(Error::kProtocolError,
                    "unexpected opcode " +
                        std::to_string(static_cast<int>(r.frame.opcode)) +
                        " in a reply");
      }
      return line;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      return fail(Error::kConnectFailed, "connection closed before a reply");
    }
    if (n < 0) {
      return fail(Error::kConnectFailed,
                  std::string("recv failed: ") + std::strerror(errno));
    }
    in_.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace fedtune::net
