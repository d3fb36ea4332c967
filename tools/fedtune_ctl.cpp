// fedtune_ctl — client for the fedtune_studyd daemon: sends one protocol
// request over a Unix socket or TCP and prints the reply.
//
//   fedtune_ctl --socket PATH [--timeout SEC] VERB [ARGS...]
//   fedtune_ctl --tcp HOST:PORT [--tenant N] [--token T] [--timeout SEC]
//               VERB [ARGS...]
//       e.g.  fedtune_ctl --socket /tmp/studyd.sock create-study s1
//                 method=rs configs=24 seed=7
//             fedtune_ctl --tcp 127.0.0.1:7447 --tenant 3 --token s3cret
//                 status s1
//             fedtune_ctl --socket /tmp/studyd.sock cache-stats
//       (cache-stats reports the shared evaluation caches per pool:
//        entries, hits, misses, hit rate — daemon must run --eval-cache)
//   fedtune_ctl (--socket PATH | --tcp HOST:PORT) wait NAME TIMEOUT_SECONDS
//       polls `status NAME` until the study reports state=finished (exit 0)
//       or the timeout expires (exit 1) — the CI smoke test's join point.
//
// Transport: both --socket and --tcp speak the length-prefixed frame
// protocol (src/net/frame.hpp) through net::Client — the request verb maps
// to its opcode, the args to the payload, and the kOk/kErr reply frame is
// printed as an `ok ...` / `err ...` line. With --token the client sends a
// kHello first; --tenant sets the tenant id (default 0).
//
// Connection failures retry with jittered exponential backoff until the
// --timeout deadline (default 5 s) — a daemon that is restarting (e.g.
// replaying journals after a crash) looks like a connect failure for a
// moment, and a control plane that gives up on the first ECONNREFUSED turns
// every recovery into an outage. The jitter decorrelates concurrent clients
// hammering a freshly bound socket. A peer that answers with bytes that are
// not a reply frame is a protocol error: no retry, exit 1.
//
// Replies are one line except `metrics`, which answers `ok lines=N`
// followed by N raw Prometheus exposition lines, all inside one frame.
//
// Exit codes (distinct, for scripting):
//   0  the daemon answered `ok ...` (or the wait succeeded)
//   1  the daemon answered `err ...`, a wait timed out, or a protocol error
//   2  usage error (bad flags/arguments)
//   3  connection failure past the --timeout deadline (daemon unreachable)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "flag_parse.hpp"

#include "cluster/placement.hpp"
#include "net/client.hpp"

namespace {

using fedtune::net::ClientOptions;
using fedtune::net::Endpoint;

// The peer answered with bytes that are not a reply frame. Retrying cannot
// help, so it unwinds straight to main (exit 1).
struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Verbs whose first argument is a study name — the ones --cluster routes by
// placement (and fails over to the follower for).
bool study_scoped_verb(const std::string& verb) {
  return verb == "create-study" || verb == "status" || verb == "best" ||
         verb == "trace" || verb == "suspend" || verb == "resume" ||
         verb == "ask" || verb == "tell" || verb == "drive" ||
         verb == "promote";
}

// One request on a fresh connection; nullopt when no reply came back (the
// retryable case).
std::optional<std::string> roundtrip(const Endpoint& ep,
                                     const ClientOptions& opts,
                                     const std::string& line) {
  fedtune::net::Client client(ep, opts);
  std::optional<std::string> reply = client.request(line);
  if (!reply.has_value() &&
      client.error() == fedtune::net::Client::Error::kProtocolError) {
    throw ProtocolError(ep.describe() + ": " + client.error_message());
  }
  return reply;
}

// Tries each candidate in order (the one endpoint, or a study's primary
// then its follower) until one replies, retrying with jittered exponential
// backoff until `timeout_seconds` passes. One round is always made, so a
// zero/negative timeout degrades to a single attempt per candidate. A dead
// primary costs one failed connect per round; the follower answers the
// same request — auto-promoting server-side when the study only exists
// there as a replica.
std::optional<std::string> roundtrip_retry(
    const std::vector<Endpoint>& candidates, const ClientOptions& opts,
    const std::string& line, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  // Jitter decorrelates concurrent clients; it is seeded per process, not
  // deterministically — this is politeness, not replay.
  std::minstd_rand jitter_rng(
      static_cast<unsigned>(::getpid()) * 2654435761u + 1u);
  double delay_ms = 10.0;
  for (;;) {
    for (const Endpoint& ep : candidates) {
      const auto response = roundtrip(ep, opts, line);
      if (response.has_value()) return response;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(deadline - now).count();
    const double factor =
        0.5 + static_cast<double>(jitter_rng() % 1000u) / 1000.0;
    const double sleep_ms = std::min(delay_ms * factor, remaining_ms);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
    delay_ms = std::min(delay_ms * 2.0, 500.0);
  }
}

// Polls `status NAME` on the first candidate that answers until the study
// reports state=finished (exit 0) or the timeout passes (exit 1).
int wait_for_finish(const std::vector<Endpoint>& candidates,
                    const ClientOptions& opts, const std::string& name,
                    double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const Endpoint& ep : candidates) {
      const auto response = roundtrip(ep, opts, "status " + name);
      if (response.has_value() &&
          response->find("state=finished") != std::string::npos) {
        std::cout << *response << "\n";
        return 0;
      }
      if (response.has_value()) break;  // reached a live server; don't poll
                                        // the follower into promoting too
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cerr << "error: study '" << name << "' did not finish within "
            << timeout_seconds << "s\n";
  return 1;
}

int run(int argc, char** argv) {
  Endpoint ep;
  ClientOptions opts;
  double timeout_seconds = 5.0;
  std::string cluster_file;
  std::vector<std::string> words;
  // A daemon that closes mid-write must cost this client an EPIPE errno,
  // not a fatal signal.
  std::signal(SIGPIPE, SIG_IGN);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "error: " << a << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--socket") {
      ep.unix_path = next();
    } else if (a == "--tcp") {
      const std::string spec = next();
      const std::size_t colon = spec.rfind(':');
      int port = -1;
      try {
        if (colon != std::string::npos) {
          ep.host = spec.substr(0, colon);
          port = std::stoi(spec.substr(colon + 1));
        }
      } catch (const std::exception&) {
        port = -1;
      }
      if (port < 0 || port > 65535 || ep.host.empty()) {
        std::cerr << "error: bad --tcp spec '" << spec
                  << "' (want HOST:PORT)\n";
        return 2;
      }
      ep.port = static_cast<std::uint16_t>(port);
    } else if (a == "--cluster") {
      cluster_file = next();
    } else if (a == "--tenant") {
      opts.tenant = fedtune::tools::parse_u64_flag(a, next());
    } else if (a == "--token") {
      opts.token = next();
    } else if (a == "--timeout") {
      timeout_seconds = fedtune::tools::parse_double_flag(a, next());
    } else if (a == "--help" || a == "-h") {
      std::cout
          << "usage: fedtune_ctl (--socket PATH | --tcp HOST:PORT | "
             "--cluster FILE)\n"
             "                   [--tenant N] [--token T]\n"
             "                   [--timeout SEC] VERB [ARGS...]\n"
             "       fedtune_ctl (--socket PATH | --tcp HOST:PORT) wait "
             "NAME TIMEOUT_SEC\n"
             "\n"
             "transport (length-prefixed frames; replies print as ok/err "
             "lines):\n"
             "  --socket PATH             Unix socket\n"
             "  --tcp HOST:PORT           TCP\n"
             "  --cluster FILE            roster file (ID HOST:PORT lines); "
             "study\n"
             "                            verbs route to the study's primary "
             "and\n"
             "                            fail over to its follower\n"
             "  --tenant N --token T      authenticate as tenant N (sends "
             "hello)\n"
             "\n"
             "daemon verbs (forwarded over the socket):\n"
             "  ping                      liveness check\n"
             "  list                      active studies as "
             "NAME:STATE:HEALTH\n"
             "  create-study NAME [k=v..] new study (method=, configs=, "
             "budget=,\n"
             "                            seed=, pool=, eval-clients=, "
             "epsilon=,\n"
             "                            bias-b=, deadline=, cache=on|off,\n"
             "                            warm=on|off, max-trials=, "
             "external)\n"
             "  status NAME               state/health/steps/rounds/best; "
             "adds\n"
             "                            cache_hits=/cache_misses= with the "
             "eval\n"
             "                            cache, retries=/last_error= when "
             "degraded\n"
             "  best NAME                 current best trial (hex-float "
             "exact)\n"
             "  trace NAME                full trial trajectory, hex-float "
             "exact\n"
             "  ask NAME                  next trial of an external study\n"
             "  tell NAME ID OBJ          report an external trial's "
             "objective\n"
             "  drive NAME STEPS          run STEPS managed steps "
             "synchronously\n"
             "  pump                      one fair-share scheduler cycle\n"
             "  suspend NAME              park a study (journal keeps "
             "state)\n"
             "  resume NAME               un-park / rebuild a journaled "
             "study\n"
             "  cache-stats               shared eval-cache counters per "
             "pool\n"
             "  metrics                   Prometheus exposition "
             "(multi-line)\n"
             "  trace-export              write Chrome trace JSON to the "
             "daemon's\n"
             "                            --trace-out\n"
             "  shutdown                  stop the daemon\n"
             "\n"
             "client-side verbs:\n"
             "  wait NAME TIMEOUT_SEC     poll status until state=finished\n"
             "  route NAME                print the study's placement "
             "(--cluster)\n"
             "\n"
             "exit codes: 0 ok, 1 daemon err/wait timeout/protocol error,\n"
             "            2 usage,\n"
             "            3 connect failure past --timeout\n";
      return 0;
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag '" << a << "' (see --help)\n";
      return 2;
    } else {
      words.push_back(a);
    }
  }
  const int given = (!ep.unix_path.empty() ? 1 : 0) +
                    (!ep.host.empty() ? 1 : 0) +
                    (!cluster_file.empty() ? 1 : 0);
  if (given == 0 || words.empty()) {
    std::cerr << "usage: fedtune_ctl (--socket PATH | --tcp HOST:PORT | "
                 "--cluster FILE) [--tenant N] [--token T] "
                 "[--timeout SEC] VERB [ARGS...]\n";
    return 2;
  }
  if (given > 1) {
    std::cerr
        << "error: pass exactly one of --socket / --tcp / --cluster\n";
    return 2;
  }

  // --cluster: compute the study's placement client-side and talk to the
  // primary, falling over to the follower when the primary stops answering.
  std::vector<Endpoint> candidates;
  if (cluster_file.empty()) {
    candidates.push_back(ep);
  } else {
    std::optional<fedtune::cluster::Placement> placement;
    try {
      placement.emplace(fedtune::cluster::Roster::load(cluster_file));
    } catch (const std::exception& ex) {
      std::cerr << "error: " << ex.what() << "\n";
      return 2;
    }
    const std::string& verb = words[0];
    if (verb == "route") {
      if (words.size() != 2) {
        std::cerr << "usage: fedtune_ctl --cluster FILE route NAME\n";
        return 2;
      }
      const auto p = placement->place(words[1]);
      std::cout << "ok study=" << words[1] << " primary=" << p.primary.id
                << "@" << p.primary.endpoint();
      if (p.follower.has_value()) {
        std::cout << " follower=" << p.follower->id << "@"
                  << p.follower->endpoint();
      }
      std::cout << "\n";
      return 0;
    }
    // Study verbs go to the study's primary, then its follower; fleet-wide
    // verbs (ping, list, metrics, ...) to the first live member.
    const bool scoped = (study_scoped_verb(verb) || verb == "wait") &&
                        words.size() >= 2;
    if (scoped) {
      const auto p = placement->place(words[1]);
      candidates.push_back(Endpoint::tcp(p.primary.host, p.primary.port));
      if (p.follower.has_value()) {
        candidates.push_back(
            Endpoint::tcp(p.follower->host, p.follower->port));
      }
    } else {
      for (const auto& m : placement->roster().members()) {
        candidates.push_back(Endpoint::tcp(m.host, m.port));
      }
    }
  }

  if (words[0] == "wait") {
    if (words.size() != 3) {
      std::cerr << "usage: fedtune_ctl (--socket PATH | --tcp HOST:PORT | "
                   "--cluster FILE) wait NAME TIMEOUT_SEC\n";
      return 2;
    }
    return wait_for_finish(
        candidates, opts, words[1],
        fedtune::tools::parse_double_flag("wait TIMEOUT_SEC", words[2]));
  }
  std::string line = words[0];
  for (std::size_t i = 1; i < words.size(); ++i) line += " " + words[i];
  const auto response =
      roundtrip_retry(candidates, opts, line, timeout_seconds);
  if (!response.has_value()) {
    // Distinct from a daemon-side `err` (1) and from usage (2): scripts can
    // tell "unreachable" apart from "reached but refused".
    std::cerr << "error: "
              << (cluster_file.empty() ? "cannot reach daemon at " +
                                             ep.describe()
                                       : "no cluster member answered")
              << " within " << timeout_seconds << "s\n";
    return 3;
  }
  std::cout << *response << "\n";
  return response->rfind("ok", 0) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const ProtocolError& ex) {
    std::cerr << "error: protocol error from " << ex.what() << "\n";
    return 1;
  }
}
