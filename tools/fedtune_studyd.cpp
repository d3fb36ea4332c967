// fedtune_studyd — the StudyService daemon: serves tuning studies over TCP
// and/or a Unix domain socket off one epoll event loop, speaking the
// length-prefixed binary frame protocol (see src/README.md §Network
// protocol).
//
//   fedtune_studyd [--socket PATH] [--tcp [HOST:]PORT] [--port-file PATH]
//                  [--journal-dir DIR] [--autodrive] [--pool-configs N]
//                  [--rounds-per-slice R] [--fsync-on-commit]
//                  [--eval-cache DIR] [--metrics-file PATH]
//                  [--trace-out PATH] [--max-studies N]
//                  [--auth-file PATH] [--quota-fps F] [--quota-burst B]
//                  [--quota-studies N] [--max-write-queue BYTES]
//
// At least one of --socket / --tcp is required; both may be active at once
// (one event loop serves both listeners). --tcp PORT with port 0 binds an
// ephemeral port; --port-file writes the bound port as a decimal line so
// scripts can discover it.
//
// On startup the daemon builds the deterministic "synth-small" candidate
// pool (identical bytes on every start — the determinism contract in
// src/README.md — so a daemon restarted after SIGKILL recovers its studies
// against the exact same evaluation substrate), registers it, and resumes
// every journal found in the journal directory. With --autodrive it pumps
// one fair-share scheduler cycle per loop interval; without it, managed
// studies advance only through explicit `drive` requests (tests).
//
// Multi-tenancy: --auth-file loads `TENANT_ID TOKEN` lines; with it set,
// TCP clients must send a kHello frame before any other request (Unix
// connections are local and pre-trusted). --quota-fps/--quota-burst cap
// each tenant's request rate with a token bucket; --quota-studies caps a
// tenant's concurrent studies — all enforced at the connection layer,
// before the StudyManager. Slow readers are disconnected once their
// pending-response queue exceeds --max-write-queue; the event loop never
// blocks on one tenant's socket.
//
// Verb grammar and response format: src/README.md §Network protocol.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "flag_parse.hpp"

#include "cluster/placement.hpp"
#include "cluster/replica_store.hpp"
#include "cluster/replicator.hpp"
#include "core/config_pool.hpp"
#include "data/synth_image.hpp"
#include "hpo/search_space.hpp"
#include "net/event_loop.hpp"
#include "net/quota.hpp"
#include "net/server.hpp"
#include "nn/factory.hpp"
#include "obs/trace.hpp"
#include "service/service_handler.hpp"
#include "service/study_manager.hpp"

namespace {

using namespace fedtune;

// The daemon's built-in evaluation substrate: small enough to build in
// well under a second, deterministic in every byte.
std::shared_ptr<const service::PoolResources> build_synth_pool(
    std::size_t num_configs) {
  data::SynthImageConfig cfg;
  cfg.name = "synth-small";
  cfg.num_train_clients = 30;
  cfg.num_eval_clients = 10;
  cfg.mean_examples = 40.0;
  cfg.input_dim = 16;
  cfg.seed = 4;
  const data::FederatedDataset ds = data::make_synth_image(cfg);
  const auto arch = nn::make_default_model(ds);
  core::PoolBuildOptions opts;
  opts.num_configs = num_configs;
  opts.checkpoints = {1, 3, 9};
  opts.trainer.clients_per_round = 8;
  opts.store_params = false;
  const core::ConfigPool pool =
      core::ConfigPool::build(ds, *arch, hpo::appendix_b_space(), opts);
  auto resources = std::make_shared<service::PoolResources>();
  resources->configs = pool.configs();
  resources->view = pool.view();
  return resources;
}

// A 1k-tenant load test needs ~2k fds (daemon side + loadgen side); the
// default soft limit of 1024 would reject half the fleet at accept().
void raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  const rlim_t want = 65536;
  const rlim_t target = lim.rlim_max == RLIM_INFINITY
                            ? want
                            : (lim.rlim_max < want ? lim.rlim_max : want);
  if (lim.rlim_cur >= target) return;
  lim.rlim_cur = target;
  ::setrlimit(RLIMIT_NOFILE, &lim);  // best effort
}

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

struct Args {
  std::string socket_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;  // -1 = no TCP listener
  std::string port_file;
  service::ManagerOptions opts;
  bool autodrive = false;
  std::size_t pool_configs = 8;
  std::string metrics_file;
  std::string trace_out;
  std::string auth_file;
  net::ServerOptions server;
  // Cluster membership: --cluster-file + --self (full roster mode), or
  // --peer HOST:PORT (ad-hoc two-node mode: replicate everything there).
  std::string cluster_file;
  std::string self_id;
  std::string peer;
  std::uint64_t repl_tenant = 0;
  std::string repl_token;
};

int usage(int rc) {
  std::cerr
      << "usage: fedtune_studyd [--socket PATH] [--tcp [HOST:]PORT]\n"
         "                      [--port-file PATH] [--journal-dir DIR]\n"
         "                      [--autodrive] [--pool-configs N]\n"
         "                      [--rounds-per-slice R] [--fsync-on-commit]\n"
         "                      [--eval-cache DIR] [--metrics-file PATH]\n"
         "                      [--trace-out PATH] [--max-studies N]\n"
         "                      [--auth-file PATH] [--quota-fps F]\n"
         "                      [--quota-burst B] [--quota-studies N]\n"
         "                      [--max-write-queue BYTES]\n"
         "                      [--cluster-file FILE --self ID]\n"
         "                      [--peer HOST:PORT]\n"
         "                      [--repl-tenant N] [--repl-token T]\n";
  return rc;
}

// "HOST:PORT" with a strictly numeric port; nullopt on anything else.
std::optional<std::pair<std::string, std::uint16_t>> parse_endpoint(
    const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  const std::string host = spec.substr(0, colon);
  const std::string digits = spec.substr(colon + 1);
  if (digits.empty() || digits.size() > 5) return std::nullopt;
  unsigned long port = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<unsigned long>(c - '0');
  }
  if (port == 0 || port > 65535) return std::nullopt;
  return std::make_pair(host, static_cast<std::uint16_t>(port));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.opts.journal_dir = "fedtune_studies";
  args.opts.rounds_per_slice = 9;  // one full-fidelity synth-small trial
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
      args.socket_path = next();
    } else if (a == "--tcp") {
      // [HOST:]PORT; port 0 binds an ephemeral port (see --port-file).
      const std::string spec = next();
      const std::size_t colon = spec.rfind(':');
      try {
        if (colon == std::string::npos) {
          args.tcp_port = std::stoi(spec);
        } else {
          args.tcp_host = spec.substr(0, colon);
          args.tcp_port = std::stoi(spec.substr(colon + 1));
        }
      } catch (const std::exception&) {
        args.tcp_port = -1;
      }
      if (args.tcp_port < 0 || args.tcp_port > 65535 ||
          args.tcp_host.empty()) {
        std::cerr << "error: bad --tcp spec '" << spec
                  << "' (want [HOST:]PORT)\n";
        return 2;
      }
    } else if (a == "--port-file") {
      args.port_file = next();
    } else if (a == "--journal-dir") {
      args.opts.journal_dir = next();
    } else if (a == "--autodrive") {
      args.autodrive = true;
    } else if (a == "--pool-configs") {
      args.pool_configs = tools::parse_size_flag(a, next());
    } else if (a == "--rounds-per-slice") {
      args.opts.rounds_per_slice = tools::parse_size_flag(a, next());
    } else if (a == "--fsync-on-commit") {
      // Machine-crash durability: fsync after every journal frame.
      args.opts.sync_on_commit = true;
    } else if (a == "--eval-cache") {
      // Shared cross-tenant evaluation caches, one per pool, in this dir.
      args.opts.eval_cache_dir = next();
    } else if (a == "--metrics-file") {
      // Rewritten on every `metrics` request and at shutdown.
      args.metrics_file = next();
    } else if (a == "--trace-out") {
      // Enables the TraceRecorder; Chrome trace JSON written here at
      // shutdown and by `trace-export`.
      args.trace_out = next();
    } else if (a == "--max-studies") {
      args.opts.max_studies = tools::parse_size_flag(a, next());
    } else if (a == "--auth-file") {
      args.auth_file = next();
    } else if (a == "--quota-fps") {
      args.server.quota.frames_per_sec = tools::parse_double_flag(a, next());
    } else if (a == "--quota-burst") {
      args.server.quota.burst = tools::parse_double_flag(a, next());
    } else if (a == "--quota-studies") {
      args.server.quota.max_studies_per_tenant =
          tools::parse_size_flag(a, next());
    } else if (a == "--max-write-queue") {
      args.server.max_write_queue_bytes = tools::parse_size_flag(a, next());
    } else if (a == "--cluster-file") {
      args.cluster_file = next();
    } else if (a == "--self") {
      args.self_id = next();
    } else if (a == "--peer") {
      args.peer = next();
    } else if (a == "--repl-tenant") {
      args.repl_tenant = tools::parse_u64_flag(a, next());
    } else if (a == "--repl-token") {
      args.repl_token = next();
    } else {
      return usage(a == "--help" || a == "-h" ? 0 : 2);
    }
  }
  if (args.socket_path.empty() && args.tcp_port < 0 &&
      args.cluster_file.empty()) {
    // With --cluster-file the TCP listener can be derived from the roster's
    // entry for --self (below); otherwise a transport must be explicit.
    std::cerr << "error: at least one of --socket / --tcp is required\n";
    return 2;
  }
  if (!args.cluster_file.empty() && !args.peer.empty()) {
    std::cerr << "error: pass at most one of --cluster-file / --peer\n";
    return 2;
  }

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  // A client that disconnects before its response is written must cost an
  // EPIPE on that fd, not the whole multi-tenant daemon.
  std::signal(SIGPIPE, SIG_IGN);
  raise_fd_limit();
  if (!args.trace_out.empty()) {
    obs::TraceRecorder::global().set_enabled(true);
  }

  try {
    if (!args.auth_file.empty()) {
      args.server.auth = net::AuthTable::load(args.auth_file);
    }

    // Cluster mode: load the roster, hold follower replicas, and stream
    // every durable journal mutation to each study's replica peer. The
    // replicator must exist before the manager so the journal sink is wired
    // into every session from the first resumed journal onward.
    std::unique_ptr<cluster::ReplicaStore> replicas;
    std::unique_ptr<cluster::JournalReplicator> replicator;
    std::string cluster_self;
    if (!args.cluster_file.empty() || !args.peer.empty()) {
      cluster::Roster roster;
      if (!args.cluster_file.empty()) {
        if (args.self_id.empty()) {
          std::cerr << "error: --cluster-file requires --self ID\n";
          return 2;
        }
        roster = cluster::Roster::load(args.cluster_file);
        const cluster::ClusterMember* self = roster.find(args.self_id);
        if (self == nullptr) {
          std::cerr << "error: --self '" << args.self_id
                    << "' is not in " << args.cluster_file << "\n";
          return 2;
        }
        cluster_self = args.self_id;
        if (args.tcp_port < 0) {
          args.tcp_host = self->host;
          args.tcp_port = self->port;
        }
      } else {
        // Ad-hoc two-node mode: everything this instance serves replicates
        // to --peer, whatever the hash says — the synthesized two-member
        // roster makes replica_target() always answer "the other one".
        const auto ep = parse_endpoint(args.peer);
        if (!ep.has_value()) {
          std::cerr << "error: bad --peer '" << args.peer
                    << "' (want HOST:PORT)\n";
          return 2;
        }
        cluster_self = "self";
        roster = cluster::Roster(std::vector<cluster::ClusterMember>{
            {"peer", ep->first, ep->second}, {"self", "127.0.0.1", 0}});
      }
      replicas =
          std::make_unique<cluster::ReplicaStore>(args.opts.journal_dir);
      cluster::ReplicatorOptions ropts;
      ropts.self_id = cluster_self;
      ropts.tenant = args.repl_tenant;
      ropts.token = args.repl_token;
      const std::string journal_dir = args.opts.journal_dir;
      ropts.read_journal = [journal_dir](const std::string& study) {
        return Env::real().read_file(journal_dir + "/" + study + ".journal");
      };
      replicator = std::make_unique<cluster::JournalReplicator>(
          std::move(roster), std::move(ropts));
      args.opts.journal_sink =
          [rep = replicator.get()](const std::string& study,
                                   const service::JournalMutation& m) {
            rep->on_mutation(study, m);
          };
    }

    service::StudyManager manager(args.opts);
    manager.register_pool("synth-small",
                          build_synth_pool(args.pool_configs));
    const std::size_t resumed = manager.resume_all();
    if (resumed > 0) {
      std::cerr << "[studyd] resumed " << resumed << " journaled studies\n";
    }
    service::ServiceHandler handler(manager, "synth-small",
                                    args.metrics_file, args.trace_out);
    if (replicas != nullptr) {
      service::ClusterContext cctx;
      cctx.replicas = replicas.get();
      cctx.placement = &replicator->placement();
      cctx.self_id = cluster_self;
      handler.set_cluster(cctx);
      std::cerr << "[studyd] cluster member '" << cluster_self << "' ("
                << replicator->placement().roster().size() << " members, "
                << replicas->list().size() << " replicas held)\n";
    }

    net::EventLoop loop;
    net::Server server(
        loop, std::move(args.server),
        [&handler](const std::string& line, std::uint64_t /*tenant*/,
                   bool* keep_running) {
          return handler.handle(line, keep_running);
        });
    if (!args.socket_path.empty() && !server.listen_unix(args.socket_path)) {
      std::cerr << "error: cannot listen on unix socket "
                << args.socket_path << "\n";
      return 1;
    }
    if (args.tcp_port >= 0 &&
        !server.listen_tcp(args.tcp_host,
                           static_cast<std::uint16_t>(args.tcp_port))) {
      std::cerr << "error: cannot listen on tcp " << args.tcp_host << ":"
                << args.tcp_port << "\n";
      return 1;
    }
    if (!args.port_file.empty()) {
      std::ofstream pf(args.port_file, std::ios::trunc);
      pf << server.tcp_port() << "\n";
      if (!pf) {
        std::cerr << "error: cannot write --port-file " << args.port_file
                  << "\n";
        return 1;
      }
    }
    std::cerr << "[studyd] listening on";
    if (!args.socket_path.empty()) {
      std::cerr << " unix:" << args.socket_path;
    }
    if (args.tcp_port >= 0) {
      std::cerr << " tcp:" << args.tcp_host << ":" << server.tcp_port();
    }
    std::cerr << (args.autodrive ? " (autodrive)" : "") << "\n";

    while (!g_stop && !server.stopping()) {
      // Autodrive paces the scheduler: one fair-share cycle per loop
      // interval keeps the daemon responsive and leaves a wide window for
      // the CI kill/resume smoke test to land mid-study.
      const bool work = args.autodrive && manager.has_runnable();
      const int dispatched = loop.run_once(work ? 20 : 200);
      if (dispatched < 0) break;
      if (work) manager.pump();
    }
    server.shutdown(/*drain_timeout_ms=*/200);
    if (replicator != nullptr) {
      // Best-effort drain so a clean shutdown leaves the follower current;
      // an unreachable peer only costs this timeout.
      replicator->flush(2.0);
      replicator->stop();
    }
    handler.flush_observability();
    std::cerr << "[studyd] shut down\n";
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "fatal: " << ex.what() << "\n";
    return 1;
  }
}
