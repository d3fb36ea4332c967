// serve_1node / serve_2node — loopback ask->tell serving. The daemon is
// hosted in-process, built from the pieces tools/fedtune_studyd.cpp wires
// together: StudyManager + ServiceHandler + net::Server on an EventLoop
// thread, and for the fleet a second member holding ReplicaStore replicas
// fed by the primary's JournalReplicator. One client thread drives one
// connection per tenant in a closed loop over binary frames.
//
// Traced runs wrap the daemon's three public seams: the Server::Handler
// callback, the Env in ManagerOptions::env, and ManagerOptions::journal_sink.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cluster/replica_store.hpp"
#include "cluster/replicator.hpp"
#include "common/env.hpp"
#include "core/config_pool.hpp"
#include "data/synth_image.hpp"
#include "hpo/search_space.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "nn/factory.hpp"
#include "service/service_handler.hpp"
#include "service/study_manager.hpp"

namespace perfbench {

namespace {

using namespace fedtune;

// One connection per core of the 4-core box, one tenant per connection.
constexpr std::size_t kTenants = 4;
// A study is one random search at the paper's fixed budget of K = 16 configs
// (Fig 3, and sim::bootstrap_random_search in the tune_sim workload).
constexpr std::size_t kTrialsPerStudy = 16;
constexpr std::size_t kStatusEvery = 4;
// The unit of measurement is an episode: a fresh daemon (or fleet) serving
// kStudiesPerTenant studies per tenant. The daemon slows as studies
// accumulate (create-study, and the replicator's per-study queues), so a
// fixed-time window would measure a speed-dependent mix of young and old
// daemon; a fixed amount of work per episode does not. peak_rss_mb is read
// at the end of the first episode, after 1024 studies: RSS grows with every
// study served, and a reading at a fixed study count includes that growth
// without moving with throughput.
constexpr std::size_t kStudiesPerTenant = 256;
// Closed-loop load before the measured episodes (whole episodes, at least
// this long), for the loop threads and the CPU clock to settle.
constexpr std::int64_t kWarmupNs = 2'000'000'000;
constexpr int kSetupReps = 11;
constexpr std::int64_t kRequestTimeoutNs = 10'000'000'000;
constexpr std::size_t kCodecSamples = 4096;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The objective a tenant reports: a pure function of (seed, tenant, study,
// trial id).
double objective(std::uint64_t seed, std::uint64_t tenant, std::uint64_t study,
                 int trial_id) {
  const std::uint64_t h =
      mix64(mix64(seed) ^ (tenant << 48) ^ (study << 20) ^
            static_cast<std::uint64_t>(trial_id));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string study_name(std::uint64_t tenant, std::uint64_t study) {
  return "t" + std::to_string(tenant) + "-s" + std::to_string(study);
}

// ------------------------------------------------------------ traced seams

// The request being handled on this thread, so journal appends and sink
// calls made inside ServiceHandler::handle share its span id.
thread_local std::uint64_t t_request_id = 0;

struct Probe {
  explicit Probe(Tracer& t) : tracer(t) {}
  Tracer& tracer;
  // Per-tenant handle time of the last request, read by the client to split
  // its round trip into handler and outside-handler time.
  std::array<std::atomic<std::int64_t>, kTenants + 1> handle_ns{};
  std::array<std::uint64_t, kTenants + 1> server_seq{};  // loop thread only
  std::atomic<std::uint64_t> journal_appends{0};
  std::atomic<std::uint64_t> journal_bytes{0};
  // Replication: sink time of each mutation by study until the follower
  // handles the repl-append covering it.
  std::mutex mu;
  std::map<std::string, std::deque<std::pair<std::uint64_t, std::int64_t>>>
      pending;
  std::vector<double> lag_ms;
  std::vector<double> frames_per_batch;
  std::uint64_t repl_wire_bytes = 0;
  std::uint64_t repl_journal_bytes = 0;
};

class TimingFile final : public WritableFile {
 public:
  TimingFile(std::unique_ptr<WritableFile> base, Probe& probe)
      : base_(std::move(base)), probe_(probe) {}
  void append(std::string_view data) override {
    const std::int64_t t0 = now_ns();
    base_->append(data);
    probe_.tracer.record("service.journal_append", t_request_id, t0, now_ns());
    probe_.journal_appends.fetch_add(1, std::memory_order_relaxed);
    probe_.journal_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  }
  void sync() override { base_->sync(); }
  void close() override { base_->close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  Probe& probe_;
};

class TimingEnv final : public Env {
 public:
  explicit TimingEnv(Probe& probe) : base_(Env::real()), probe_(probe) {}
  std::unique_ptr<WritableFile> open_writable(const std::string& path,
                                              WriteMode mode) override {
    return std::make_unique<TimingFile>(base_.open_writable(path, mode), probe_);
  }
  std::string read_file(const std::string& path) override {
    return base_.read_file(path);
  }
  bool exists(const std::string& path) override { return base_.exists(path); }
  std::uint64_t file_size(const std::string& path) override {
    return base_.file_size(path);
  }
  void rename_file(const std::string& from, const std::string& to) override {
    base_.rename_file(from, to);
  }
  void remove_file(const std::string& path) override { base_.remove_file(path); }
  void truncate_file(const std::string& path, std::uint64_t size) override {
    base_.truncate_file(path, size);
  }
  void create_directories(const std::string& path) override {
    base_.create_directories(path);
  }
  std::vector<std::string> list_dir(const std::string& path) override {
    return base_.list_dir(path);
  }

 private:
  Env& base_;
  Probe& probe_;
};

const char* handle_span(const std::string& line) {
  const std::string verb = line.substr(0, line.find(' '));
  if (verb == "ask") return "service.handle.ask";
  if (verb == "tell") return "service.handle.tell";
  if (verb == "status") return "service.handle.status";
  if (verb == "best") return "service.handle.best";
  if (verb == "create-study") return "service.handle.create-study";
  if (verb == "suspend") return "service.handle.suspend";
  return "service.handle.other";
}

// Commits the file system holding `dir`. The journals of a run are tens of
// thousands of small files; without this their creation and deletion is
// still being committed when the next run starts, and slows it.
void sync_fs(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// Pins the calling thread to one CPU (modulo the CPUs available).
void pin_to_cpu(unsigned cpu) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % n, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

// ------------------------------------------------------------------ daemon

// The candidate pool fedtune_studyd builds and registers at start-up (its
// --pool-configs default of 8). External studies do not evaluate on it, but
// building it is part of what a daemon start costs.
std::shared_ptr<const service::PoolResources> build_synth_pool() {
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
  opts.num_configs = 8;
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

// One fleet member: the studyd wiring with an in-process loop thread.
struct Node {
  std::string journal_dir;
  std::unique_ptr<TimingEnv> env;
  std::unique_ptr<cluster::ReplicaStore> replicas;
  std::unique_ptr<cluster::JournalReplicator> replicator;
  std::unique_ptr<service::StudyManager> manager;
  std::unique_ptr<service::ServiceHandler> handler;
  net::EventLoop loop;
  std::unique_ptr<net::Server> server;
  std::atomic<bool> stop{false};
  std::thread thread;

  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node() { shutdown(); }

  // The loop thread polls without blocking, as the client thread does, so
  // neither waits on the wake-up of a sleeping vCPU.
  void start_loop(unsigned cpu) {
    thread = std::thread([this, cpu] {
      pin_to_cpu(cpu);
      while (!stop.load(std::memory_order_relaxed)) loop.run_once(0);
    });
  }
  void stop_loop() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
  void shutdown() {
    stop_loop();
    if (server) server->shutdown();
    if (replicator) replicator->stop();
  }
};

// Binds `node`'s listener with a handler that forwards to node.handler
// (constructed later, before the loop thread starts).
bool bind_listener(Node& node, Probe* probe, bool follower) {
  net::Server::Handler h;
  if (probe == nullptr) {
    h = [&node](const std::string& line, std::uint64_t, bool* keep) {
      return node.handler->handle(line, keep);
    };
  } else if (!follower) {
    h = [&node, probe](const std::string& line, std::uint64_t tenant,
                       bool* keep) {
      const std::uint64_t t = std::min<std::uint64_t>(tenant, kTenants);
      const std::uint64_t id = (tenant << 40) | probe->server_seq[t]++;
      t_request_id = id;
      const std::int64_t t0 = now_ns();
      std::string response = node.handler->handle(line, keep);
      const std::int64_t t1 = now_ns();
      t_request_id = 0;
      probe->tracer.record(handle_span(line), id, t0, t1);
      probe->handle_ns[t].store(t1 - t0, std::memory_order_release);
      return response;
    };
  } else {
    h = [&node, probe](const std::string& line, std::uint64_t, bool* keep) {
      const std::int64_t t0 = now_ns();
      std::string response = node.handler->handle(line, keep);
      const std::int64_t t1 = now_ns();
      if (line.rfind("repl-append ", 0) != 0) return response;
      // repl-append STUDY BASE_OFFSET HEXBYTES
      const std::size_t s0 = line.find(' ') + 1;
      const std::size_t s1 = line.find(' ', s0);
      const std::size_t s2 = line.find(' ', s1 + 1);
      const std::string study = line.substr(s0, s1 - s0);
      const std::uint64_t base = std::stoull(line.substr(s1 + 1, s2 - s1 - 1));
      const std::uint64_t bytes = (line.size() - s2 - 1) / 2;
      probe->tracer.record("cluster.repl_handle", base, t0, t1);
      std::lock_guard<std::mutex> lock(probe->mu);
      probe->repl_wire_bytes += net::kFrameHeaderSize + line.size() - s0;
      probe->repl_journal_bytes += bytes;
      auto& q = probe->pending[study];
      std::size_t frames = 0;
      while (!q.empty() && q.front().first <= base + bytes) {
        probe->lag_ms.push_back(static_cast<double>(t1 - q.front().second) * 1e-6);
        q.pop_front();
        ++frames;
      }
      probe->frames_per_batch.push_back(static_cast<double>(frames));
      return response;
    };
  }
  node.server = std::make_unique<net::Server>(node.loop, net::ServerOptions{},
                                              std::move(h));
  return node.server->listen_tcp("127.0.0.1", 0);
}

struct Fleet {
  std::unique_ptr<Node> a;  // serves the tenants
  std::unique_ptr<Node> b;  // follower (two-node fleet only)
  ~Fleet() {
    // The primary streams to the follower until it stops.
    if (a) a->shutdown();
    if (b) b->shutdown();
  }
};

std::unique_ptr<Fleet> start_fleet(const std::string& dir, bool two_nodes,
                                   Probe* probe) {
  auto fleet = std::make_unique<Fleet>();
  if (two_nodes) {
    fleet->b = std::make_unique<Node>();
    Node& b = *fleet->b;
    b.journal_dir = dir + "/b";
    b.replicas = std::make_unique<cluster::ReplicaStore>(b.journal_dir);
    service::ManagerOptions mo;
    mo.journal_dir = b.journal_dir;
    b.manager = std::make_unique<service::StudyManager>(mo);
    b.manager->register_pool("synth-small", build_synth_pool());
    b.handler = std::make_unique<service::ServiceHandler>(*b.manager, "synth-small");
    b.handler->set_cluster({b.replicas.get(), nullptr, "b"});
    if (!bind_listener(b, probe, /*follower=*/true)) throw std::runtime_error("listen b");
  }
  fleet->a = std::make_unique<Node>();
  Node& a = *fleet->a;
  a.journal_dir = dir + "/a";
  if (!bind_listener(a, probe, /*follower=*/false)) throw std::runtime_error("listen a");
  service::ManagerOptions mo;
  mo.journal_dir = a.journal_dir;
  if (probe != nullptr) {
    a.env = std::make_unique<TimingEnv>(*probe);
    mo.env = a.env.get();
  }
  if (two_nodes) {
    cluster::Roster roster(std::vector<cluster::ClusterMember>{
        {"a", "127.0.0.1", a.server->tcp_port()},
        {"b", "127.0.0.1", fleet->b->server->tcp_port()}});
    cluster::ReplicatorOptions ro;
    ro.self_id = "a";
    const std::string journal_dir = a.journal_dir;
    ro.read_journal = [journal_dir](const std::string& study) {
      return Env::real().read_file(journal_dir + "/" + study + ".journal");
    };
    a.replicator =
        std::make_unique<cluster::JournalReplicator>(std::move(roster), std::move(ro));
    a.replicas = std::make_unique<cluster::ReplicaStore>(a.journal_dir);
    cluster::JournalReplicator* rep = a.replicator.get();
    if (probe == nullptr) {
      mo.journal_sink = [rep](const std::string& study,
                              const service::JournalMutation& m) {
        rep->on_mutation(study, m);
      };
    } else {
      mo.journal_sink = [rep, probe](const std::string& study,
                                     const service::JournalMutation& m) {
        const std::int64_t t0 = now_ns();
        {
          std::lock_guard<std::mutex> lock(probe->mu);
          probe->pending[study].emplace_back(m.offset + m.bytes.size(), t0);
        }
        const std::int64_t t1 = now_ns();
        rep->on_mutation(study, m);
        probe->tracer.record("cluster.sink", t_request_id, t1, now_ns());
      };
    }
  }
  a.manager = std::make_unique<service::StudyManager>(mo);
  a.manager->register_pool("synth-small", build_synth_pool());
  a.handler = std::make_unique<service::ServiceHandler>(*a.manager, "synth-small");
  if (two_nodes) {
    a.handler->set_cluster({a.replicas.get(), &a.replicator->placement(), "a"});
    fleet->b->start_loop(2);
  }
  a.start_loop(1);
  return fleet;
}

// ------------------------------------------------------------------ client

// One traced ask->tell cycle: the client's total and its two requests' round
// trips and handle times. Whatever the round trips leave of the total is
// client time (the gap between the ask reply and the tell send).
struct Cycle {
  std::int64_t total_ns = 0;
  std::int64_t ask_rtt_ns = 0;
  std::int64_t ask_handle_ns = 0;
  std::int64_t tell_rtt_ns = 0;
  std::int64_t tell_handle_ns = 0;
};

enum class Step { kIdle, kPing, kCreate, kAsk, kTell, kStatus, kBest, kSuspend, kDone };

struct SentTrial {
  int id = 0;
  double objective = 0.0;
};

struct FinishedStudy {
  std::string name;
  std::vector<SentTrial> trials;
};

struct Tenant {
  std::uint64_t id = 0;
  int fd = -1;
  std::string in;
  Step step = Step::kIdle;
  std::uint64_t study = 0;
  std::vector<SentTrial> trials;
  std::uint64_t seq = 0;  // requests sent; matches the server's count
  std::uint64_t ask_seq = 0;
  std::int64_t sent_ns = 0;
  std::int64_t ask_ns = 0;
  // Round trip and handle time of the last response (traced runs), and of
  // the ask of the cycle in flight.
  std::int64_t rtt_ns = 0;
  std::int64_t handle_ns = 0;
  std::int64_t ask_rtt_ns = 0;
  std::int64_t ask_handle_ns = 0;
  const char* phase = "setup";  // of the request in flight
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// What the measured episodes of a run collect, across their clients.
struct Samples {
  std::vector<double> ask_tell_us;
  std::vector<double> outside_us;  // traced runs
  std::vector<Cycle> cycles;       // traced runs
  std::vector<net::Frame> codec_sample;
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  // [start, end) of every measured episode.
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
};

// One client thread driving one connection per tenant against one fleet.
class Client {
 public:
  Client(std::uint64_t seed, std::uint16_t port, Probe* probe, Result& r,
         Samples& samples)
      : seed_(seed), probe_(probe), r_(r), samples_(samples) {
    for (std::uint64_t t = 1; t <= kTenants; ++t) {
      Tenant tenant;
      tenant.id = t;
      tenant.fd = connect_to(port);
      tenants_.push_back(std::move(tenant));
    }
  }
  ~Client() {
    for (Tenant& t : tenants_) {
      if (t.fd >= 0) ::close(t.fd);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Every tenant pings; true once all are answered (the daemon accepts).
  bool ready() {
    for (Tenant& t : tenants_) {
      if (t.fd < 0) return false;
      t.step = Step::kPing;
      send(t, "ping", "");
    }
    return drive([this] { return all_idle(Step::kIdle); });
  }

  // One episode: each tenant runs kStudiesPerTenant studies in a closed
  // loop. Returns the episode's [start, end) and counts its trials.
  std::pair<std::int64_t, std::int64_t> run_episode(bool measured) {
    measured_ = measured;
    phase_ = measured ? "measure" : "warmup";
    const std::int64_t start = now_ns();
    for (Tenant& t : tenants_) {
      if (t.fd >= 0) begin_create(t);
    }
    drive([this] { return all_idle(Step::kDone); });
    return {start, now_ns()};
  }

  std::uint64_t trials() const { return trials_; }
  const std::vector<FinishedStudy>& finished() const { return finished_; }

 private:
  bool all_idle(Step s) const {
    for (const Tenant& t : tenants_) {
      if (t.fd >= 0 && t.step != s) return false;
    }
    return true;
  }

  template <typename Done>
  bool drive(Done&& done) {
    std::vector<pollfd> fds(tenants_.size());
    while (!done()) {
      std::size_t live = 0;
      for (std::size_t i = 0; i < tenants_.size(); ++i) {
        fds[i] = {tenants_[i].fd, POLLIN, 0};
        if (tenants_[i].fd >= 0) ++live;
      }
      if (live == 0) return false;
      const int n = ::poll(fds.data(), fds.size(), 0);
      if (n < 0 && errno != EINTR) return false;
      const std::int64_t now = now_ns();
      for (std::size_t i = 0; i < tenants_.size(); ++i) {
        Tenant& t = tenants_[i];
        if (t.fd < 0) continue;
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
          receive(t);
        } else if (t.step != Step::kIdle && t.step != Step::kDone &&
                   now - t.sent_ns > kRequestTimeoutNs) {
          ++r_.phases[t.phase].timed_out;
          drop(t);
        }
      }
    }
    return true;
  }

  void drop(Tenant& t) {
    ++r_.failed;
    ::close(t.fd);
    t.fd = -1;
  }

  void send(Tenant& t, const char* verb, const std::string& args) {
    net::Frame f;
    f.opcode = *net::opcode_for_verb(verb);
    f.tenant = t.id;
    f.payload = args;
    const std::string bytes = net::encode_frame(f);
    t.phase = phase_;
    if (measured_) {
      if (samples_.codec_sample.size() < kCodecSamples) {
        samples_.codec_sample.push_back(f);
      }
      ++samples_.requests;
      samples_.bytes += bytes.size();
    }
    ++t.seq;
    ++r_.attempted;
    ++r_.phases[t.phase].sent;
    t.sent_ns = now_ns();
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(t.fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ++r_.phases[t.phase].dropped;
        drop(t);
        return;
      }
      off += static_cast<std::size_t>(n);
    }
  }

  void receive(Tenant& t) {
    char buf[4096];
    const ssize_t n = ::recv(t.fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) return;
      ++r_.phases[t.phase].dropped;
      drop(t);
      return;
    }
    t.in.append(buf, static_cast<std::size_t>(n));
    if (measured_) samples_.bytes += static_cast<std::size_t>(n);
    for (;;) {
      const net::DecodeResult d = net::decode_frame(t.in);
      if (d.status == net::DecodeStatus::kNeedMore) return;
      if (d.status == net::DecodeStatus::kBad) {
        ++r_.phases[t.phase].dropped;
        drop(t);
        return;
      }
      t.in.erase(0, d.consumed);
      const std::int64_t now = now_ns();
      Accounting& acct = r_.phases[t.phase];
      if (d.frame.opcode != net::Opcode::kOk) {
        ++acct.err;
        if (r_.check_failures.size() < 20) {
          r_.check_failures.push_back("err response: " + d.frame.payload);
        }
        drop(t);
        return;
      }
      ++acct.ok;
      if (probe_ != nullptr) {
        const std::uint64_t id = (t.id << 40) | (t.seq - 1);
        probe_->tracer.record("client.request", id, t.sent_ns, now);
        t.rtt_ns = now - t.sent_ns;
        t.handle_ns = probe_->handle_ns[t.id].load(std::memory_order_acquire);
        if (measured_) {
          samples_.outside_us.push_back(
              static_cast<double>(t.rtt_ns - t.handle_ns) * 1e-3);
        }
      }
      on_response(t, d.frame.payload, now);
      if (t.fd < 0) return;
    }
  }

  void on_response(Tenant& t, const std::string& payload, std::int64_t now) {
    switch (t.step) {
      case Step::kPing:
        t.step = Step::kIdle;
        return;
      case Step::kIdle:
      case Step::kDone:
        return;
      case Step::kCreate:
        begin_ask(t);
        return;
      case Step::kAsk: {
        const std::size_t at = payload.find("id=");
        const int id = at == std::string::npos ? -1 : std::atoi(payload.c_str() + at + 3);
        const double obj = objective(seed_, t.id, t.study, id);
        t.trials.push_back({id, obj});
        t.ask_rtt_ns = t.rtt_ns;
        t.ask_handle_ns = t.handle_ns;
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", obj);
        t.step = Step::kTell;
        send(t, "tell", study_name(t.id, t.study) + " " + std::to_string(id) +
                            " " + buf);
        return;
      }
      case Step::kTell:
        ++trials_;
        if (measured_) {
          samples_.ask_tell_us.push_back(static_cast<double>(now - t.ask_ns) * 1e-3);
          if (probe_ != nullptr) {
            probe_->tracer.record("client.ask_tell", (t.id << 40) | t.ask_seq,
                                  t.ask_ns, now);
            samples_.cycles.push_back({now - t.ask_ns, t.ask_rtt_ns,
                                       t.ask_handle_ns, t.rtt_ns, t.handle_ns});
          }
        }
        if (t.trials.size() % kStatusEvery == 0) {
          t.step = Step::kStatus;
          send(t, "status", study_name(t.id, t.study));
          return;
        }
        begin_ask(t);
        return;
      case Step::kStatus:
        if (t.trials.size() < kTrialsPerStudy) {
          begin_ask(t);
        } else {
          t.step = Step::kBest;
          send(t, "best", study_name(t.id, t.study));
        }
        return;
      case Step::kBest:
        t.step = Step::kSuspend;
        send(t, "suspend", study_name(t.id, t.study));
        return;
      case Step::kSuspend:
        finished_.push_back({study_name(t.id, t.study), std::move(t.trials)});
        t.trials.clear();
        ++t.study;
        if (t.study == kStudiesPerTenant) {
          t.step = Step::kDone;
          return;
        }
        begin_create(t);
        return;
    }
  }

  void begin_create(Tenant& t) {
    t.step = Step::kCreate;
    const std::string n = std::to_string(kTrialsPerStudy);
    send(t, "create-study",
         study_name(t.id, t.study) + " external seed=" +
             std::to_string(mix64(seed_ ^ (t.id << 32) ^ t.study) >> 16) +
             " configs=" + n + " max-trials=" + n);
  }

  void begin_ask(Tenant& t) {
    t.step = Step::kAsk;
    t.ask_ns = now_ns();
    t.ask_seq = t.seq;
    send(t, "ask", study_name(t.id, t.study));
  }

  std::uint64_t seed_;
  Probe* probe_;
  Result& r_;
  Samples& samples_;
  std::vector<Tenant> tenants_;
  bool measured_ = false;
  const char* phase_ = "setup";
  std::uint64_t trials_ = 0;
  std::vector<FinishedStudy> finished_;
};

// ------------------------------------------------------------------ checks

// Each finished study's trace (ServiceHandler::format_trace after a journal
// resume) lists exactly the trials and objectives the tenant sent.
void check_traces(Node& a, const std::vector<FinishedStudy>& finished,
                  Result& r) {
  for (const FinishedStudy& f : finished) {
    ++r.attempted;
    bool ok = false;
    try {
      const service::StudySession& s = a.manager->resume_study(f.name);
      const std::string trace = service::ServiceHandler::format_trace(s);
      const std::string expected = "n=" + std::to_string(f.trials.size()) + " ";
      std::size_t pos = trace.find(' ');
      ok = trace.rfind(expected, 0) == 0;
      for (const SentTrial& t : f.trials) {
        if (!ok || pos == std::string::npos) break;
        const std::size_t end = trace.find(' ', pos + 1);
        const std::string item = trace.substr(pos + 1, end - pos - 1);
        // id:config_index:target_rounds:noisy:full:cumulative_rounds
        std::vector<std::string> parts;
        std::size_t start = 0;
        for (std::size_t c; (c = item.find(':', start)) != std::string::npos;
             start = c + 1) {
          parts.push_back(item.substr(start, c - start));
        }
        parts.push_back(item.substr(start));
        const std::string obj = hex_double(t.objective);
        ok = parts.size() == 6 && parts[0] == std::to_string(t.id) &&
             parts[3] == obj && parts[4] == obj;
        pos = end;
      }
      a.manager->suspend_study(f.name);
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) r.fail_check(f.name + ": trace does not match the objectives sent");
  }
}

// After a flush every follower replica equals its primary journal.
void check_replicas(Fleet& fleet, const std::vector<FinishedStudy>& finished,
                    Result& r) {
  if (!fleet.a->replicator->flush(30.0)) {
    r.fail_check("replication did not drain within 30 s");
    return;
  }
  for (const FinishedStudy& f : finished) {
    ++r.attempted;
    try {
      const std::string primary =
          Env::real().read_file(fleet.a->manager->journal_path(f.name));
      const std::string replica =
          Env::real().read_file(fleet.b->replicas->replica_path(f.name));
      if (primary != replica) r.fail_check(f.name + ": replica differs");
    } catch (const std::exception& ex) {
      r.fail_check(f.name + ": " + ex.what());
    }
  }
}

// ----------------------------------------------------------------- metrics

// Durations in microseconds of the spans named `name` that start inside a
// measured episode.
std::vector<double> window_us(const Tracer& tracer, const char* name,
                              const Samples& samples) {
  std::vector<double> out;
  for (const auto& s : tracer.spans(name)) {
    for (const auto& [lo, hi] : samples.windows) {
      if (s.start_ns >= lo && s.start_ns < hi) {
        out.push_back(s.dur_ns * 1e-3);
        break;
      }
    }
  }
  return out;
}

void traced_metrics(const Tracer& tracer, Probe& probe, const Samples& samples,
                    std::uint64_t trials, bool two_nodes, Metrics& m) {
  double wall_s = 0.0;
  for (const auto& [lo, hi] : samples.windows) wall_s += static_cast<double>(hi - lo) * 1e-9;
  double handle_total_us = 0.0;
  for (const char* verb : {"ask", "tell", "status", "best", "create-study",
                           "suspend"}) {
    const std::string span = std::string("service.handle.") + verb;
    const std::vector<double> us = window_us(tracer, span.c_str(), samples);
    for (double u : us) handle_total_us += u;
    m["service.handle_us." + std::string(verb)] = {median(us), "us"};
  }
  m["service.handle_busy_share"] = {handle_total_us * 1e-6 / wall_s, "1"};
  const double outside = median(samples.outside_us);
  m["net.outside_handler_us"] = {outside, "us"};
  m["net.waterfall_over_rtt"] = {
      (m["service.handle_us.ask"].value + m["service.handle_us.tell"].value +
       2.0 * outside) /
          median(samples.ask_tell_us),
      "1"};
  // The same decomposition per cycle: handle + outside-handler time of the
  // ask and the tell is their two round trips; the rest is client time.
  std::vector<double> gap_us, span_share;
  for (const Cycle& c : samples.cycles) {
    const std::int64_t spans = c.ask_rtt_ns + c.tell_rtt_ns;
    gap_us.push_back(static_cast<double>(c.total_ns - spans) * 1e-3);
    span_share.push_back(static_cast<double>(spans) / static_cast<double>(c.total_ns));
  }
  m["net.client_gap_us"] = {median(gap_us), "us"};
  m["net.cycle_span_share"] = {median(span_share), "1"};
  std::vector<double> codec;
  for (const net::Frame& f : samples.codec_sample) {
    const std::int64_t t0 = now_ns();
    const std::string wire = net::encode_frame(f);
    const net::DecodeResult d = net::decode_frame(wire);
    codec.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    if (d.status != net::DecodeStatus::kFrame) codec.back() = -1.0;
  }
  m["net.codec_us"] = {median(codec), "us"};
  m["net.bytes_per_request"] = {
      static_cast<double>(samples.bytes) /
          static_cast<double>(std::max<std::uint64_t>(1, samples.requests)),
      "B"};
  const std::vector<double> append =
      window_us(tracer, "service.journal_append", samples);
  m["service.journal_append_us.p50"] = {quantile(append, 0.5), "us"};
  m["service.journal_append_us.p99"] = {quantile(append, 0.99), "us"};
  // Appends and trials of every episode, warm-up included.
  const double all_trials = static_cast<double>(std::max<std::uint64_t>(1, trials));
  m["service.journal_appends_per_trial"] = {
      static_cast<double>(probe.journal_appends.load()) / all_trials, "1"};
  m["service.journal_bytes_per_trial"] = {
      static_cast<double>(probe.journal_bytes.load()) / all_trials, "B"};
  if (!two_nodes) return;
  const std::vector<double> sink = window_us(tracer, "cluster.sink", samples);
  m["cluster.sink_us.p50"] = {quantile(sink, 0.5), "us"};
  m["cluster.sink_us.p99"] = {quantile(sink, 0.99), "us"};
  m["cluster.repl_handle_us"] = {
      median(window_us(tracer, "cluster.repl_handle", samples)), "us"};
  std::lock_guard<std::mutex> lock(probe.mu);
  m["cluster.repl_wire_bytes_per_journal_byte"] = {
      static_cast<double>(probe.repl_wire_bytes) /
          static_cast<double>(std::max<std::uint64_t>(1, probe.repl_journal_bytes)),
      "1"};
  double frames = 0.0;
  for (double f : probe.frames_per_batch) frames += f;
  m["cluster.repl_frames_per_batch"] = {
      frames / static_cast<double>(std::max<std::size_t>(1, probe.frames_per_batch.size())),
      "1"};
  m["cluster.repl_lag_ms.p50"] = {quantile(probe.lag_ms, 0.5), "ms"};
  m["cluster.repl_lag_ms.p99"] = {quantile(probe.lag_ms, 0.99), "ms"};
}

}  // namespace

Result run_serve(const RunOptions& opts, bool two_nodes) {
  Result r;
  r.op_metric = "trials_per_s";
  r.latency_metric = "ask_tell";
  namespace fs = std::filesystem;
  std::unique_ptr<Probe> probe;
  if (opts.tracer != nullptr) probe = std::make_unique<Probe>(*opts.tracer);
  Samples samples;
  const std::string dir = opts.scratch_dir + "/serve";

  // Daemon (and fleet) start-up until every tenant's connection is served.
  sync_fs(opts.scratch_dir);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fs::remove_all(dir);
    const double t0 = now_s();
    std::unique_ptr<Fleet> fleet = start_fleet(dir, two_nodes, nullptr);
    Client client(opts.seed, fleet->a->server->tcp_port(), nullptr, r, samples);
    if (!client.ready()) throw std::runtime_error("daemon did not answer");
    r.setup_s.push_back(now_s() - t0);
  }

  // The client runs on CPU 0, the loops on 1 and 2: left to the scheduler,
  // where these ping-ponging threads land moved throughput between runs by
  // twice as much.
  cpu_set_t saved;
  ::sched_getaffinity(0, sizeof(saved), &saved);
  pin_to_cpu(0);
  std::uint64_t trials = 0;
  std::int64_t warm_ns = 0, measured_ns = 0;
  const std::int64_t window_ns = static_cast<std::int64_t>(opts.seconds * 1e9);
  for (int episode = 0; r.slices.empty() || measured_ns < window_ns; ++episode) {
    const bool measured = warm_ns >= kWarmupNs;
    fs::remove_all(dir);
    sync_fs(opts.scratch_dir);
    if (probe) {
      probe->server_seq.fill(0);
      std::lock_guard<std::mutex> lock(probe->mu);
      probe->pending.clear();
    }
    std::unique_ptr<Fleet> fleet = start_fleet(dir, two_nodes, probe.get());
    Client client(opts.seed, fleet->a->server->tcp_port(), probe.get(), r, samples);
    if (!client.ready()) throw std::runtime_error("daemon did not answer");
    const double rss_before = current_rss_mib();
    const auto [start, end] = client.run_episode(measured);
    trials += client.trials();
    if (episode == 0) {
      r.peak_rss_mb = peak_rss_mib();
      if (probe) {
        r.layer["service.rss_kib_per_study"] = {
            (current_rss_mib() - rss_before) * 1024.0 /
                static_cast<double>(std::max<std::size_t>(1, client.finished().size())),
            "KiB"};
      }
    }
    if (measured) {
      measured_ns += end - start;
      samples.windows.emplace_back(start, end);
      r.slices.push_back({client.trials(), static_cast<double>(end - start) * 1e-9});
    } else {
      warm_ns += end - start;
    }
    if (two_nodes) check_replicas(*fleet, client.finished(), r);
    fleet->a->shutdown();
    if (two_nodes) fleet->b->shutdown();
    check_traces(*fleet->a, client.finished(), r);
  }
  ::sched_setaffinity(0, sizeof(saved), &saved);
  r.latency_us = samples.ask_tell_us;
  if (probe) traced_metrics(*opts.tracer, *probe, samples, trials, two_nodes, r.layer);
  fs::remove_all(dir);
  sync_fs(opts.scratch_dir);
  return r;
}

}  // namespace perfbench
