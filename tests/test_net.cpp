// Networked StudyService tests: frame codec round-trip and corruption
// rejection, partial-input framing over TCP and Unix, the client's
// failure classification, auth and per-tenant quota enforcement at the
// connection layer, slow-reader backpressure disconnects that leave other
// tenants bitwise-unperturbed, cross-transport determinism for external
// ask/tell studies, and kill/resume of TCP-served managed studies at
// several interruption points.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config_pool.hpp"
#include "hpo/search_space.hpp"
#include "net/client.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/quota.hpp"
#include "net/server.hpp"
#include "nn/factory.hpp"
#include "obs/metrics.hpp"
#include "service/service_handler.hpp"
#include "service/study_manager.hpp"
#include "test_util.hpp"

namespace fedtune::net {
namespace {

using testutil::loopback;
using testutil::TestClient;

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameCodec, RoundTripAndIncrementalDecode) {
  Frame f;
  f.opcode = Opcode::kTell;
  f.tenant = 42;
  f.payload = "s1 7 0x1.8p-1";
  const std::string wire = encode_frame(f);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + f.payload.size());
  // The first wire byte is non-ASCII by design: stray text fails on it.
  EXPECT_EQ(static_cast<unsigned char>(wire[0]), 0xCFu);

  // Every proper prefix is kNeedMore; the full buffer decodes exactly.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const DecodeResult r = decode_frame(std::string_view(wire).substr(0, len));
    ASSERT_EQ(r.status, DecodeStatus::kNeedMore) << "prefix " << len;
  }
  const DecodeResult r = decode_frame(wire);
  ASSERT_EQ(r.status, DecodeStatus::kFrame);
  EXPECT_EQ(r.consumed, wire.size());
  EXPECT_EQ(r.frame.opcode, Opcode::kTell);
  EXPECT_EQ(r.frame.tenant, 42u);
  EXPECT_EQ(r.frame.payload, f.payload);
  EXPECT_EQ(r.frame.version, kFrameVersion);

  // Empty payload round-trips too.
  Frame ping;
  ping.opcode = Opcode::kPing;
  const DecodeResult rp = decode_frame(encode_frame(ping));
  ASSERT_EQ(rp.status, DecodeStatus::kFrame);
  EXPECT_EQ(rp.frame.opcode, Opcode::kPing);
  EXPECT_TRUE(rp.frame.payload.empty());

  // Two back-to-back frames: the first decode consumes exactly one.
  const std::string both = wire + encode_frame(ping);
  const DecodeResult r1 = decode_frame(both);
  ASSERT_EQ(r1.status, DecodeStatus::kFrame);
  EXPECT_EQ(r1.consumed, wire.size());
}

TEST(FrameCodec, RejectsCorruption) {
  Frame f;
  f.opcode = Opcode::kStatus;
  f.tenant = 3;
  f.payload = "study-name";
  const std::string wire = encode_frame(f);

  // Text bytes are not a valid frame prefix: fail fast, byte one.
  EXPECT_EQ(decode_frame("ping\n").status, DecodeStatus::kBad);

  // Wrong magic byte.
  std::string bad = wire;
  bad[1] ^= 0x01;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBad);

  // Unknown version.
  bad = wire;
  bad[4] = static_cast<char>(kFrameVersion + 1);
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBad);

  // Nonzero reserved field.
  bad = wire;
  bad[6] = 0x01;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBad);

  // Declared payload above the cap is rejected from the header alone —
  // before any payload bytes arrive.
  bad = wire;
  bad[16] = static_cast<char>(0xFF);
  bad[17] = static_cast<char>(0xFF);
  bad[18] = static_cast<char>(0xFF);
  bad[19] = 0x00;
  EXPECT_EQ(decode_frame(bad.substr(0, kFrameHeaderSize)).status,
            DecodeStatus::kBad);

  // Payload corruption trips the CRC.
  bad = wire;
  bad[kFrameHeaderSize] ^= 0x20;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBad);

  // Truncated payload is incomplete, not corrupt.
  EXPECT_EQ(decode_frame(wire.substr(0, wire.size() - 3)).status,
            DecodeStatus::kNeedMore);

  // A frame legal under the default cap but above a caller's smaller cap.
  EXPECT_EQ(decode_frame(wire, /*max_payload=*/4).status, DecodeStatus::kBad);
}

TEST(FrameCodec, VerbOpcodeTableIsABijection) {
  for (const Opcode op :
       {Opcode::kPing, Opcode::kList, Opcode::kPump, Opcode::kCacheStats,
        Opcode::kMetrics, Opcode::kShutdown, Opcode::kCreateStudy,
        Opcode::kAsk, Opcode::kTell, Opcode::kStatus, Opcode::kBest,
        Opcode::kTrace, Opcode::kSuspend, Opcode::kResume, Opcode::kDrive,
        Opcode::kTraceExport, Opcode::kHello}) {
    const char* verb = verb_for_opcode(op);
    ASSERT_NE(verb, nullptr) << static_cast<int>(op);
    const auto back = opcode_for_verb(verb);
    ASSERT_TRUE(back.has_value()) << verb;
    EXPECT_EQ(*back, op) << verb;
  }
  EXPECT_EQ(verb_for_opcode(Opcode::kOk), nullptr);
  EXPECT_EQ(verb_for_opcode(Opcode::kErr), nullptr);
  EXPECT_FALSE(opcode_for_verb("no-such-verb").has_value());
}

// ---------------------------------------------------------------------------
// Quotas and auth primitives

TEST(TokenBucket, EnforcesRateAgainstInjectedClock) {
  TokenBucket bucket(/*capacity=*/2.0, /*refill_per_sec=*/1.0, /*now_s=*/0.0);
  EXPECT_TRUE(bucket.try_consume(0.0));
  EXPECT_TRUE(bucket.try_consume(0.0));
  EXPECT_FALSE(bucket.try_consume(0.0));  // burst exhausted
  EXPECT_FALSE(bucket.try_consume(0.5));  // half a token refilled: not enough
  EXPECT_TRUE(bucket.try_consume(1.5));   // 1.5 tokens refilled
  EXPECT_FALSE(bucket.try_consume(1.5));
  // Refill is capped at capacity: a long idle period grants at most burst.
  EXPECT_TRUE(bucket.try_consume(100.0));
  EXPECT_TRUE(bucket.try_consume(100.0));
  EXPECT_FALSE(bucket.try_consume(100.0));
}

TEST(TokenBucket, NonPositiveRateIsUnlimited) {
  TokenBucket bucket(0.0, 0.0, 0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.try_consume(0.0));
}

// A positive rate with zero burst used to reject every request forever:
// the bucket could never accumulate a token past its own zero cap. The
// capacity is now clamped to one token, so the configured RATE still
// applies but the bucket is usable.
TEST(TokenBucket, ZeroBurstWithPositiveRateClampsToOneToken) {
  TokenBucket bucket(/*capacity=*/0.0, /*refill_per_sec=*/5.0, /*now_s=*/0.0);
  EXPECT_TRUE(bucket.try_consume(0.0));   // the clamped single token
  EXPECT_FALSE(bucket.try_consume(0.0));  // not unlimited
  EXPECT_FALSE(bucket.try_consume(0.1));  // half a token refilled
  EXPECT_TRUE(bucket.try_consume(0.25));  // rate still enforced at 5/s
  // Idle refill is capped at the clamped capacity, not unbounded.
  EXPECT_TRUE(bucket.try_consume(100.0));
  EXPECT_FALSE(bucket.try_consume(100.0));
  // Fractional burst below one token clamps the same way.
  TokenBucket frac(0.25, 2.0, 0.0);
  EXPECT_TRUE(frac.try_consume(0.0));
  EXPECT_FALSE(frac.try_consume(0.0));
}

TEST(TenantQuotas, ConcurrentStudyCapPerTenant) {
  QuotaOptions opts;
  opts.max_studies_per_tenant = 2;
  TenantQuotas q(opts);
  EXPECT_TRUE(q.admit_study(1));
  q.record_study(1, "a");
  q.record_study(1, "b");
  EXPECT_FALSE(q.admit_study(1));
  EXPECT_TRUE(q.admit_study(2));  // caps are per tenant, not global
  q.release_study(1, "a");
  EXPECT_TRUE(q.admit_study(1));
  // Releasing an unknown name is a no-op, not an underflow.
  q.release_study(1, "never-created");
  EXPECT_EQ(q.active_studies(1), 1u);
}

TEST(AuthTableTest, LoadParsesAndValidates) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fedtune_auth_" + std::to_string(::getpid()) + ".txt"))
          .string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# comment line\n"
        << "\n"
        << "7 sekrit\n"
        << "12 other-token\n";
  }
  const AuthTable table = AuthTable::load(path);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.open());
  EXPECT_TRUE(table.check(7, "sekrit"));
  EXPECT_FALSE(table.check(7, "wrong"));
  EXPECT_FALSE(table.check(99, "sekrit"));
  {
    std::ofstream out(path, std::ios::trunc);
    out << "7 token extra-field\n";
  }
  EXPECT_THROW(AuthTable::load(path), std::invalid_argument);
  {
    std::ofstream out(path, std::ios::trunc);
    out << "notanumber token\n";
  }
  EXPECT_THROW(AuthTable::load(path), std::invalid_argument);
  std::filesystem::remove(path);
  EXPECT_THROW(AuthTable::load(path), std::invalid_argument);
  // The empty table is open mode: everything checks out.
  AuthTable open_table;
  EXPECT_TRUE(open_table.open());
  EXPECT_TRUE(open_table.check(1, ""));
}

// ---------------------------------------------------------------------------
// Server harness

// A Server + EventLoop running on a background thread. The StudyManager
// (when present) is only ever touched from the loop thread via the handler;
// the test thread drives it through sockets.
class ServerHarness {
 public:
  // Protocol-only harness: a canned handler, no StudyManager.
  ServerHarness(ServerOptions sopts, Server::Handler h) {
    server_ = std::make_unique<Server>(loop_, std::move(sopts), std::move(h));
  }

  // Service harness: the real verb dispatcher over a StudyManager with the
  // shared test pool registered as "p". The test-only request `ping blob`
  // answers 8 KiB (a deterministic backpressure hammer).
  ServerHarness(const service::ManagerOptions& mopts,
                std::shared_ptr<const service::PoolResources> pool,
                ServerOptions sopts) {
    manager_ = std::make_unique<service::StudyManager>(mopts);
    manager_->register_pool("p", std::move(pool));
    manager_->resume_all();
    handler_ = std::make_unique<service::ServiceHandler>(*manager_, "p");
    server_ = std::make_unique<Server>(
        loop_, std::move(sopts),
        [this](const std::string& line, std::uint64_t, bool* keep) {
          if (line == "ping blob") return "ok " + std::string(8192, 'x');
          return handler_->handle(line, keep);
        });
  }

  ~ServerHarness() { stop(); }

  std::uint16_t listen() {
    if (!server_->listen_tcp("127.0.0.1", 0)) return 0;
    return server_->tcp_port();
  }
  bool listen_unix(const std::string& path) {
    return server_->listen_unix(path);
  }

  void start() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed) && !server_->stopping()) {
        loop_.run_once(10);
      }
      stopped_.store(server_->stopping());
    });
  }

  // Joins the loop thread and tears the server down. After this the
  // manager (if any) is owned by the test thread again.
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    server_->shutdown(0);
  }

  // True once the loop thread has seen the server stop. The Server itself
  // is single-threaded, so the test thread reads this copy instead.
  bool stopping() const { return stopped_.load(); }

 private:
  EventLoop loop_;
  std::unique_ptr<service::StudyManager> manager_;
  std::unique_ptr<service::ServiceHandler> handler_;
  std::unique_ptr<Server> server_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

Server::Handler ping_handler() {
  return [](const std::string& line, std::uint64_t tenant, bool* keep) {
    if (line == "ping") return std::string("ok pong");
    if (line == "ping whoami") return "ok tenant=" + std::to_string(tenant);
    if (line == "shutdown") {
      *keep = false;
      return std::string("ok bye");
    }
    return "err unknown verb '" + line + "'";
  };
}

class NetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const data::FederatedDataset dataset = testutil::small_image_dataset();
    const auto arch = nn::make_default_model(dataset);
    core::PoolBuildOptions opts;
    opts.num_configs = 8;
    opts.checkpoints = {1, 3, 9};
    opts.trainer.clients_per_round = 5;
    opts.store_params = false;
    opts.num_threads = 2;
    const core::ConfigPool built = core::ConfigPool::build(
        dataset, *arch, hpo::appendix_b_space(), opts);
    auto resources = std::make_shared<service::PoolResources>();
    resources->configs = built.configs();
    resources->view = built.view();
    pool_ = std::move(resources);
    std::signal(SIGPIPE, SIG_IGN);
  }

  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  std::string fresh_dir() {
    static int counter = 0;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fedtune_net_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++)))
            .string();
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  service::ManagerOptions manager_options(const std::string& dir) {
    service::ManagerOptions opts;
    opts.journal_dir = dir;
    opts.rounds_per_slice = 9;
    return opts;
  }

  // Runs `verbs` through a fresh in-process ServiceHandler (no network) and
  // returns the last response — the reference for cross-transport checks.
  std::string direct_last_response(const std::vector<std::string>& verbs) {
    service::StudyManager mgr(manager_options(fresh_dir()));
    mgr.register_pool("p", pool_);
    service::ServiceHandler handler(mgr, "p");
    bool running = true;
    std::string last;
    for (const std::string& v : verbs) last = handler.handle(v, &running);
    return last;
  }

  // Drives a managed study to completion over an established request
  // channel and returns its trace response.
  static std::string drive_to_trace(
      const std::function<std::string(const std::string&)>& request,
      const std::string& name) {
    for (int i = 0; i < 500; ++i) {
      const std::string r = request("drive " + name + " 10");
      if (r.rfind("ok", 0) != 0 ||
          r.find("state=finished") != std::string::npos) {
        break;
      }
    }
    return request("trace " + name);
  }

  static std::shared_ptr<const service::PoolResources> pool_;
  std::vector<std::string> dirs_;
};

std::shared_ptr<const service::PoolResources> NetFixture::pool_;

// ---------------------------------------------------------------------------
// Protocol-level server behavior (no StudyManager needed)

// A frame trickling in one byte per segment must decode identically to one
// arriving in a single read — over TCP and over Unix.
TEST(NetServer, BinaryFrameSplitAcrossSegments) {
  ServerHarness h(ServerOptions{}, ping_handler());
  const std::uint16_t port = h.listen();
  ASSERT_NE(port, 0);
  h.start();
  TestClient client(loopback(port), /*tenant=*/9);
  ASSERT_TRUE(client.connect().has_value());
  Frame f;
  f.opcode = Opcode::kPing;
  f.tenant = 9;
  const std::string wire = encode_frame(f);
  for (const char c : wire) {
    ASSERT_TRUE(client.send_bytes(std::string(1, c)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(client.read(), "ok pong");
  // Tenant id rides in the header (open auth mode trusts it).
  EXPECT_EQ(client.call("ping whoami"), "ok tenant=9");
}

TEST(NetServer, UnixSocketFrameSplitAcrossSegments) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fedtune_net_ux_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServerHarness h(ServerOptions{}, ping_handler());
  ASSERT_TRUE(h.listen_unix(path));
  h.start();
  TestClient client(Endpoint::unix_socket(path));
  ASSERT_TRUE(client.connect().has_value());
  Frame f;
  f.opcode = Opcode::kPing;
  const std::string wire = encode_frame(f);
  for (const char c : wire) {
    ASSERT_TRUE(client.send_bytes(std::string(1, c)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(client.read(), "ok pong");
  // Two requests pipelined into one segment still answer in order.
  ASSERT_TRUE(client.send_bytes(wire + wire));
  EXPECT_EQ(client.read(), "ok pong");
  EXPECT_EQ(client.read(), "ok pong");
}

TEST(NetServer, GarbageAndCorruptFramesDontKillTheServer) {
  ServerOptions sopts;
  sopts.max_frame_payload = 1024;
  ServerHarness h(sopts, ping_handler());
  const std::uint16_t port = h.listen();
  ASSERT_NE(port, 0);
  h.start();

  // Each bad stream earns an `err protocol: ...` frame (or a bare hang-up)
  // and a disconnect, never a crash.
  const auto expect_rejected = [port](const std::string& bytes) {
    TestClient bad(loopback(port));
    ASSERT_TRUE(bad.connect().has_value());
    ASSERT_TRUE(bad.send_bytes(bytes));
    const std::string r = bad.read();
    EXPECT_TRUE(r.empty() || r.rfind("err protocol", 0) == 0) << r;
  };
  // A text-protocol line: not a frame, rejected on its first byte.
  expect_rejected("ping\n");
  // Binary-looking garbage: first byte 0xCF, then junk.
  expect_rejected(std::string("\xCF\x00\x01\x02junkjunkjunk", 16));
  // CRC mismatch.
  {
    Frame f;
    f.opcode = Opcode::kPing;
    f.payload = "xyz";
    std::string wire = encode_frame(f);
    wire[kFrameHeaderSize] ^= 0x01;
    expect_rejected(wire);
  }
  // Oversized declared payload (above the server's cap).
  {
    Frame f;
    f.opcode = Opcode::kPing;
    f.payload = std::string(2048, 'a');
    expect_rejected(encode_frame(f));
  }

  // After all of that, a healthy client is served normally.
  TestClient good(loopback(port));
  EXPECT_EQ(good.call("ping"), "ok pong");
}

// The client's two failure classes drive its callers' retry policy: a
// refused connect is retryable, a peer answering with non-frame bytes is
// not.
TEST(NetClient, ClassifiesConnectFailureAndProtocolError) {
  {
    TestClient client(Endpoint::unix_socket(
        "/nonexistent-dir/fedtune_" + std::to_string(::getpid()) + ".sock"));
    EXPECT_FALSE(client.request("ping").has_value());
    EXPECT_EQ(client.error(), Client::Error::kConnectFailed);
    EXPECT_FALSE(client.connected());
  }
  // A bound but non-listening TCP socket refuses connections.
  const int refusing = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(refusing, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(refusing, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::getsockname(refusing, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  {
    TestClient client(loopback(ntohs(addr.sin_port)));
    EXPECT_FALSE(client.request("ping").has_value());
    EXPECT_EQ(client.error(), Client::Error::kConnectFailed);
  }
  ::close(refusing);

  // An impostor that answers a frame with a text line.
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  addr.sin_port = 0;
  len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  std::thread impostor([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    char buf[256];
    (void)::recv(fd, buf, sizeof(buf), 0);
    const std::string reply = "ok lines=banana\n";
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    ::close(fd);
  });
  TestClient client(loopback(ntohs(addr.sin_port)));
  EXPECT_FALSE(client.request("metrics").has_value());
  EXPECT_EQ(client.error(), Client::Error::kProtocolError);
  EXPECT_FALSE(client.connected());
  impostor.join();
  ::close(listener);
}

TEST(NetServer, AuthRequiredOnTcpAndPreTrustedOnUnix) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fedtune_net_auth_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServerOptions sopts;
  sopts.auth.add(7, "sekrit");
  ServerHarness h(sopts, ping_handler());
  const std::uint16_t port = h.listen();
  ASSERT_NE(port, 0);
  ASSERT_TRUE(h.listen_unix(path));
  h.start();

  // Pre-hello request on TCP: rejected and disconnected.
  {
    TestClient c(loopback(port));
    EXPECT_EQ(c.call("ping"), "err auth required (send hello first)");
    EXPECT_EQ(c.read(), "");  // server closed the connection
  }
  // Wrong token.
  {
    TestClient c(loopback(port), 7, "wrong");
    EXPECT_EQ(c.connect(), "err auth failed for tenant 7");
    EXPECT_FALSE(c.connected());
  }
  // Unknown tenant: the refusal is the request's reply.
  {
    TestClient c(loopback(port), 99, "sekrit");
    EXPECT_EQ(c.call("ping"), "err auth failed for tenant 99");
  }
  // Correct hello (token in the payload, tenant in the header); requests
  // attribute to the tenant.
  {
    TestClient c(loopback(port), 7, "sekrit");
    EXPECT_EQ(c.connect(), "ok hello tenant=7");
    EXPECT_EQ(c.call("ping"), "ok pong");
    EXPECT_EQ(c.call("ping whoami"), "ok tenant=7");
  }
  // Unix connections are local and pre-trusted: no hello needed.
  {
    TestClient c(Endpoint::unix_socket(path));
    EXPECT_EQ(c.call("ping"), "ok pong");
  }
}

TEST(NetServer, RateQuotaEnforcedAgainstInjectedClock) {
  // The injected clock makes refill deterministic: no wall-time flakiness.
  auto fake_now = std::make_shared<std::atomic<double>>(0.0);
  ServerOptions sopts;
  sopts.quota.frames_per_sec = 1.0;
  sopts.quota.burst = 2.0;
  sopts.now_s = [fake_now] { return fake_now->load(); };
  ServerHarness h(sopts, ping_handler());
  const std::uint16_t port = h.listen();
  ASSERT_NE(port, 0);
  h.start();
  TestClient c(loopback(port));
  EXPECT_EQ(c.call("ping"), "ok pong");
  EXPECT_EQ(c.call("ping"), "ok pong");
  EXPECT_EQ(c.call("ping"), "err quota exceeded (rate)");
  fake_now->store(10.0);  // refill (capped at burst)
  EXPECT_EQ(c.call("ping"), "ok pong");
  EXPECT_EQ(c.call("ping"), "ok pong");
  EXPECT_EQ(c.call("ping"), "err quota exceeded (rate)");
}

TEST(NetServer, ShutdownVerbStopsTheServer) {
  ServerHarness h(ServerOptions{}, ping_handler());
  const std::uint16_t port = h.listen();
  ASSERT_NE(port, 0);
  h.start();
  TestClient c(loopback(port));
  EXPECT_EQ(c.call("shutdown"), "ok bye");
  for (int i = 0; i < 100 && !h.stopping(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(h.stopping());
}

// ---------------------------------------------------------------------------
// Full service over the network

TEST_F(NetFixture, ExternalAskTellIdenticalAcrossTransportsAndDirect) {
  const std::vector<std::string> script = {
      "create-study e1 external seed=5 max-trials=3",
      "ask e1",
      "tell e1 0 0.5",
      "ask e1",
      "tell e1 1 0.25",
      "ask e1",
      "tell e1 2 0.125",
  };
  // Reference: the same verbs through a bare in-process handler.
  std::vector<std::string> ref_script = script;
  ref_script.push_back("trace e1");
  const std::string want = direct_last_response(ref_script);
  ASSERT_EQ(want.rfind("ok n=", 0), 0) << want;

  // The same script over binary frames, once per transport.
  const std::string sock =
      (std::filesystem::temp_directory_path() /
       ("fedtune_net_xport_" + std::to_string(::getpid()) + ".sock"))
          .string();
  for (const bool via_unix : {false, true}) {
    SCOPED_TRACE(via_unix ? "unix" : "tcp");
    ServerHarness h(manager_options(fresh_dir()), pool_, ServerOptions{});
    Endpoint ep;
    if (via_unix) {
      ASSERT_TRUE(h.listen_unix(sock));
      ep = Endpoint::unix_socket(sock);
    } else {
      const std::uint16_t port = h.listen();
      ASSERT_NE(port, 0);
      ep = loopback(port);
    }
    h.start();
    TestClient c(ep, /*tenant=*/4);
    for (const std::string& v : script) {
      ASSERT_EQ(c.call(v).rfind("ok", 0), 0) << v;
    }
    EXPECT_EQ(c.call("trace e1"), want);
  }
}

TEST_F(NetFixture, StudyQuotaGatesCreateAndReleasesOnSuspend) {
  ServerOptions sopts;
  sopts.quota.max_studies_per_tenant = 1;
  ServerHarness h(manager_options(fresh_dir()), pool_, sopts);
  const std::uint16_t port = h.listen();
  ASSERT_NE(port, 0);
  h.start();
  TestClient a(loopback(port), /*tenant=*/1);
  TestClient b(loopback(port), /*tenant=*/2);
  EXPECT_EQ(a.call("create-study q1 external max-trials=2")
                .rfind("ok created", 0),
            0);
  EXPECT_EQ(a.call("create-study q2 external max-trials=2"),
            "err quota exceeded (max 1 concurrent studies per tenant)");
  // A different tenant is unaffected.
  EXPECT_EQ(b.call("create-study q3 external max-trials=2")
                .rfind("ok created", 0),
            0);
  // Suspending releases the slot.
  EXPECT_EQ(a.call("suspend q1"), "ok suspended q1");
  EXPECT_EQ(a.call("create-study q4 external max-trials=2")
                .rfind("ok created", 0),
            0);
}

TEST_F(NetFixture, SlowReaderDisconnectedOthersBitwiseUnaffected) {
  obs::Counter& backpressure = obs::MetricsRegistry::global().counter(
      "fedtune_net_disconnects_total", {{"reason", "backpressure"}});
  const std::uint64_t before = backpressure.value();

  ServerOptions sopts;
  sopts.max_write_queue_bytes = 16 * 1024;  // ~2 blob responses
  sopts.sndbuf_bytes = 4096;                // keep the kernel buffer small
  ServerHarness h(manager_options(fresh_dir()), pool_, sopts);
  const std::uint16_t port = h.listen();
  ASSERT_NE(port, 0);
  h.start();

  // The stalled reader: pipelines 64 blob requests (64 * ~8 KiB of
  // responses) and never reads a byte.
  TestClient slow(loopback(port));
  ASSERT_TRUE(slow.connect().has_value());
  Frame blob;
  blob.opcode = Opcode::kPing;
  blob.payload = "blob";
  std::string flood;
  for (int i = 0; i < 64; ++i) flood += encode_frame(blob);
  slow.send_bytes(flood);  // may itself fail once the server disconnects

  // The server must hit the write-queue cap and cut the connection without
  // stalling the loop.
  bool disconnected = false;
  for (int i = 0; i < 500; ++i) {
    if (backpressure.value() > before) {
      disconnected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(disconnected) << "slow reader was never disconnected";

  // Meanwhile a healthy tenant's managed study runs to completion with a
  // trajectory bitwise-identical to an in-process run.
  TestClient healthy(loopback(port));
  const std::string create =
      "create-study s1 method=rs configs=8 seed=17 eval-clients=4 epsilon=25";
  ASSERT_EQ(healthy.call(create).rfind("ok created", 0), 0);
  const std::string got = drive_to_trace(
      [&healthy](const std::string& v) { return healthy.call(v); }, "s1");

  const std::string want = direct_last_response(
      {create, "drive s1 5000", "trace s1"});
  ASSERT_EQ(want.rfind("ok n=", 0), 0) << want;
  EXPECT_EQ(got, want);
}

TEST_F(NetFixture, KillResumeOverTcpBitwiseIdentical) {
  const std::string create =
      "create-study k1 method=sha configs=8 seed=17 eval-clients=4 epsilon=25";
  const std::string want = direct_last_response(
      {create, "drive k1 5000", "trace k1"});
  ASSERT_EQ(want.rfind("ok n=", 0), 0) << want;

  // Interrupt the TCP-served study at several tell boundaries: drive k
  // steps, tear the whole server down (no suspend — the journal is the only
  // survivor, as after SIGKILL), restart on the same journal dir, resume,
  // finish, and demand the bitwise-identical trajectory.
  for (const int kill_after : {1, 2, 4, 7}) {
    const std::string dir = fresh_dir();
    {
      ServerHarness h(manager_options(dir), pool_, ServerOptions{});
      const std::uint16_t port = h.listen();
      ASSERT_NE(port, 0);
      h.start();
      TestClient c(loopback(port));
      ASSERT_EQ(c.call(create).rfind("ok created", 0), 0);
      ASSERT_EQ(c.call("drive k1 " + std::to_string(kill_after))
                    .rfind("ok ran=", 0),
                0);
    }  // server + manager destroyed with the study mid-flight
    {
      ServerHarness h(manager_options(dir), pool_, ServerOptions{});
      const std::uint16_t port = h.listen();
      ASSERT_NE(port, 0);
      h.start();
      TestClient c(loopback(port));
      ASSERT_EQ(c.call("resume k1").rfind("ok resumed", 0), 0)
          << "kill_after=" << kill_after;
      const std::string got = drive_to_trace(
          [&c](const std::string& v) { return c.call(v); }, "k1");
      EXPECT_EQ(got, want) << "kill_after=" << kill_after;
    }
  }
}

}  // namespace
}  // namespace fedtune::net
