// TCP transport integration tests over real localhost sockets: framing +
// MAC on live connections, bidirectional exactly-once in-order delivery,
// peer restart with reconnect + retransmission, and rejection of
// unauthenticated streams.  Timing-tolerant: asserts wait on predicates
// with generous deadlines rather than sleeping fixed amounts.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <mutex>
#include <thread>

#include "crypto/sha256.hpp"
#include "net/transport/tcp_transport.hpp"

namespace sintra::net::transport {
namespace {

bool wait_for(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

Bytes pair_key(std::uint64_t seed, int a, int b) {
  Writer w;
  w.u64(seed);
  w.u32(static_cast<std::uint32_t>(std::min(a, b)));
  w.u32(static_cast<std::uint32_t>(std::max(a, b)));
  return crypto::hash_expand("test/tcp/link-key", w.data(), 32);
}

TcpTransport::Config make_config(int node_id, int n, std::uint64_t seed) {
  TcpTransport::Config config;
  config.node_id = node_id;
  config.endpoints.resize(static_cast<std::size_t>(n));
  config.link_keys.resize(static_cast<std::size_t>(n));
  for (int peer = 0; peer < n; ++peer) {
    if (peer != node_id) config.link_keys[static_cast<std::size_t>(peer)] =
        pair_key(seed, node_id, peer);
  }
  config.seed = seed + static_cast<std::uint64_t>(node_id);
  config.heartbeat_interval_ms = 50;
  config.heartbeat_timeout_ms = 600;
  config.reconnect_min_ms = 10;
  config.reconnect_max_ms = 100;
  config.ack_flush_ms = 5;
  return config;
}

/// Thread-safe per-peer payload collector.
struct Collector {
  std::mutex mutex;
  std::map<int, std::vector<Bytes>> received;

  TcpTransport::ReceiveFn fn() {
    return [this](int from, std::uint32_t /*group*/, BytesView payload) {
      std::lock_guard<std::mutex> lock(mutex);
      received[from].emplace_back(payload.begin(), payload.end());
    };
  }
  std::vector<Bytes> from(int peer) {
    std::lock_guard<std::mutex> lock(mutex);
    return received[peer];
  }
  std::size_t count(int peer) {
    std::lock_guard<std::mutex> lock(mutex);
    return received[peer].size();
  }
};

Bytes numbered(int node, int i) { return bytes_of("n" + std::to_string(node) + "/" + std::to_string(i)); }

TEST(TcpTransportTest, BidirectionalExactlyOnceInOrder) {
  const std::uint64_t seed = 11;
  Collector ca, cb;
  auto config_a = make_config(0, 2, seed);
  TcpTransport a(config_a, ca.fn());
  a.start();
  auto config_b = make_config(1, 2, seed);
  config_b.endpoints[0].port = a.listen_port();
  TcpTransport b(config_b, cb.fn());
  b.start();

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    a.send(1, numbered(0, i));
    b.send(0, numbered(1, i));
  }
  ASSERT_TRUE(wait_for([&] { return ca.count(1) >= kCount && cb.count(0) >= kCount; }, 5000));
  const auto at_b = cb.from(0);
  const auto at_a = ca.from(1);
  ASSERT_EQ(at_b.size(), static_cast<std::size_t>(kCount));
  ASSERT_EQ(at_a.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(at_b[static_cast<std::size_t>(i)], numbered(0, i));
    EXPECT_EQ(at_a[static_cast<std::size_t>(i)], numbered(1, i));
  }
  EXPECT_GE(a.stats().connects, 1u);
  EXPECT_EQ(a.stats().auth_failures, 0u);
  b.stop();
  a.stop();
}

TEST(TcpTransportTest, ThreeNodesAllPairs) {
  const std::uint64_t seed = 23;
  constexpr int kN = 3;
  constexpr int kCount = 50;
  std::vector<std::unique_ptr<Collector>> collectors;
  std::vector<std::unique_ptr<TcpTransport>> nodes;
  std::vector<std::uint16_t> ports(kN, 0);
  for (int id = 0; id < kN; ++id) {
    auto config = make_config(id, kN, seed);
    for (int low = 0; low < id; ++low) config.endpoints[static_cast<std::size_t>(low)].port =
        ports[static_cast<std::size_t>(low)];
    collectors.push_back(std::make_unique<Collector>());
    nodes.push_back(std::make_unique<TcpTransport>(config, collectors.back()->fn()));
    nodes.back()->start();
    ports[static_cast<std::size_t>(id)] = nodes.back()->listen_port();
  }
  for (int from = 0; from < kN; ++from) {
    for (int to = 0; to < kN; ++to) {
      if (from == to) continue;
      for (int i = 0; i < kCount; ++i) nodes[static_cast<std::size_t>(from)]->send(to, numbered(from, i));
    }
  }
  ASSERT_TRUE(wait_for(
      [&] {
        for (int to = 0; to < kN; ++to) {
          for (int from = 0; from < kN; ++from) {
            if (from != to && collectors[static_cast<std::size_t>(to)]->count(from) < kCount) return false;
          }
        }
        return true;
      },
      10000));
  for (int to = 0; to < kN; ++to) {
    for (int from = 0; from < kN; ++from) {
      if (from == to) continue;
      const auto got = collectors[static_cast<std::size_t>(to)]->from(from);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount)) << from << "->" << to;
      for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], numbered(from, i));
    }
  }
  for (auto& node : nodes) node->stop();
}

TEST(TcpTransportTest, PeerRestartTriggersReconnectAndRetransmission) {
  const std::uint64_t seed = 37;
  Collector ca;
  auto config_a = make_config(0, 2, seed);
  TcpTransport a(config_a, ca.fn());
  a.start();

  auto config_b = make_config(1, 2, seed);
  config_b.endpoints[0].port = a.listen_port();

  constexpr int kBatch = 30;
  std::vector<Bytes> full_stream;
  for (int i = 0; i < 2 * kBatch; ++i) full_stream.push_back(numbered(0, i));

  Collector cb1;
  auto b1 = std::make_unique<TcpTransport>(config_b, cb1.fn());
  b1->start();
  for (int i = 0; i < kBatch; ++i) a.send(1, full_stream[static_cast<std::size_t>(i)]);
  ASSERT_TRUE(wait_for([&] { return cb1.count(0) >= kBatch; }, 5000));
  b1->stop();  // crash: the incarnation's link state dies with it

  // Traffic sent while the peer is down is retained for retransmission.
  for (int i = kBatch; i < 2 * kBatch; ++i) a.send(1, full_stream[static_cast<std::size_t>(i)]);

  Collector cb2;
  auto b2 = std::make_unique<TcpTransport>(config_b, cb2.fn());
  b2->start();  // redials; the HELLO cursor exchange drives retransmission
  ASSERT_TRUE(wait_for([&] {
    const auto got = cb2.from(0);
    return !got.empty() && got.back() == full_stream.back();
  }, 10000));

  // The fresh incarnation must see a contiguous, duplicate-free suffix of
  // the stream covering at least everything sent while it was down
  // (acked frames from the first incarnation are pruned; unacked ones
  // may legitimately be re-delivered — at-least-once across crashes).
  const auto got = cb2.from(0);
  ASSERT_FALSE(got.empty());
  auto start = std::find(full_stream.begin(), full_stream.end(), got.front());
  ASSERT_NE(start, full_stream.end());
  ASSERT_LE(start - full_stream.begin(), kBatch) << "batch-2 prefix lost";
  ASSERT_EQ(got.size(), static_cast<std::size_t>(full_stream.end() - start));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], *(start + static_cast<std::ptrdiff_t>(i)));
  }
  EXPECT_GE(a.stats().disconnects, 1u);
  EXPECT_GE(a.stats().connects, 2u);
  b2->stop();
  a.stop();
}

TEST(TcpTransportTest, GarbageStreamRejectedWithoutDisruption) {
  const std::uint64_t seed = 51;
  Collector ca, cb;
  auto config_a = make_config(0, 2, seed);
  TcpTransport a(config_a, ca.fn());
  a.start();
  auto config_b = make_config(1, 2, seed);
  config_b.endpoints[0].port = a.listen_port();
  TcpTransport b(config_b, cb.fn());
  b.start();
  ASSERT_TRUE(wait_for([&] { return a.stats().connects >= 1; }, 5000));

  // An attacker connects and spews bytes that cannot authenticate.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(a.listen_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  Bytes garbage(512, 0xEE);
  ASSERT_GT(::write(fd, garbage.data(), garbage.size()), 0);

  // The real peers keep working, before and after the attack.
  b.send(0, bytes_of("legit"));
  ASSERT_TRUE(wait_for([&] { return ca.count(1) >= 1; }, 5000));
  EXPECT_EQ(ca.from(1)[0], bytes_of("legit"));
  ::close(fd);
  b.stop();
  a.stop();
}

TEST(TcpTransportTest, WrongLinkKeyNeverEstablishes) {
  Collector ca, cb;
  auto config_a = make_config(0, 2, /*seed=*/61);
  TcpTransport a(config_a, ca.fn());
  a.start();
  auto config_b = make_config(1, 2, /*seed=*/62);  // different dealer: wrong keys
  config_b.endpoints[0].port = a.listen_port();
  TcpTransport b(config_b, cb.fn());
  b.start();
  b.send(0, bytes_of("should never arrive"));
  // The MAC check rejects the impostor's HELLO; give it time to try.
  EXPECT_TRUE(wait_for([&] { return a.stats().auth_failures >= 1; }, 5000));
  EXPECT_EQ(ca.count(1), 0u);
  EXPECT_EQ(a.stats().connects, 0u);
  b.stop();
  a.stop();
}

TEST(TcpTransportTest, OldVersionHelloIsRefused) {
  // A peer speaking the previous wire version (v4, whose HELLO and BATCH
  // bodies still carried an epoch stamp) holds the right link key, but
  // its HELLO is refused: the handshake never completes.
  const std::uint64_t seed = 65;
  Collector ca;
  TcpTransport a(make_config(0, 2, seed), ca.fn());
  a.start();

  Writer hello;
  hello.u16(4);   // version
  hello.u32(1);   // node id: 1 dials 0
  hello.u64(99);  // nonce
  hello.u64(0);   // recv cursor
  hello.u32(0);   // v4 epoch stamp
  const Bytes frame = encode_frame(FrameType::kHello, hello.data(), pair_key(seed, 0, 1));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(a.listen_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::write(fd, frame.data(), frame.size()), static_cast<ssize_t>(frame.size()));
  EXPECT_TRUE(wait_for([&] { return a.stats().auth_failures >= 1; }, 5000));
  EXPECT_EQ(a.stats().connects, 0u);
  ::close(fd);
  a.stop();
}

TEST(TcpTransportTest, SendManyCoalescesIntoOneBatchFrame) {
  const std::uint64_t seed = 71;
  Collector ca, cb;
  auto config_a = make_config(0, 2, seed);
  TcpTransport a(config_a, ca.fn());
  a.start();
  auto config_b = make_config(1, 2, seed);
  config_b.endpoints[0].port = a.listen_port();
  TcpTransport b(config_b, cb.fn());
  b.start();
  ASSERT_TRUE(wait_for([&] { return a.stats().connects >= 1; }, 5000));

  constexpr int kCount = 50;
  std::vector<GroupPayload> payloads;
  for (int i = 0; i < kCount; ++i) payloads.push_back(GroupPayload{0, numbered(0, i)});
  a.send_many(1, payloads);
  ASSERT_TRUE(wait_for([&] { return cb.count(0) >= kCount; }, 5000));
  const auto got = cb.from(0);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], numbered(0, i));

  // The coalescing proof: all 50 payloads rode BATCH super-frames, and the
  // whole flush cost one frame and one HMAC (a retransmit on a slow runner
  // may add a batch — what may never happen is one frame per payload).
  const TcpTransport::Stats stats = a.stats();
  EXPECT_GE(stats.frames_coalesced, static_cast<std::uint64_t>(kCount));
  EXPECT_GE(stats.batches_sent, 1u);
  EXPECT_LE(stats.batches_sent, 5u) << "flush split into near-per-payload frames";
  // HMACs: one per batch plus handshake/heartbeat traffic — nowhere near
  // one per payload.
  EXPECT_LT(stats.hmacs_computed, static_cast<std::uint64_t>(kCount));
  EXPECT_GT(stats.writev_calls, 0u);
  b.stop();
  a.stop();
}

TEST(TcpTransportTest, KillingPeerMidSendDoesNotRaiseSigpipe) {
  // Regression: outbound writes used raw ::write, so a peer dying between
  // poll() and write() delivered SIGPIPE and killed the process.  With
  // sendmsg(MSG_NOSIGNAL) the dead socket surfaces as EPIPE and becomes an
  // orderly disconnect.
  const std::uint64_t seed = 83;
  Collector ca, cb;
  auto config_a = make_config(0, 2, seed);
  TcpTransport a(config_a, ca.fn());
  a.start();
  auto config_b = make_config(1, 2, seed);
  config_b.endpoints[0].port = a.listen_port();
  auto b = std::make_unique<TcpTransport>(config_b, cb.fn());
  b->start();
  ASSERT_TRUE(wait_for([&] { return a.stats().connects >= 1; }, 5000));

  // Kill the peer, then keep writing into the dead connection.  The RST
  // arrives asynchronously, so some of these writes hit a socket the
  // kernel already knows is gone — the SIGPIPE window.
  b.reset();
  for (int i = 0; i < 500; ++i) {
    a.send(1, numbered(0, i));
    if (i % 100 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Alive to observe the orderly disconnect — with SIGPIPE undisposed the
  // process would have died inside the reactor instead.
  EXPECT_TRUE(wait_for([&] { return a.stats().disconnects >= 1; }, 5000));
  a.stop();
}

TEST(TcpTransportTest, SignalStormDoesNotDisruptDelivery) {
  // EINTR regression: a signal landing in accept/connect/read/sendmsg used
  // to be treated as a connection error.  Install a no-op handler WITHOUT
  // SA_RESTART (so every blocking syscall genuinely returns EINTR) and
  // hammer the process with signals while traffic flows: delivery must
  // stay exactly-once in-order with zero disconnects.
  struct sigaction storm_action {};
  storm_action.sa_handler = [](int) {};
  storm_action.sa_flags = 0;  // deliberately no SA_RESTART
  sigemptyset(&storm_action.sa_mask);
  struct sigaction previous {};
  ASSERT_EQ(sigaction(SIGUSR1, &storm_action, &previous), 0);

  const std::uint64_t seed = 97;
  Collector ca, cb;
  auto config_a = make_config(0, 2, seed);
  TcpTransport a(config_a, ca.fn());
  a.start();
  auto config_b = make_config(1, 2, seed);
  config_b.endpoints[0].port = a.listen_port();
  TcpTransport b(config_b, cb.fn());
  b.start();

  std::atomic<bool> storming{true};
  std::thread storm([&storming] {
    while (storming.load()) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    a.send(1, numbered(0, i));
    b.send(0, numbered(1, i));
    if (i % 20 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool all_arrived =
      wait_for([&] { return ca.count(1) >= kCount && cb.count(0) >= kCount; }, 10000);
  storming.store(false);
  storm.join();
  ASSERT_TRUE(all_arrived);

  const auto at_b = cb.from(0);
  const auto at_a = ca.from(1);
  ASSERT_EQ(at_b.size(), static_cast<std::size_t>(kCount));
  ASSERT_EQ(at_a.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(at_b[static_cast<std::size_t>(i)], numbered(0, i));
    EXPECT_EQ(at_a[static_cast<std::size_t>(i)], numbered(1, i));
  }
  // EINTR handled everywhere means the storm never looked like a failure.
  EXPECT_EQ(a.stats().disconnects, 0u);
  EXPECT_EQ(b.stats().disconnects, 0u);
  EXPECT_EQ(a.stats().auth_failures, 0u);
  b.stop();
  a.stop();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);
}

}  // namespace
}  // namespace sintra::net::transport
