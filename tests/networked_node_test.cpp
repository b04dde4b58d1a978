// NetworkedNode tests: the full protocol stack (Party + AtomicBroadcast,
// unchanged) running over the loopback transport instead of the simulator
// — fault-free and under the chaos fault profile — plus the adapter's own
// robustness properties: bounded inbox with drop-oldest, malformed
// payload rejection, and payload wire-format round trips.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/examples.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"
#include "protocols/atomic.hpp"
#include "protocols/net_cluster.hpp"

namespace sintra::net::transport {
namespace {

using protocols::AtomicBroadcast;

struct AbcState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::vector<std::pair<int, Bytes>> delivered;
};

using AbcCluster = protocols::NetCluster<AbcState>;

/// n protocol stacks, each on its own NetworkedNode, wired through one
/// LoopbackHub — the single-threaded deterministic version of the real
/// TCP deployment.
AbcCluster make_cluster(int n, std::uint64_t seed, LoopbackHub::FaultProfile faults) {
  Rng rng(seed);
  return AbcCluster(
      {adversary::Deployment::threshold(n, (n - 1) / 3, rng)},
      [](net::Party& party, int, int) {
        auto state = std::make_unique<AbcState>();
        state->abc = std::make_unique<AtomicBroadcast>(
            party, "abc", [s = state.get()](int origin, Bytes payload) {
              s->delivered.emplace_back(origin, std::move(payload));
            });
        return state;
      },
      {.seed = seed, .faults = faults});
}

bool all_delivered(AbcCluster& cluster, std::size_t count) {
  for (int id = 0; id < cluster.n(); ++id) {
    if (cluster.protocol(id).delivered.size() < count) return false;
  }
  return true;
}

void expect_identical_order(AbcCluster& cluster) {
  const auto& reference = cluster.protocol(0).delivered;
  for (int id = 1; id < cluster.n(); ++id) {
    EXPECT_EQ(cluster.protocol(id).delivered, reference) << "total order violated";
  }
}

TEST(NetworkedNodeTest, AtomicBroadcastOverLoopback) {
  AbcCluster cluster = make_cluster(4, /*seed=*/11, LoopbackHub::FaultProfile{});
  for (int id = 0; id < 4; ++id) {
    cluster.protocol(id).abc->submit(bytes_of("m" + std::to_string(id)));
  }
  ASSERT_TRUE(cluster.run_until([&] { return all_delivered(cluster, 4); }));
  expect_identical_order(cluster);
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(cluster.node(id).stats().malformed, 0u);
  }
}

TEST(NetworkedNodeTest, AtomicBroadcastUnderChaosProfile) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    AbcCluster cluster = make_cluster(4, seed, LoopbackHub::FaultProfile::chaos());
    for (int id = 0; id < 4; ++id) {
      cluster.protocol(id).abc->submit(bytes_of("m" + std::to_string(id)));
    }
    ASSERT_TRUE(cluster.run_until([&] { return all_delivered(cluster, 4); })) << "seed " << seed;
    expect_identical_order(cluster);
  }
}

/// Minimal process that records what reaches it.
struct RecordingProcess final : net::Process {
  std::vector<Bytes> seen;
  void on_message(const net::Message& message) override { seen.push_back(message.payload); }
};

TEST(NetworkedNodeTest, InboxQuotaDropsOldest) {
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  config.max_inbox = 4;
  NetworkedNode node(config);
  RecordingProcess process;
  node.attach(process);
  for (int i = 0; i < 10; ++i) {
    net::Message m;
    m.from = 1;
    m.to = 0;
    m.tag = "t";
    m.payload = bytes_of("p" + std::to_string(i));
    const Bytes wire = NetworkedNode::encode_payload(m);
    node.on_transport_receive(1, 0, wire);
  }
  node.poll();
  // Drop-oldest: the newest 4 survive the quota.
  ASSERT_EQ(process.seen.size(), 4u);
  EXPECT_EQ(process.seen.front(), bytes_of("p6"));
  EXPECT_EQ(process.seen.back(), bytes_of("p9"));
  EXPECT_EQ(node.stats().dropped_inbox, 6u);
  EXPECT_EQ(node.stats().dispatched, 4u);
}

TEST(NetworkedNodeTest, MalformedPayloadCountedAndDropped) {
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  NetworkedNode node(config);
  RecordingProcess process;
  node.attach(process);
  const Bytes junk = bytes_of("not a message");
  node.on_transport_receive(1, 0, junk);
  node.on_transport_receive(1, 0, BytesView{});
  node.poll();
  EXPECT_TRUE(process.seen.empty());
  EXPECT_EQ(node.stats().malformed, 2u);
  EXPECT_EQ(node.stats().dispatched, 0u);
}

TEST(NetworkedNodeTest, PayloadWireFormatRoundTrips) {
  net::Message m;
  m.from = 3;
  m.to = 1;
  m.tag = "abc/vote";
  m.payload = bytes_of("ballot");
  const Bytes wire = NetworkedNode::encode_payload(m);
  const net::Message back = NetworkedNode::decode_payload(3, 1, wire);
  EXPECT_EQ(back.from, 3);
  EXPECT_EQ(back.to, 1);
  EXPECT_EQ(back.tag, "abc/vote");
  EXPECT_EQ(back.payload, bytes_of("ballot"));
  EXPECT_THROW(NetworkedNode::decode_payload(3, 1, bytes_of("junk")), ProtocolError);
}

TEST(NetworkedNodeTest, SelfSubmitLoopsThroughInbox) {
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  NetworkedNode node(config);
  RecordingProcess process;
  node.attach(process);
  net::Message m;
  m.from = 0;
  m.to = 0;
  m.tag = "self";
  m.payload = bytes_of("loop");
  node.submit(m);
  EXPECT_TRUE(process.seen.empty());  // asynchronous, like the simulator
  node.poll();
  ASSERT_EQ(process.seen.size(), 1u);
  EXPECT_EQ(process.seen[0], bytes_of("loop"));
  EXPECT_EQ(node.stats().self_messages, 1u);
}

TEST(NetworkedNodeTest, TimersFireThroughPoll) {
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = 2;
  NetworkedNode node(config);
  RecordingProcess process;
  node.attach(process);
  int fired = 0;
  node.schedule_timer(0, 1, [&] { ++fired; });
  const auto cancelled = node.schedule_timer(0, 1, [&] { ++fired; });
  node.cancel_timer(cancelled);
  EXPECT_TRUE(node.run_until([&] { return fired >= 1; }, /*timeout_ms=*/2000));
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace sintra::net::transport
