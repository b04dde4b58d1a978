// Sharded multi-group operation (issue 10 tentpole).
//
// Unit layer: multicast notify hooks (two hosts sharing one machine-wide
// pool must BOTH wake — the second set_notify used to steal the hook),
// group-salted executor-lane assignment (group 0 is bit-identical to the
// legacy single-tenant hash), and the rendezvous ShardPartitioner
// (deterministic, balanced, and removal-stable: dropping a shard remaps
// only the keys that lived on it).
//
// Client layer: PartitionedClient routes by consistent hash — every
// request lands on exactly the shard the partitioner names, per-shard
// routed counters add up, and each shard's traffic stays on that shard's
// Network endpoint.
//
// Cluster layer: two independent SINTRA groups × four parties multiplexed
// over ONE LoopbackHub, one NetworkedNode per machine hosting both
// tenants, one shared ExecutorPool per machine.  Both groups' atomic
// broadcasts must agree independently, each group's WAL must replay into
// a fresh sequential party bit-exactly, and the wire stats must prove the
// multi-group coalescing claim: payloads of BOTH groups rode shared BATCH
// super-frames (one HMAC each), never one frame per payload.  The same
// two groups also run over a chaos-profile hub (dropped, duplicated,
// replayed frames and flapping links) and must still agree per group,
// with every retransmitted record routed to a hosted group.  (Payloads
// stamped with a group the host does not run are fuzzed in
// fuzz_decode_test.)
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adversary/quorum.hpp"
#include "app/client.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "common/work_pool.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"
#include "protocols/atomic.hpp"
#include "protocols/net_cluster.hpp"

namespace sintra {
namespace {

using app::PartitionedClient;
using app::ShardPartitioner;
using common::ExecutorPool;
using common::WorkPool;
using net::transport::LoopbackHub;
using net::transport::NetworkedNode;
using protocols::AtomicBroadcast;
using protocols::HostedParty;

// ---- unit: multicast notify hooks -------------------------------------------

TEST(MulticastNotifyTest, ExecutorPoolWakesEveryRegisteredHook) {
  ExecutorPool pool(1);
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  pool.set_notify([&first] { first.fetch_add(1); });
  // The second registration must NOT replace the first — two NetworkedNodes
  // sharing one machine-wide pool both need their run_until() woken.
  pool.set_notify([&second] { second.fetch_add(1); });
  pool.set_notify(nullptr);  // null hooks are ignored, not registered
  pool.post(0, [] {});
  pool.wait_idle();
  pool.stop();
  EXPECT_GE(first.load(), 1) << "first hook starved after second set_notify";
  EXPECT_GE(second.load(), 1);
}

TEST(MulticastNotifyTest, WorkPoolWakesEveryRegisteredHook) {
  WorkPool pool(1);
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  pool.set_notify([&first] { first.fetch_add(1); });
  pool.set_notify([&second] { second.fetch_add(1); });
  pool.submit([] { return Bytes{1}; }, [](Bytes) {});
  pool.wait_idle();
  pool.stop();
  EXPECT_GE(first.load(), 1) << "first hook starved after second set_notify";
  EXPECT_GE(second.load(), 1);
}

// ---- unit: group-salted lane assignment -------------------------------------

TEST(LaneSaltTest, GroupZeroMatchesLegacyAssignmentAndSaltsSpreadLanes) {
  ExecutorPool pool(4);
  bool moved = false;
  for (const char* tag : {"abc0", "abc1/rbc/3", "svc/vba/0/echo", "x"}) {
    // Group 0 must be bit-identical to the pre-sharding hash: a
    // single-tenant host sees exactly the legacy lane layout.
    EXPECT_EQ(pool.executor_for(0, tag), pool.executor_for(tag)) << tag;
    for (std::uint64_t group = 1; group <= 64; ++group) {
      const std::size_t lane = pool.executor_for(group, tag);
      EXPECT_LT(lane, pool.executors());
      if (lane != pool.executor_for(tag)) moved = true;
      // Same (group, tag-root) → same lane: the whole instance tree of a
      // tenant's protocol stays serialized on one executor.
      EXPECT_EQ(lane, pool.executor_for(group, std::string(tag) + "/sub"));
    }
  }
  EXPECT_TRUE(moved) << "salting never changed any lane — groups would all collide";
  pool.stop();
}

// ---- unit: rendezvous partitioner -------------------------------------------

Bytes key_of(int i) { return bytes_of("key-" + std::to_string(i)); }

TEST(ShardPartitionerTest, DeterministicBalancedAndRemovalStable) {
  ShardPartitioner partitioner(/*seed=*/42);
  for (std::uint32_t shard : {0u, 1u, 2u, 3u}) partitioner.add_shard(shard);

  constexpr int kKeys = 2000;
  std::map<std::uint32_t, int> load;
  std::vector<std::uint32_t> owner(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    owner[static_cast<std::size_t>(i)] = partitioner.shard_for(key_of(i));
    EXPECT_EQ(owner[static_cast<std::size_t>(i)], partitioner.shard_for(key_of(i)))
        << "non-deterministic owner for key " << i;
    ++load[owner[static_cast<std::size_t>(i)]];
  }
  // Rendezvous weights are independent per shard: each of the four shards
  // should hold roughly a quarter; 10% is a generous statistical floor.
  for (std::uint32_t shard : {0u, 1u, 2u, 3u}) {
    EXPECT_GT(load[shard], kKeys / 10) << "shard " << shard << " starved";
  }

  // Removing shard 2 remaps ONLY the keys shard 2 owned.
  partitioner.remove_shard(2);
  for (int i = 0; i < kKeys; ++i) {
    const std::uint32_t before = owner[static_cast<std::size_t>(i)];
    const std::uint32_t after = partitioner.shard_for(key_of(i));
    if (before != 2) {
      EXPECT_EQ(after, before) << "key " << i << " moved without touching shard 2";
    } else {
      EXPECT_NE(after, 2u);
    }
  }

  // Distinct seeds give distinct layouts (the salt reaches the scores).
  ShardPartitioner other(/*seed=*/43);
  for (std::uint32_t shard : {0u, 1u, 2u, 3u}) other.add_shard(shard);
  int differs = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (other.shard_for(key_of(i)) != owner[static_cast<std::size_t>(i)]) ++differs;
  }
  EXPECT_GT(differs, 0);
}

// ---- client: partitioned routing --------------------------------------------

/// Network stub that records submitted messages (no delivery).
struct RecordingNetwork final : public net::Network {
  std::vector<net::Message> sent;
  int endpoints;
  explicit RecordingNetwork(int n) : endpoints(n) {}
  void submit(net::Message message) override { sent.push_back(std::move(message)); }
  [[nodiscard]] int n() const override { return endpoints; }
  [[nodiscard]] std::uint64_t now() const override { return 0; }
  TimerId schedule_timer(int, std::uint64_t, TimerFn) override { return 0; }
  void cancel_timer(TimerId) override {}
};

TEST(PartitionedClientTest, RoutesByKeyOntoTheOwningShardsNetwork) {
  Rng rng(7);
  const auto deployment = adversary::Deployment::threshold(4, 1, rng);
  constexpr std::uint32_t kShards[] = {0, 1, 2, 3};

  PartitionedClient client(/*seed=*/42, /*on_reply=*/nullptr);
  std::map<std::uint32_t, std::unique_ptr<RecordingNetwork>> nets;
  for (const std::uint32_t shard : kShards) {
    auto net = std::make_unique<RecordingNetwork>(deployment.n() + 1);
    client.add_shard(shard, *net, deployment.n(), deployment, "svc",
                     app::Replica::Mode::kAtomic);
    nets.emplace(shard, std::move(net));
  }

  constexpr int kRequests = 200;
  std::map<std::uint32_t, std::uint64_t> expected;
  for (int i = 0; i < kRequests; ++i) {
    const auto handle = client.request(std::string_view("key-" + std::to_string(i)),
                                       bytes_of("op" + std::to_string(i)));
    EXPECT_EQ(handle.shard, client.partitioner().shard_for(key_of(i)))
        << "router disagreed with the partitioner";
    ++expected[handle.shard];
  }

  std::uint64_t routed_total = 0;
  for (const auto& [shard, count] : client.routed()) {
    EXPECT_EQ(count, expected[shard]);
    routed_total += count;
    // Broadcast mode sends each request to all n servers of ITS shard —
    // and to no other shard's network.
    EXPECT_EQ(nets[shard]->sent.size(), expected[shard] * static_cast<std::size_t>(deployment.n()));
  }
  EXPECT_EQ(routed_total, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(client.outstanding(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(client.completed(), 0u);
}

// ---- cluster: two groups × four parties over one transport ------------------

constexpr int kN = 4;
constexpr int kShards = 2;
constexpr int kPerShard = 2;
constexpr std::uint64_t kSeed = 17;

std::string shard_tag(int s) { return "shard" + std::to_string(s); }

struct ShardState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::vector<Bytes> delivered;  ///< written only by this group's lane
  std::atomic<std::size_t> total{0};
};

std::unique_ptr<ShardState> make_shard_state(net::Party& party, int shard) {
  auto state = std::make_unique<ShardState>();
  party.with_instance(shard_tag(shard), [&party, &state, shard] {
    state->abc = std::make_unique<AtomicBroadcast>(
        party, shard_tag(shard), [s = state.get()](int, Bytes payload) {
          s->delivered.push_back(std::move(payload));
          s->total.fetch_add(1, std::memory_order_release);
        });
  });
  return state;
}

using ShardedCluster = protocols::NetCluster<ShardState>;

/// kShards groups (one shared deployment) × kN nodes over one hub, one
/// shared ExecutorPool per node.
ShardedCluster make_cluster(const adversary::Deployment& deployment,
                            protocols::NetClusterShape shape) {
  return ShardedCluster(std::vector<adversary::Deployment>(kShards, deployment),
                        [](net::Party& party, int, int shard) {
                          party.enable_wal();
                          return make_shard_state(party, shard);
                        },
                        shape);
}

bool run_until_total(ShardedCluster& cluster, std::size_t per_shard_total) {
  return cluster.run_until([&] {
    for (int id = 0; id < kN; ++id) {
      for (int s = 0; s < kShards; ++s) {
        if (cluster.protocol(id, s).total.load(std::memory_order_acquire) < per_shard_total) {
          return false;
        }
      }
    }
    return true;
  });
}

void submit_all(ShardedCluster& cluster) {
  for (int s = 0; s < kShards; ++s) {
    for (int i = 0; i < kPerShard; ++i) {
      auto& host = cluster.host((s + i) % kN, s);
      host.party().with_instance(shard_tag(s), [&host, s, i] {
        host.protocol().abc->submit(bytes_of("s" + std::to_string(s) + "/p" + std::to_string(i)));
      });
    }
  }
}

TEST(ShardedClusterTest, TwoGroupsAgreeIndependentlyOverOneTransport) {
  Rng rng(23);
  const auto deployment = adversary::Deployment::threshold(kN, 1, rng);
  ShardedCluster cluster = make_cluster(deployment, {.executors = 4, .seed = kSeed});
  submit_all(cluster);
  ASSERT_TRUE(run_until_total(cluster, kPerShard));
  cluster.stop();

  // (a) agreement per group: every node delivers each group's payloads in
  // one order — multiplexing S groups over one link must not leak between
  // their protocol instances.
  for (int s = 0; s < kShards; ++s) {
    const auto& reference = cluster.protocol(0, s).delivered;
    ASSERT_EQ(reference.size(), static_cast<std::size_t>(kPerShard));
    for (int id = 1; id < kN; ++id) {
      EXPECT_EQ(cluster.protocol(id, s).delivered, reference)
          << "node " << id << " shard " << s << " disagrees";
    }
    // The two groups carried disjoint payload sets (no cross-delivery).
    for (const Bytes& payload : reference) {
      const std::string text(payload.begin(), payload.end());
      EXPECT_EQ(text.substr(0, 2), "s" + std::to_string(s));
    }
  }

  // (b) per-group WAL replay: each tenant's log restores into a fresh
  // sequential party and reproduces that tenant's sequence exactly.
  for (int s = 0; s < kShards; ++s) {
    const Bytes snapshot = cluster.host(0, s).snapshot();
    NetworkedNode::Config config;
    config.node_id = 0;
    config.n = kN;
    NetworkedNode replay_node(config);
    HostedParty<ShardState> replay(
        replay_node, 0, deployment, kSeed * 7919 + static_cast<std::uint64_t>(s),
        [s](net::Party& party) {
          party.enable_wal();
          return make_shard_state(party, s);
        });
    replay.restore(snapshot);
    EXPECT_EQ(replay.protocol().delivered, cluster.protocol(0, s).delivered)
        << "shard " << s << ": WAL replay diverged";
  }

  // (c) the coalescing claim: both groups' payloads rode shared BATCH
  // super-frames.  More payloads than frames means multi-payload frames;
  // one HMAC (and on TCP one sendmsg) covered each frame regardless of
  // how many groups' records it carried.
  const LoopbackHub::Stats wire = cluster.hub().stats();
  EXPECT_GT(wire.batches_sent, 0u);
  EXPECT_GT(wire.coalesced_payloads, wire.batches_sent)
      << "every frame carried a single payload — coalescing never engaged";
  EXPECT_EQ(wire.auth_failures, 0u);
}

TEST(ShardedClusterTest, TwoGroupsAgreeUnderChaosProfile) {
  // Dropped, duplicated, replayed and reordered multi-group BATCH
  // super-frames, and flapping links: retransmission must still route
  // every record to its own group, so each group's total order holds.
  Rng rng(29);
  const auto deployment = adversary::Deployment::threshold(kN, 1, rng);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ShardedCluster cluster = make_cluster(
        deployment,
        {.executors = 2, .seed = seed, .faults = LoopbackHub::FaultProfile::chaos()});
    submit_all(cluster);
    ASSERT_TRUE(run_until_total(cluster, kPerShard));
    cluster.stop();
    for (int s = 0; s < kShards; ++s) {
      const auto& reference = cluster.protocol(0, s).delivered;
      ASSERT_EQ(reference.size(), static_cast<std::size_t>(kPerShard));
      for (int id = 1; id < kN; ++id) {
        EXPECT_EQ(cluster.protocol(id, s).delivered, reference)
            << "node " << id << " shard " << s << " disagrees";
      }
    }
    for (int id = 0; id < kN; ++id) EXPECT_EQ(cluster.node(id).stats().unknown_group, 0u);
    EXPECT_GT(cluster.hub().stats().dropped_frames + cluster.hub().stats().duplicated_frames, 0u)
        << "the chaos profile never engaged";
  }
}

}  // namespace
}  // namespace sintra
