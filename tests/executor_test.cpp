// Multi-core protocol executors (issue 7 tentpole).
//
// Unit layer: the ExecutorPool's routing and ordering contract — stable
// tag-root assignment, per-tree FIFO under concurrent producers, drain-on-
// stop, inline sequential mode.
//
// Cluster layer: four NetworkedNode+LoopbackHub parties each hosting G
// independent atomic broadcast groups, run with 0 and with 4 executors.
// True concurrent runs cannot be instruction-identical to sequential ones
// across groups, so the assertions target what the design guarantees:
//   (a) within one run, every node agrees on each group's delivery order
//       (atomic broadcast safety is untouched by executor routing);
//   (b) the delivered payload sets are identical between E=0 and E=4;
//   (c) a node's WAL snapshot taken after the *concurrent* run restores
//       into a fresh sequential party and reproduces that node's per-group
//       delivery sequences exactly — the determinism half of the contract
//       (WAL appends stay in pump arrival order, replay is inline).
// Run under TSan via the `transport` CI label: the same test doubles as
// the data-race probe for the whole Party/ExecutorPool/outbox path.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adversary/quorum.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"
#include "protocols/atomic.hpp"
#include "protocols/net_cluster.hpp"

namespace sintra {
namespace {

using common::ExecutorPool;
using net::transport::LoopbackHub;
using net::transport::NetworkedNode;
using protocols::AtomicBroadcast;
using protocols::HostedParty;

// ---- unit: pool mechanics ---------------------------------------------------

TEST(ExecutorPoolTest, TagRootTakesPrefixBeforeSlash) {
  EXPECT_EQ(ExecutorPool::tag_root("abc0/rbc/5/echo"), "abc0");
  EXPECT_EQ(ExecutorPool::tag_root("abc0"), "abc0");
  EXPECT_EQ(ExecutorPool::tag_root(""), "");
  EXPECT_EQ(ExecutorPool::tag_root("/x"), "");
}

TEST(ExecutorPoolTest, AssignmentIsStableAndTreeWide) {
  ExecutorPool pool(4);
  // Every tag in one instance tree routes to the same executor; the
  // assignment is a pure function of the root segment.
  const std::size_t lane = pool.executor_for("abc2");
  EXPECT_EQ(pool.executor_for("abc2/rbc/0"), lane);
  EXPECT_EQ(pool.executor_for("abc2/vba/7/echo"), lane);
  EXPECT_EQ(pool.executor_for("abc2"), lane);
  EXPECT_EQ(ExecutorPool::tag_hash(ExecutorPool::tag_root("abc2/rbc/0")),
            ExecutorPool::tag_hash("abc2"));
  EXPECT_NE(ExecutorPool::tag_hash("abc1"), ExecutorPool::tag_hash("abc2"));
  pool.stop();
}

TEST(ExecutorPoolTest, PerTreeFifoUnderConcurrentProducers) {
  constexpr int kTags = 8;
  constexpr int kPerTag = 500;
  ExecutorPool pool(4);
  // One result vector per tag: all tasks of a tag run on one lane in post
  // order, so appends to its vector are serialized by construction — TSan
  // verifies exactly that claim.
  std::vector<std::vector<int>> seen(kTags);
  std::vector<std::thread> producers;
  producers.reserve(kTags);
  for (int tag = 0; tag < kTags; ++tag) {
    producers.emplace_back([&pool, &seen, tag] {
      const std::string name = "tree" + std::to_string(tag);
      const std::size_t lane = pool.executor_for(name);
      for (int i = 0; i < kPerTag; ++i) {
        pool.post(lane, [&seen, tag, i] { seen[static_cast<std::size_t>(tag)].push_back(i); });
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.wait_idle();
  pool.stop();
  const ExecutorPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.posted, static_cast<std::uint64_t>(kTags) * kPerTag);
  for (int tag = 0; tag < kTags; ++tag) {
    const auto& order = seen[static_cast<std::size_t>(tag)];
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kPerTag));
    for (int i = 0; i < kPerTag; ++i) {
      ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "tag " << tag << ": FIFO violated";
    }
  }
}

TEST(ExecutorPoolTest, StopDrainsEverythingThenRunsInline) {
  std::atomic<int> ran{0};
  ExecutorPool pool(2);
  for (int i = 0; i < 1000; ++i) {
    pool.post(static_cast<std::size_t>(i) % 2, [&ran] { ran.fetch_add(1); });
  }
  pool.stop();
  EXPECT_EQ(ran.load(), 1000) << "stop() must drain, not discard";
  pool.post(0, [&ran] { ran.fetch_add(1); });  // post-after-stop runs inline
  EXPECT_EQ(ran.load(), 1001);
  pool.stop();  // idempotent
}

TEST(ExecutorPoolTest, SequentialModeRunsInline) {
  ExecutorPool pool(0);
  EXPECT_TRUE(pool.sequential());
  EXPECT_EQ(pool.executors(), 0u);
  int ran = 0;
  pool.post(pool.executor_for("any"), [&ran] { ++ran; });
  EXPECT_EQ(ran, 1) << "sequential post must run before returning";
  pool.wait_idle();  // trivially idle
}

// ---- cluster: multi-group atomic broadcast, E=0 vs E=4 ----------------------

constexpr int kN = 4;
constexpr int kGroups = 3;
constexpr int kPerGroup = 2;
constexpr std::uint64_t kSeed = 11;

std::string group_tag(int g) { return "abc" + std::to_string(g); }

struct MultiState {
  std::vector<std::unique_ptr<AtomicBroadcast>> groups;
  /// delivered[g] is only ever written by group g's instance tree — one
  /// executor lane — so it needs no lock; `total` is what the (racing)
  /// pump-side done() predicate reads.
  std::vector<std::vector<Bytes>> delivered;
  std::atomic<std::size_t> total{0};
};

std::unique_ptr<MultiState> make_multi_state(net::Party& party) {
  auto state = std::make_unique<MultiState>();
  state->delivered.resize(kGroups);
  for (int g = 0; g < kGroups; ++g) {
    // Construct each group inside with_instance so construction-time
    // handler registrations and timers belong to that group's tree.
    party.with_instance(group_tag(g), [&party, &state, g] {
      state->groups.push_back(std::make_unique<AtomicBroadcast>(
          party, group_tag(g), [s = state.get(), g](int, Bytes payload) {
            s->delivered[static_cast<std::size_t>(g)].push_back(std::move(payload));
            s->total.fetch_add(1, std::memory_order_release);
          }));
    });
  }
  return state;
}

using ExecCluster = protocols::NetCluster<MultiState>;

std::unique_ptr<ExecCluster> make_cluster(const adversary::Deployment& deployment,
                                          std::size_t executors) {
  return std::make_unique<ExecCluster>(
      std::vector<adversary::Deployment>{deployment},
      [](net::Party& party, int, int) {
        party.enable_wal();
        return make_multi_state(party);
      },
      protocols::NetClusterShape{.executors = executors, .seed = kSeed});
}

bool run_until_total(ExecCluster& cluster, std::size_t total) {
  return cluster.run_until([&] {
    for (int id = 0; id < kN; ++id) {
      if (cluster.protocol(id).total.load(std::memory_order_acquire) < total) return false;
    }
    return true;
  });
}

Bytes payload_for(int g, int i) {
  return bytes_of("g" + std::to_string(g) + "/p" + std::to_string(i));
}

void submit_all(ExecCluster& cluster) {
  for (int g = 0; g < kGroups; ++g) {
    for (int i = 0; i < kPerGroup; ++i) {
      auto& host = cluster.host((g + i) % kN);
      // External submits are out-of-band touches of the group's tree:
      // scope them so concurrent mode attributes the self-send correctly.
      host.party().with_instance(group_tag(g), [&host, g, i] {
        host.protocol().groups[static_cast<std::size_t>(g)]->submit(payload_for(g, i));
      });
    }
  }
}

/// Every payload a node delivered, across groups, as an unordered multiset.
std::multiset<Bytes> delivered_set(const MultiState& state) {
  std::multiset<Bytes> set;
  for (const auto& group : state.delivered) {
    for (const Bytes& payload : group) set.insert(payload);
  }
  return set;
}

TEST(ExecutorClusterTest, ConcurrentRunAgreesMatchesSequentialAndReplays) {
  Rng rng(41);
  const auto deployment = adversary::Deployment::threshold(kN, 1, rng);
  constexpr auto kTotal = static_cast<std::size_t>(kGroups) * kPerGroup;

  auto run = [&deployment](std::size_t executors) {
    auto cluster = make_cluster(deployment, executors);
    submit_all(*cluster);
    EXPECT_TRUE(run_until_total(*cluster, kTotal)) << "executors=" << executors;
    cluster->stop();
    return cluster;
  };
  const auto sequential = run(0);
  const auto concurrent = run(4);

  // (a) agreement: within each run, all nodes deliver each group's
  // payloads in the same order — safety is independent of executor count.
  for (auto* cluster : {sequential.get(), concurrent.get()}) {
    const MultiState& reference = cluster->protocol(0);
    for (int id = 1; id < kN; ++id) {
      for (int g = 0; g < kGroups; ++g) {
        EXPECT_EQ(cluster->protocol(id).delivered[static_cast<std::size_t>(g)],
                  reference.delivered[static_cast<std::size_t>(g)])
            << "node " << id << " group " << g << " disagrees on delivery order";
      }
    }
  }

  // (b) executor count changes scheduling, never the delivered contents.
  EXPECT_EQ(delivered_set(sequential->protocol(0)), delivered_set(concurrent->protocol(0)));

  // (c) replay determinism: snapshot node 0 of the concurrent run, restore
  // into a fresh party with no executors.  The WAL was appended on the
  // pump thread in arrival order and replay runs inline, so the rebuilt
  // node must reproduce the concurrent node's per-group sequences exactly.
  const Bytes snapshot = concurrent->host(0).snapshot();
  NetworkedNode::Config config;
  config.node_id = 0;
  config.n = kN;
  NetworkedNode replay_node(config);
  HostedParty<MultiState> replay_host(replay_node, 0, deployment, kSeed * 7919,
                                      [](net::Party& party) {
                                        party.enable_wal();
                                        return make_multi_state(party);
                                      });
  replay_host.restore(snapshot);
  const MultiState& original = concurrent->protocol(0);
  const MultiState& replayed = replay_host.protocol();
  for (int g = 0; g < kGroups; ++g) {
    EXPECT_EQ(replayed.delivered[static_cast<std::size_t>(g)],
              original.delivered[static_cast<std::size_t>(g)])
        << "group " << g << ": sequential replay diverged from the concurrent run";
  }

  // Wire-level coalescing on the same traffic: payloads rode BATCH
  // super-frames (one HMAC each), never one frame per payload.
  const LoopbackHub::Stats wire = concurrent->hub().stats();
  EXPECT_GT(wire.batches_sent, 0u);
  EXPECT_GE(wire.coalesced_payloads, wire.batches_sent);
  EXPECT_EQ(wire.auth_failures, 0u);
}

}  // namespace
}  // namespace sintra
