// Networked cluster harness: n NetworkedNodes, each hosting G groups,
// wired through one LoopbackHub — the host code that ships (framing,
// MACs, ReliableLink, the multi-tenant pump, the executor pool)
// with the asynchronous, adversarial network of the model played by the
// hub's seeded fault and partition profiles.  The networked counterpart
// of Cluster (harness.hpp); header-only convenience for tests and
// benchmarks, not used by the protocols themselves.
//
// Node `id` hosts one HostedParty per group g, built by
// `factory(party, id, g)` on its own GroupEndpoint from group g's
// Deployment, with party seed `seed·7919 + id·G + g` (for G = 1 the same
// seed the simulator Cluster uses).  With E executors each node gets its
// own ExecutorPool(E), shared by its tenants, with lanes salted by group
// id.  kill() and build() take one node down
// (process gone, WAL with it) and bring a blank incarnation back.
//
// One thread pumps everything: run_until() is the pump thread of every node.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "adversary/quorum.hpp"
#include "common/assert.hpp"
#include "common/executor.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"
#include "protocols/harness.hpp"

namespace sintra::protocols {

/// Everything about a NetCluster besides its groups and factory.
struct NetClusterShape {
  std::size_t executors = 0;  ///< E: ExecutorPool per node (0 = inline dispatch)
  std::uint64_t seed = 1;     ///< hub seed; party seeds derive from it
  net::transport::LoopbackHub::FaultProfile faults = {};
};

template <typename P>
class NetCluster {
 public:
  /// Build node `id`'s protocol object for group `group` on `party`.  The
  /// party already has this node's pool and its lane salt.
  using Factory = std::function<std::unique_ptr<P>(net::Party& party, int id, int group)>;

  /// One Deployment per group (all with the same n); every node is built.
  NetCluster(std::vector<adversary::Deployment> groups, Factory factory,
             NetClusterShape shape = {})
      : groups_(std::move(groups)),
        factory_(std::move(factory)),
        shape_(shape),
        hub_(groups_.at(0).n(), shape.seed, shape.faults, net::transport::LinkConfig{}),
        nodes_(static_cast<std::size_t>(groups_.at(0).n())) {
    for (const adversary::Deployment& group : groups_) {
      SINTRA_REQUIRE(group.n() == n(), "net_cluster: every group needs the same n");
    }
    for (int id = 0; id < n(); ++id) build(id);
  }

  ~NetCluster() { stop(); }

  NetCluster(const NetCluster&) = delete;
  NetCluster& operator=(const NetCluster&) = delete;

  /// Build node `id` blank: a fresh node, a fresh pool and a fresh party
  /// per group, receiving from the hub again.
  void build(int id) {
    Node& slot = nodes_[static_cast<std::size_t>(id)];
    SINTRA_REQUIRE(slot.node == nullptr, "net_cluster: node is already up");
    net::transport::NetworkedNode::Config config;
    config.node_id = id;
    config.n = n();
    slot.node = std::make_unique<net::transport::NetworkedNode>(config);
    if (shape_.executors > 0) {
      slot.executors = std::make_unique<common::ExecutorPool>(shape_.executors);
      slot.node->set_executors(slot.executors.get());
    }
    for (int g = 0; g < groups(); ++g) {
      auto& endpoint = slot.node->add_group(static_cast<std::uint32_t>(g));
      const auto party_seed = shape_.seed * 7919 +
                              static_cast<std::uint64_t>(id) * static_cast<std::uint64_t>(groups()) +
                              static_cast<std::uint64_t>(g);
      auto host = std::make_unique<HostedParty<P>>(
          endpoint, id, groups_[static_cast<std::size_t>(g)], party_seed,
          [this, &slot, id, g](net::Party& party) {
            party.set_executors(slot.executors.get());
            // Tenants sharing one pool run the same tags: distinct lane
            // salts keep them from serializing on one lane.
            party.set_lane_group(static_cast<std::uint64_t>(g));
            return factory_(party, id, g);
          });
      endpoint.attach(*host);
      slot.hosts.push_back(std::move(host));
    }
    slot.node->bind_transport_batched(
        [this, id](int peer, std::vector<net::transport::GroupPayload> payloads) {
          hub_.send_many(id, peer, std::move(payloads));
        });
    hub_.set_receiver(id, [raw = slot.node.get()](int from, std::uint32_t group,
                                                  BytesView payload) {
      raw->on_transport_receive(from, group, payload);
    });
  }

  /// SIGKILL node `id`: its pool stops, then its parties (and their
  /// in-memory WALs) and its node are destroyed without a snapshot.
  /// Frames addressed to it are dropped until build(id).
  void kill(int id) {
    hub_.set_receiver(id, nullptr);
    Node& slot = nodes_[static_cast<std::size_t>(id)];
    stop_pool(slot);
    slot.hosts.clear();
    slot.node.reset();
    slot.executors.reset();
  }

  /// Pump every node and the hub until `done()` (read on this thread, so
  /// under executors it must read synchronized state) or `max_iters`
  /// passes.  A pass that moves nothing waits for every pool to go idle,
  /// polls what they left behind and runs a retransmit/ack tick; if that
  /// moves nothing either, only wall-clock timers are left, so it sleeps.
  bool run_until(const std::function<bool()>& done, std::size_t max_iters = 5'000'000) {
    for (std::size_t iter = 0; iter < max_iters; ++iter) {
      if (done()) return true;
      if (poll_all() || hub_.step()) continue;
      wait_idle();
      // Every frame put on a wire costs the hub one HMAC: a flush of what
      // the pools buffered, or a retransmit/ack from the tick, is progress.
      const std::uint64_t frames = hub_.stats().hmacs_computed;
      const bool polled = poll_all();
      hub_.tick();
      if (!polled && hub_.stats().hmacs_computed == frames) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    }
    return done();
  }

  /// Block until every live node's pool has no work left.
  void wait_idle() {
    for (Node& slot : nodes_) {
      if (slot.executors) slot.executors->wait_idle();
    }
  }

  /// Stop (drain and join) every pool; afterwards protocol state reads
  /// from this thread are synchronized.
  void stop() {
    for (Node& slot : nodes_) stop_pool(slot);
  }

  [[nodiscard]] int n() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] int groups() const { return static_cast<int>(groups_.size()); }
  [[nodiscard]] net::transport::LoopbackHub& hub() { return hub_; }
  /// Node `id` (must be up).
  [[nodiscard]] net::transport::NetworkedNode& node(int id) {
    return *nodes_[static_cast<std::size_t>(id)].node;
  }
  [[nodiscard]] HostedParty<P>& host(int id, int group = 0) {
    return *nodes_[static_cast<std::size_t>(id)].hosts[static_cast<std::size_t>(group)];
  }
  [[nodiscard]] P& protocol(int id, int group = 0) { return host(id, group).protocol(); }

 private:
  struct Node {
    std::unique_ptr<common::ExecutorPool> executors;
    std::unique_ptr<net::transport::NetworkedNode> node;
    std::vector<std::unique_ptr<HostedParty<P>>> hosts;  ///< [group]; destroyed first
  };

  static void stop_pool(Node& slot) {
    if (slot.executors) slot.executors->stop();
  }

  /// One dispatch pass over every live node; true if anything ran.
  bool poll_all() {
    bool progressed = false;
    for (Node& slot : nodes_) {
      if (slot.node) progressed = (slot.node->poll() > 0) || progressed;
    }
    return progressed;
  }

  std::vector<adversary::Deployment> groups_;
  Factory factory_;
  NetClusterShape shape_;
  net::transport::LoopbackHub hub_;
  std::vector<Node> nodes_;
};

}  // namespace sintra::protocols
