// In-process trusted-service deployment: 4 replica NetworkedNodes and one
// NetworkedNode per client endpoint (ids >= 4) over one LoopbackHub, each
// bound with bind_transport_batched.  One pump thread drives everything:
// it polls every node and steps the hub.  With executors > 0 the replicas
// share one machine-wide ExecutorPool (lanes salted per node) and one
// WorkPool; otherwise every handler runs inline on the pump thread.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/quorum.hpp"
#include "app/client.hpp"
#include "app/replica.hpp"
#include "common/executor.hpp"
#include "common/work_pool.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"
#include "protocols/harness.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr int kReplicas = 4;
inline constexpr const char* kService = "svc";

struct ClusterConfig {
  bool directory = true;  ///< SecureDirectory (atomic mode), else Notary (causal mode)
  int clients = 1;
  std::size_t executors = 0;  ///< 0: sequential pump, no pools
  std::size_t workers = 0;    ///< WorkPool threads (only with executors)
  std::uint64_t seed = 1;
};

/// A receipt handed to a client's reply callback, processed after poll().
struct ReplyEvent {
  int client = 0;
  std::uint64_t request_id = 0;
  sintra::app::ServiceClient::Receipt receipt;
};

/// Pump-thread time and counts; accumulated only while the trace is on.
struct PumpCounters {
  std::uint64_t poll_ns = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t send_ns = 0;  ///< hub.send_many inside poll (transport flush)
  std::uint64_t sends = 0;
  std::uint64_t idle_ns = 0;  ///< sleeping with nothing to do
  std::uint64_t frames = 0;   ///< frames stepped
};

class Cluster {
 public:
  Cluster(const sintra::adversary::Deployment& deployment, const ClusterConfig& config,
          Trace& trace);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] int clients() const { return static_cast<int>(clients_.size()); }
  [[nodiscard]] sintra::app::ServiceClient& client(int c) { return *clients_.at(c); }
  [[nodiscard]] sintra::app::Replica& replica(int id) {
    return *replicas_.at(id)->protocol().replica;
  }

  /// ServiceClient::request, timed while the trace is on.
  std::uint64_t issue(int c, sintra::Bytes body);

  /// Poll every node once, then deliver up to one frame per node.
  /// Returns whether anything moved.
  bool pump_once();

  /// Nothing moved: sleep briefly (bounded by `max_ns`); after a long
  /// stall run the hub's retransmit/ack pass, as a link timer would.
  void idle(std::uint64_t max_ns);

  /// Receipts that arrived since the last call.
  std::vector<ReplyEvent> take_replies();

  /// Pump until no node, frame or executor task moves for `quiet_ms`
  /// (false if `timeout_ms` passes first).  Returns with every executor
  /// idle, so replica state can then be read from the pump thread.
  bool quiesce(std::uint64_t quiet_ms, std::uint64_t timeout_ms);

  // --- public accessors read by the benchmark ------------------------
  struct NodeTotals {
    std::uint64_t dispatched = 0;
    std::uint64_t outbound_flushes = 0;
    std::uint64_t outbound_payloads = 0;
    std::uint64_t dropped_inbox = 0;
  };
  [[nodiscard]] NodeTotals node_totals() const;
  [[nodiscard]] const sintra::net::transport::LoopbackHub::Stats& hub_stats() const {
    return hub_.stats();
  }
  [[nodiscard]] std::uint64_t retransmits() const;
  [[nodiscard]] sintra::common::ExecutorPool::Stats executor_stats() const;
  [[nodiscard]] bool concurrent() const { return executors_ != nullptr; }
  [[nodiscard]] std::size_t pump_threads() const;

  /// Add one sample of replica 0's Replica::inflight() and atomic queue
  /// size to the trace, read on the thread that owns the replica.
  void sample_queues();

  /// Busy replies sent by replicas / received by clients so far.
  [[nodiscard]] std::uint64_t replica_busy() const;
  [[nodiscard]] std::uint64_t client_busy() const;

  PumpCounters pump;

 private:
  struct SvcState {
    std::unique_ptr<sintra::app::Replica> replica;
  };
  using Host = sintra::protocols::HostedParty<SvcState>;

  Trace& trace_;
  sintra::net::transport::LoopbackHub hub_;
  std::vector<std::unique_ptr<sintra::net::transport::NetworkedNode>> nodes_;
  std::vector<std::unique_ptr<CountingNetwork>> nets_;
  std::vector<std::uint64_t> lane_groups_;
  std::vector<std::unique_ptr<Host>> replicas_;
  std::vector<std::unique_ptr<sintra::app::ServiceClient>> clients_;
  std::vector<std::unique_ptr<TimedProcess>> wrappers_;
  std::vector<ReplyEvent> replies_;
  std::uint64_t last_progress_ns_ = now_ns();
  std::uint64_t last_tick_ns_ = 0;
  // Pools last: they stop (draining tasks that touch parties and nodes)
  // before anything they reference is destroyed.
  std::unique_ptr<sintra::common::WorkPool> work_pool_;
  std::unique_ptr<sintra::common::ExecutorPool> executors_;
};

}  // namespace perfbench
