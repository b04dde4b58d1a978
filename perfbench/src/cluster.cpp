#include "cluster.hpp"

#include <algorithm>
#include <thread>

#include "app/directory.hpp"
#include "app/notary.hpp"

namespace perfbench {

namespace {

using sintra::Bytes;
using sintra::BytesView;
using sintra::net::transport::GroupPayload;
using sintra::net::transport::NetworkedNode;

/// Client retry: a request with no receipt after this many milliseconds
/// is re-sent to every replica (doubling, at most kMaxRetries times).
constexpr std::uint64_t kRetryMs = 3000;
constexpr int kMaxRetries = 4;
/// The hub's retransmit/ack pass runs once nothing has moved for this
/// long (a link's retransmit timer; a loss-free hub never needs it to
/// make progress).
constexpr std::uint64_t kTickAfterIdleNs = 100'000'000;
constexpr std::uint64_t kIdleSleepNs = 50'000;

/// Executor-lane salts, one per replica, chosen so the replicas' instance
/// trees (all rooted at the service tag) spread evenly over the lanes.
std::vector<std::uint64_t> balanced_lane_groups(const sintra::common::ExecutorPool& pool) {
  std::vector<std::uint64_t> groups;
  std::uint64_t salt = 1;
  for (int id = 0; id < kReplicas; ++id) {
    const std::size_t target = static_cast<std::size_t>(id) % pool.executors();
    while (pool.executor_for(salt, kService) != target) ++salt;
    groups.push_back(salt++);
  }
  return groups;
}

}  // namespace

Cluster::Cluster(const sintra::adversary::Deployment& deployment, const ClusterConfig& config,
                 Trace& trace)
    : trace_(trace), hub_(kReplicas + config.clients, config.seed) {
  const int n = kReplicas + config.clients;
  const auto mode =
      config.directory ? sintra::app::Replica::Mode::kAtomic : sintra::app::Replica::Mode::kCausal;
  if (config.executors > 0) {
    executors_ = std::make_unique<sintra::common::ExecutorPool>(config.executors);
    work_pool_ = std::make_unique<sintra::common::WorkPool>(config.workers);
    lane_groups_ = balanced_lane_groups(*executors_);
  } else {
    lane_groups_.assign(kReplicas, 0);
  }

  for (int id = 0; id < n; ++id) {
    NetworkedNode::Config node_config;
    node_config.node_id = id;
    node_config.n = n;
    auto node = std::make_unique<NetworkedNode>(node_config);
    node->bind_transport_batched([this, id](int peer, std::vector<GroupPayload> payloads) {
      if (!trace_.enabled()) {
        hub_.send_many(id, peer, std::move(payloads));
        return;
      }
      const std::uint64_t start = now_ns();
      hub_.send_many(id, peer, std::move(payloads));
      pump.send_ns += now_ns() - start;
      ++pump.sends;
    });
    hub_.set_receiver(id, [raw = node.get()](int from, std::uint32_t group, BytesView payload) {
      raw->on_transport_receive(from, group, payload);
    });
    nodes_.push_back(std::move(node));
  }

  for (int id = 0; id < kReplicas; ++id) {
    NetworkedNode& node = *nodes_[static_cast<std::size_t>(id)];
    nets_.push_back(std::make_unique<CountingNetwork>(node, trace_, /*is_client=*/false));
    const std::uint64_t lane_group = lane_groups_[static_cast<std::size_t>(id)];
    auto host = std::make_unique<Host>(
        *nets_.back(), id, deployment, config.seed * 7919 + static_cast<std::uint64_t>(id),
        [&](sintra::net::Party& party) {
          auto state = std::make_unique<SvcState>();
          if (executors_) {
            party.set_executors(executors_.get());
            party.set_lane_group(lane_group);
            party.set_work_pool(work_pool_.get());
          }
          std::unique_ptr<sintra::app::StateMachine> machine;
          if (config.directory) {
            machine = std::make_unique<sintra::app::SecureDirectory>();
          } else {
            machine = std::make_unique<sintra::app::Notary>();
          }
          auto timed = std::make_unique<TimedStateMachine>(std::move(machine), trace_);
          party.with_instance(kService, [&] {
            state->replica =
                std::make_unique<sintra::app::Replica>(party, kService, mode, std::move(timed));
          });
          return state;
        });
    if (executors_) {
      node.set_executors(executors_.get());
      node.set_work_pool(work_pool_.get());
    }
    wrappers_.push_back(std::make_unique<TimedProcess>(*host, trace_, /*is_client=*/false,
                                                       /*replica0=*/id == 0, executors_.get(),
                                                       lane_group));
    node.attach(*wrappers_.back());
    replicas_.push_back(std::move(host));
  }

  for (int c = 0; c < config.clients; ++c) {
    const int id = kReplicas + c;
    NetworkedNode& node = *nodes_[static_cast<std::size_t>(id)];
    nets_.push_back(std::make_unique<CountingNetwork>(node, trace_, /*is_client=*/true));
    auto client = std::make_unique<sintra::app::ServiceClient>(
        *nets_.back(), id, deployment, kService, mode,
        config.seed * 31 + static_cast<std::uint64_t>(c),
        [this, c](std::uint64_t request_id, sintra::app::ServiceClient::Receipt receipt) {
          replies_.push_back(ReplyEvent{c, request_id, std::move(receipt)});
        });
    client->enable_retry(kRetryMs, kMaxRetries);
    wrappers_.push_back(std::make_unique<TimedProcess>(*client, trace_, /*is_client=*/true,
                                                       /*replica0=*/false, nullptr, 0));
    node.attach(*wrappers_.back());
    clients_.push_back(std::move(client));
  }
}

Cluster::~Cluster() {
  if (executors_) executors_->stop();
  if (work_pool_) work_pool_->stop();
}

std::uint64_t Cluster::issue(int c, Bytes body) {
  if (!trace_.enabled()) return client(c).request(std::move(body));
  const std::uint64_t start = now_ns();
  const std::uint64_t id = client(c).request(std::move(body));
  trace_.client_request.add(now_ns() - start);
  return id;
}

bool Cluster::pump_once() {
  const bool timed = trace_.enabled();
  bool progressed = false;
  const std::uint64_t poll_start = timed ? now_ns() : 0;
  for (auto& node : nodes_) progressed = node->poll() > 0 || progressed;
  const std::uint64_t step_start = timed ? now_ns() : 0;
  std::size_t steps = 0;
  while (steps < nodes_.size() && hub_.step()) ++steps;
  if (timed) {
    const std::uint64_t end = now_ns();
    pump.poll_ns += step_start - poll_start;
    pump.step_ns += end - step_start;
    pump.frames += steps;
  }
  if (progressed || steps > 0) {
    last_progress_ns_ = now_ns();
    return true;
  }
  return false;
}

void Cluster::idle(std::uint64_t max_ns) {
  const std::uint64_t start = now_ns();
  if (start - std::max(last_progress_ns_, last_tick_ns_) >= kTickAfterIdleNs) {
    hub_.tick();
    last_tick_ns_ = start;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(std::min(max_ns, kIdleSleepNs)));
  if (trace_.enabled()) pump.idle_ns += now_ns() - start;
}

std::vector<ReplyEvent> Cluster::take_replies() {
  std::vector<ReplyEvent> out;
  out.swap(replies_);
  return out;
}

bool Cluster::quiesce(std::uint64_t quiet_ms, std::uint64_t timeout_ms) {
  const std::uint64_t start = now_ns();
  std::uint64_t last_progress = start;
  // Either way out, no executor task may still be running: the caller
  // reads replica state from this thread next.
  struct Settle {
    Cluster& c;
    ~Settle() {
      if (c.executors_) c.executors_->wait_idle();
    }
  } settle{*this};
  while (true) {
    bool progressed = pump_once();
    if (!progressed && executors_) {
      executors_->wait_idle();
      work_pool_->wait_idle();
      progressed = pump_once();
    }
    const std::uint64_t now = now_ns();
    if (progressed) {
      last_progress = now;
    } else if (now - last_progress >= quiet_ms * 1'000'000) {
      return true;
    } else {
      idle(kIdleSleepNs);
    }
    if (now - start >= timeout_ms * 1'000'000) return false;
  }
}

Cluster::NodeTotals Cluster::node_totals() const {
  NodeTotals totals;
  for (const auto& node : nodes_) {
    const NetworkedNode::Stats stats = node->stats();
    totals.dispatched += stats.dispatched;
    totals.outbound_flushes += stats.outbound_flushes;
    totals.outbound_payloads += stats.outbound_payloads;
    totals.dropped_inbox += stats.dropped_inbox;
  }
  return totals;
}

std::uint64_t Cluster::retransmits() const {
  std::uint64_t total = 0;
  const int n = static_cast<int>(nodes_.size());
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b) total += hub_.link(a, b).stats().retransmitted;
    }
  }
  return total;
}

sintra::common::ExecutorPool::Stats Cluster::executor_stats() const {
  return executors_ ? executors_->stats() : sintra::common::ExecutorPool::Stats{};
}

std::size_t Cluster::pump_threads() const {
  return 1 + (executors_ ? executors_->executors() : 0) + (work_pool_ ? work_pool_->threads() : 0);
}

void Cluster::sample_queues() {
  auto sample = [this] {
    sintra::app::Replica& r = replica(0);
    trace_.inflight_sum.fetch_add(r.inflight(), std::memory_order_relaxed);
    trace_.abc_queue_sum.fetch_add(r.atomic() != nullptr ? r.atomic()->queue_size() : 0,
                                   std::memory_order_relaxed);
    trace_.queue_samples.fetch_add(1, std::memory_order_relaxed);
  };
  if (!executors_) {
    sample();
    return;
  }
  executors_->post(executors_->executor_for(lane_groups_[0], kService), sample);
}

std::uint64_t Cluster::replica_busy() const {
  std::uint64_t total = 0;
  for (const auto& host : replicas_) total += host->protocol().replica->busy_sent();
  return total;
}

std::uint64_t Cluster::client_busy() const {
  std::uint64_t total = 0;
  for (const auto& client : clients_) total += client->busy_replies();
  return total;
}

}  // namespace perfbench
