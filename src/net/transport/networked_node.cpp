#include "net/transport/networked_node.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/serialize.hpp"

namespace sintra::net::transport {

NetworkedNode::NetworkedNode(Config config)
    : config_(config), start_(std::chrono::steady_clock::now()) {
  SINTRA_REQUIRE(config_.n >= 1 && config_.node_id >= 0 && config_.node_id < config_.n,
                 "networked_node: node_id out of range");
  SINTRA_REQUIRE(config_.max_inbox >= 1, "networked_node: inbox must hold something");
  outbox_.resize(static_cast<std::size_t>(config_.n));
  add_group(0);
}

NetworkedNode::GroupEndpoint& NetworkedNode::add_group(std::uint32_t gid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(gid);
  if (it == tenants_.end()) {
    auto slot = std::make_unique<Tenant>();
    slot->endpoint.reset(new GroupEndpoint(this, gid));
    it = tenants_.emplace(gid, std::move(slot)).first;
  }
  return *it->second->endpoint;
}

NetworkedNode::GroupEndpoint& NetworkedNode::group(std::uint32_t gid) {
  return *tenant(gid).endpoint;
}

NetworkedNode::Tenant& NetworkedNode::tenant(std::uint32_t gid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(gid);
  SINTRA_REQUIRE(it != tenants_.end(), "networked_node: unknown group");
  return *it->second;
}

void NetworkedNode::tenant_attach(std::uint32_t gid, Process& process) {
  tenant(gid).process = &process;
}

std::uint64_t NetworkedNode::now() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now() - start_)
                                        .count());
}

Bytes NetworkedNode::encode_payload(const Message& message) {
  Writer w;
  w.str(message.tag);
  w.bytes(message.payload);
  return w.take();
}

Message NetworkedNode::decode_payload(int from, int to, BytesView payload) {
  Reader reader(payload);
  Message message;
  message.from = from;
  message.to = to;
  message.tag = reader.str();
  message.payload = reader.bytes();
  reader.expect_done();
  return message;
}

void NetworkedNode::submit_group(std::uint32_t gid, Message message) {
  // Authenticated links: this node can only originate traffic as itself.
  // (The transport MAC enforces the same on the receiving side.)
  SINTRA_REQUIRE(message.from == config_.node_id, "networked_node: forged from");
  SINTRA_REQUIRE(message.to >= 0 && message.to < config_.n, "networked_node: bad to");
  message.sent_at = now();
  if (message.to == config_.node_id) {
    // Self-send loops back through the inbox, like the simulator.
    Tenant* owner = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = tenants_.find(gid);
      SINTRA_REQUIRE(it != tenants_.end(), "networked_node: unknown group");
      owner = it->second.get();
      message.id = next_id_++;
      ++stats_.self_messages;
    }
    enqueue_inbound(*owner, std::move(message));
    return;
  }
  // Remote sends park in the per-peer outbox, stamped with the tenant's
  // group id; only the pump thread talks to the transport
  // (single-threaded transports stay safe under executor threads) and it
  // hands over whole per-peer batches — all tenants interleaved — for
  // coalescing into one super-frame.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SINTRA_REQUIRE(tenants_.count(gid) != 0, "networked_node: unknown group");
    message.id = next_id_++;
    outbox_[static_cast<std::size_t>(message.to)].push_back(
        GroupPayload{gid, encode_payload(message)});
  }
  inbox_cv_.notify_one();  // wake the pump to flush
}

void NetworkedNode::on_transport_receive(int from, std::uint32_t group, BytesView payload) {
  if (from < 0 || from >= config_.n || from == config_.node_id) return;
  Message message;
  try {
    message = decode_payload(from, config_.node_id, payload);
  } catch (const ProtocolError&) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.malformed;
    return;
  }
  message.sent_at = now();
  Tenant* owner = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(group);
    if (it == tenants_.end()) {
      // A group this host does not run: a misrouted (or adversarially
      // stamped) record.  Count and drop — never crash, never hand it to
      // an actual tenant.
      ++stats_.unknown_group;
      return;
    }
    owner = it->second.get();
  }
  enqueue_inbound(*owner, std::move(message));
}

void NetworkedNode::enqueue_inbound(Tenant& owner, Message message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (inbox_.size() >= config_.max_inbox) {
      // Backpressure: drop the oldest queued message.  The transport's
      // link layer already delivered it, so this is the node's explicit
      // overload shedding — counted, bounded, never fatal.
      inbox_.pop_front();
      ++stats_.dropped_inbox;
    }
    inbox_.push_back(InboxEntry{&owner, std::move(message)});
  }
  inbox_cv_.notify_one();
}

void NetworkedNode::set_executors(common::ExecutorPool* pool) {
  executors_ = pool;
  if (executors_ != nullptr) {
    executors_->set_notify([this] { inbox_cv_.notify_one(); });
  }
}

void NetworkedNode::flush_outbound() {
  for (int peer = 0; peer < config_.n; ++peer) {
    std::deque<GroupPayload> pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (outbox_[static_cast<std::size_t>(peer)].empty()) continue;
      pending.swap(outbox_[static_cast<std::size_t>(peer)]);
    }
    // Only a node that actually has remote traffic needs a transport;
    // standalone nodes (self-sends, timers) never reach this point.
    SINTRA_REQUIRE(static_cast<bool>(send_many_), "networked_node: no transport bound");
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.outbound_flushes;
      stats_.outbound_payloads += pending.size();
    }
    std::vector<GroupPayload> batch;
    batch.reserve(pending.size());
    for (GroupPayload& payload : pending) batch.push_back(std::move(payload));
    send_many_(peer, std::move(batch));
  }
}

std::size_t NetworkedNode::poll() {
  {
    std::lock_guard<std::recursive_mutex> timer_lock(timer_mutex_);
    wheel_.advance_to(now());
  }
  std::deque<InboxEntry> batch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch.swap(inbox_);
  }
  std::size_t dispatched = 0;
  for (InboxEntry& entry : batch) {
    if (entry.tenant->process != nullptr) {
      entry.tenant->process->on_message(entry.message);
      ++dispatched;
    }
  }
  if (dispatched > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.dispatched += dispatched;
  }
  {
    std::lock_guard<std::recursive_mutex> timer_lock(timer_mutex_);
    wheel_.advance_to(now());
  }
  // Everything the dispatch batch (or executor handlers meanwhile)
  // buffered for a peer leaves as one batch — the coalescing unit.
  flush_outbound();
  return dispatched;
}

bool NetworkedNode::run_until(const std::function<bool()>& done, std::uint64_t timeout_ms) {
  const std::uint64_t deadline = now() + timeout_ms;
  while (true) {
    poll();
    if (done()) return true;
    const std::uint64_t current = now();
    if (current >= deadline) return done();
    std::uint64_t wait = std::min<std::uint64_t>(deadline - current, 50);
    {
      std::lock_guard<std::recursive_mutex> timer_lock(timer_mutex_);
      if (const auto next = wheel_.next_deadline()) {
        wait = std::min(wait, *next > current ? *next - current : 1);
      }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    inbox_cv_.wait_for(lock, std::chrono::milliseconds(wait), [this] {
      if (!inbox_.empty()) return true;
      for (const auto& pending : outbox_) {
        if (!pending.empty()) return true;
      }
      return false;
    });
  }
}

Network::TimerId NetworkedNode::schedule_timer(int owner, std::uint64_t delay_ms, TimerFn fn) {
  (void)owner;  // single-process substrate: everything runs as this node
  std::lock_guard<std::recursive_mutex> lock(timer_mutex_);
  return wheel_.schedule_at(std::max(now() + delay_ms, wheel_.now() + 1), std::move(fn));
}

void NetworkedNode::cancel_timer(TimerId id) {
  std::lock_guard<std::recursive_mutex> lock(timer_mutex_);
  wheel_.cancel(id);
}

NetworkedNode::Stats NetworkedNode::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sintra::net::transport
