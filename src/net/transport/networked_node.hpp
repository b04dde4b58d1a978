// NetworkedNode — the multi-tenant host that runs one or more Processes
// (each a Party and its whole protocol stack, unchanged) over a single
// real transport.
//
// One NetworkedNode is one machine endpoint.  It can host S independent
// SINTRA groups ("tenants"): each group has its own Process, while all of
// them share this node's transport link, event loop, timer wheel, inbox
// pump and (machine-wide) executor pool.  A tenant sees the
// substrate through a GroupEndpoint — a Network facade that stamps every
// outbound payload with the tenant's group id (the per-record stamp,
// framing.hpp) and delegates time/timers to the host.  Group 0 is
// created in the constructor, and the node's own Network surface and
// attach() delegate to it, so a one-group host needs no GroupEndpoint at
// all.  There is one way to reach a transport: bind_transport_batched,
// whose payloads always carry their group stamp, and one way back in: the
// three-argument on_transport_receive.
//
// The node keeps no membership epoch: the transport's per-epoch link keys
// are the membership fence (framing.hpp), so every payload that reaches
// on_transport_receive already comes from a peer of this node's
// committee.
//
// The adapter owns the boundary between the transport's reactor thread
// and the protocol thread.  The transport delivers authenticated payloads
// on its own thread; on_transport_receive() routes them by group id to
// the owning tenant, decodes them into Messages and pushes them into a
// bounded inbox shared by all tenants (drop-oldest beyond the quota, so a
// flooding peer costs memory-bounded buffering, never the process).  A
// payload stamped with a group this host does not run is counted and
// dropped before it reaches any tenant.  The protocol thread drains the
// inbox with poll()/run_until(); each Party keeps its own write-ahead log
// of what it dispatches (net/party.hpp).
//
// Outbound traffic is buffered per peer — tenants interleaved, in submit
// order — and flushed by the pump thread at the tail of every poll():
// only the pump thread ever calls into the transport, and it hands over
// the whole per-peer batch of a pump cycle at once.  Because group ids
// ride per *record* inside the coalesced BATCH super-frame, a multi-shard
// flush still costs exactly one HMAC and one syscall per link.
//
// Time here is the monotonic clock in milliseconds: Network::now() and
// schedule_timer() delays are wall-clock, unlike the simulator's delivery
// steps — protocol code sees the same interface either way (see
// net/network.hpp for why timers live on the substrate).
//
// Threading contract: poll() and run_until() belong to the pump
// (protocol) thread.  submit(), schedule_timer(), cancel_timer() may be
// called from the pump thread or from executor threads;
// on_transport_receive() from any thread.  add_group() belongs to the
// wiring phase (before traffic flows).  stats() is thread-safe.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/executor.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"
#include "net/transport/link.hpp"
#include "net/transport/timer_wheel.hpp"

namespace sintra::common {
class WorkPool;
}  // namespace sintra::common

namespace sintra::net::transport {

class NetworkedNode final : public Network {
 public:
  struct Config {
    int node_id = 0;
    int n = 0;                      ///< network endpoints (servers + clients)
    std::size_t max_inbox = 8192;   ///< bounded inbox; beyond: drop-oldest
  };

  /// The transport entry: every payload buffered for `peer` during one
  /// pump cycle, in order, each stamped with its tenant's group id — the
  /// transport turns the whole vector into one coalesced super-frame.
  using SendManyFn = std::function<void(int peer, std::vector<GroupPayload> payloads)>;

  explicit NetworkedNode(Config config);

  // --- multi-tenant hosting --------------------------------------------
  /// A tenant's view of the substrate: a Network whose submit() stamps
  /// the tenant's group id on every payload, plus attach() for the
  /// tenant's process.  Obtained from add_group()/group(); owned by the
  /// host, valid for its lifetime.
  class GroupEndpoint final : public Network {
   public:
    void submit(Message message) override { host_->submit_group(gid_, std::move(message)); }
    [[nodiscard]] int n() const override { return host_->n(); }
    [[nodiscard]] std::uint64_t now() const override { return host_->now(); }
    TimerId schedule_timer(int owner, std::uint64_t delay_ms, TimerFn fn) override {
      return host_->schedule_timer(owner, delay_ms, std::move(fn));
    }
    void cancel_timer(TimerId id) override { host_->cancel_timer(id); }
    [[nodiscard]] TraceLog* log() override { return host_->log(); }

    /// The process receiving this group's deliveries (caller owns it).
    void attach(Process& process) { host_->tenant_attach(gid_, process); }
    [[nodiscard]] std::uint32_t group_id() const { return gid_; }

   private:
    friend class NetworkedNode;
    GroupEndpoint(NetworkedNode* host, std::uint32_t gid) : host_(host), gid_(gid) {}
    NetworkedNode* host_;
    std::uint32_t gid_;
  };

  /// Create (or fetch) the tenant slot for `gid`.  Wiring phase: call
  /// before traffic flows for the group.
  GroupEndpoint& add_group(std::uint32_t gid);
  /// The endpoint of an existing group (group 0 always exists).
  [[nodiscard]] GroupEndpoint& group(std::uint32_t gid);

  // --- Network (pump or executor threads); delegates to group 0 --------
  void submit(Message message) override { submit_group(0, std::move(message)); }
  [[nodiscard]] int n() const override { return config_.n; }
  /// Monotonic milliseconds since construction.
  [[nodiscard]] std::uint64_t now() const override;
  TimerId schedule_timer(int owner, std::uint64_t delay_ms, TimerFn fn) override;
  void cancel_timer(TimerId id) override;
  [[nodiscard]] TraceLog* log() override { return log_; }
  void set_log(TraceLog* log) { log_ = log; }

  // --- wiring ------------------------------------------------------------
  /// Group 0's process (caller owns it and calls on_start).
  void attach(Process& process) { tenant_attach(0, process); }
  /// The transport every tenant's outbound traffic is flushed through.
  void bind_transport_batched(SendManyFn send_many) { send_many_ = std::move(send_many); }

  /// Accepts a crypto work pool and ignores it: every share is checked
  /// on the protocol thread when it arrives, so nothing is offloaded.
  /// Kept for callers that still attach one.
  void set_work_pool(common::WorkPool* /*pool*/) {}

  /// Attach the protocol executor pool (not owned; may be shared
  /// machine-wide — notify hooks are multicast; also hand it to each
  /// Party via Party::set_executors).  The node only wires the pool's
  /// notify hook to the inbox condition variable, so run_until() wakes
  /// when executor-side work changes the done() condition or buffers
  /// outbound sends for the pump to flush.
  void set_executors(common::ExecutorPool* pool);

  /// Transport-side entry (any thread): route by group id, decode and
  /// enqueue one payload.  The view is only read during the call (the
  /// decoded Message owns its bytes), so transports can pass slices of
  /// their receive buffers — the zero-copy path from a BATCH super-frame
  /// to the inbox.  Malformed payloads from an authenticated peer, and
  /// payloads stamped with a group this host does not run, are counted
  /// and dropped — Byzantine input must not crash the node.
  void on_transport_receive(int from, std::uint32_t group, BytesView payload);

  // --- protocol-thread pump --------------------------------------------
  /// Fire due timers, dispatch every queued message to its tenant, then
  /// flush buffered outbound payloads to the transport (batched per
  /// peer, all tenants coalesced).  Returns messages dispatched.
  std::size_t poll();

  /// Pump until `done()` or `timeout_ms` elapses; sleeps on the inbox
  /// condition variable between batches.  Returns done()'s final value.
  /// With executors attached, done() runs on the pump thread while
  /// handlers run on executor threads — it must read atomics (or
  /// otherwise synchronized state), not raw protocol fields.
  bool run_until(const std::function<bool()>& done, std::uint64_t timeout_ms);

  struct Stats {
    std::uint64_t dispatched = 0;      ///< messages handed to a process
    std::uint64_t self_messages = 0;   ///< local submits looped back
    std::uint64_t dropped_inbox = 0;   ///< inbox quota overflow (oldest dropped)
    std::uint64_t malformed = 0;       ///< undecodable transport payloads
    std::uint64_t unknown_group = 0;   ///< payloads for a group not hosted here
    std::uint64_t outbound_flushes = 0;  ///< per-peer batches handed to the transport
    std::uint64_t outbound_payloads = 0; ///< payloads inside those batches
  };
  [[nodiscard]] Stats stats() const;

  // --- wire form of a Message over the transport -----------------------
  /// [str tag][bytes payload] — the group id is NOT in here: it rides the
  /// frame record (framing.hpp), where the transport can route without
  /// decoding protocol payloads.
  static Bytes encode_payload(const Message& message);
  /// Throws ProtocolError on malformed input.
  static Message decode_payload(int from, int to, BytesView payload);

 private:
  /// One hosted group.  Pointer-stable (owned via unique_ptr in a map, no
  /// erase), so inbox entries can carry a raw Tenant*.  `process` is a
  /// wiring-phase field read without the lock on the pump path.
  struct Tenant {
    Process* process = nullptr;
    std::unique_ptr<GroupEndpoint> endpoint;
  };

  struct InboxEntry {
    Tenant* tenant = nullptr;
    Message message;
  };

  // GroupEndpoint back-ends.
  void submit_group(std::uint32_t gid, Message message);
  void tenant_attach(std::uint32_t gid, Process& process);

  [[nodiscard]] Tenant& tenant(std::uint32_t gid);  ///< must exist
  void enqueue_inbound(Tenant& owner, Message message);
  void flush_outbound();

  Config config_;
  SendManyFn send_many_;
  common::ExecutorPool* executors_ = nullptr;
  TraceLog* log_ = nullptr;
  std::chrono::steady_clock::time_point start_;

  /// Guards wheel_: timers are scheduled from executor threads while the
  /// pump advances the wheel.  Recursive because firing callbacks (held
  /// lock) may re-schedule from the same thread in sequential mode.
  mutable std::recursive_mutex timer_mutex_;
  TimerWheel wheel_;
  std::uint64_t next_id_ = 1;  ///< guarded by mutex_

  mutable std::mutex mutex_;
  std::condition_variable inbox_cv_;
  std::deque<InboxEntry> inbox_;
  std::vector<std::deque<GroupPayload>> outbox_;  ///< per peer, flushed by the pump
  Stats stats_;

  /// Hosted groups; group 0 created in the constructor.  Guarded by
  /// mutex_ for lookup; entries are never erased, so Tenant* stays valid.
  std::map<std::uint32_t, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace sintra::net::transport
