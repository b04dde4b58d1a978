// The honest protocol host: routes messages to protocol instances by tag,
// buffers out-of-order traffic, and exposes the party's identity, dealt
// keys, failure model, and randomness to the protocol objects it hosts.
//
// Self-addressed messages bypass the network adversary: a party's messages
// to itself model internal state transitions, which no network scheduler
// can delay (they are delivered from a local queue before control returns
// to the simulator).
//
// Resource governance (issue 4): traffic buffered here for not-yet-
// registered tags is metered through a ResourceBudget (per-peer, per-
// instance and total byte caps), so a Byzantine peer spraying bogus
// instance tags cannot grow the buffer without bound.  Completed protocol
// instances retire their tag subtrees — late traffic for a retired tag is
// dropped instead of buffered, and the tag's write-ahead-log entries are
// pruned once a registered checkpoint captures their effects (WAL
// compaction: restarts stop resurrecting dead state).
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>

#include "adversary/quorum.hpp"
#include "common/executor.hpp"
#include "common/serialize.hpp"
#include "net/budget.hpp"
#include "net/simulator.hpp"

namespace sintra::common {
class WorkPool;
}  // namespace sintra::common

namespace sintra::net {

class Party : public Process {
 public:
  /// Handler for one protocol instance; `from` is authenticated by the
  /// network substrate.  Handlers may throw ProtocolError to reject
  /// malformed (Byzantine) input — the party drops the message and keeps
  /// running.
  using Handler = std::function<void(int from, Reader& reader)>;
  /// WAL-compaction checkpoint for one instance: save() serializes the
  /// instance's durable state at snapshot time; load() reinstates it into
  /// a freshly rebuilt instance before the remaining WAL suffix replays.
  using CheckpointSave = std::function<Bytes()>;
  using CheckpointLoad = std::function<void(Reader&)>;

  /// `network` is either the deterministic Simulator or a NetworkedNode
  /// over a real transport; the protocol stack cannot tell the difference.
  Party(Network& network, int id, adversary::Deployment deployment, std::uint64_t seed);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int n() const { return deployment_.n(); }
  [[nodiscard]] const adversary::Deployment& deployment() const { return deployment_; }
  [[nodiscard]] const adversary::QuorumSystem& quorum() const { return *deployment_.quorum; }
  [[nodiscard]] const crypto::PublicKeys& public_keys() const {
    return deployment_.keys->public_keys();
  }
  [[nodiscard]] const crypto::PartyKeyShare& keys() const {
    return deployment_.keys->share(id_);
  }
  [[nodiscard]] Rng& rng();
  [[nodiscard]] Network& network() { return network_; }

  /// Buffered-bytes governance.  Configure caps before traffic flows;
  /// protocol buffers charge through this object (see net/budget.hpp).
  [[nodiscard]] ResourceBudget& budget() { return budget_; }
  [[nodiscard]] const ResourceBudget& budget() const { return budget_; }
  void set_budget(BudgetConfig config) { budget_.configure(config); }

  void send(int to, const std::string& tag, Bytes payload);
  /// Send to every party, self included (self copy delivered locally).
  void broadcast(const std::string& tag, const Bytes& payload);

  /// Timer in this party's execution context, in network time units
  /// (delivery steps under the simulator, milliseconds over a real
  /// transport).  See Network::schedule_timer for the semantics.  In
  /// concurrent mode the callback is re-posted to the executor of the
  /// instance tree that scheduled it, so timers never race with message
  /// handlers of the same tree.
  Network::TimerId schedule_timer(std::uint64_t delay, Network::TimerFn fn);
  void cancel_timer(Network::TimerId id) { network_.cancel_timer(id); }

  /// Register the handler for `tag`; any buffered messages for it are
  /// re-dispatched in arrival order.
  void register_handler(const std::string& tag, Handler handler);
  /// Remove the handler for `tag` (instance destruction).  No-op if the
  /// tag is not registered.
  void unregister_handler(const std::string& tag);
  [[nodiscard]] bool has_handler(const std::string& tag) const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return handlers_.contains(tag);
  }

  /// Instance GC: tombstone `prefix` — late traffic for the tag or its
  /// subtree is dropped (not buffered), buffered messages under it are
  /// freed, its WAL entries are pruned and its budget charges released.
  /// The tombstone set is bounded (oldest retired first) and persists
  /// across crash-restore so replay does not resurrect retired state.
  void retire_tag(const std::string& prefix);
  [[nodiscard]] bool is_retired(std::string_view tag) const;

  /// Register a WAL-compaction checkpoint for the instance owning
  /// `prefix`.  Only sound for instances that exist at stack-build time
  /// (the loader must be registered before restore() runs) and whose
  /// checkpoint captures the effects of every WAL entry they prune.
  void register_checkpoint(const std::string& prefix, CheckpointSave save, CheckpointLoad load);
  void unregister_checkpoint(const std::string& prefix);

  /// Drop WAL entries with exactly tag `tag` that `prunable` approves.
  /// Only sound when a registered checkpoint captures their effects.
  void prune_wal(const std::string& tag, const std::function<bool(const Message&)>& prunable);

  void on_message(const Message& message) override;

  /// Crash recovery (net/fault.hpp).  With the WAL enabled, every network
  /// message is appended to a write-ahead log before dispatch, and so is
  /// every *external* self-message (an application submit outside any
  /// handler — replay cannot regenerate those); snapshot() serializes
  /// registered instance checkpoints, the retired-tag set and the
  /// (compacted) log; restore() loads the checkpoints and replays the log
  /// suffix through the (freshly rebuilt) protocol stack.  Replay is
  /// deterministic up to signature randomness: a compacted party re-derives
  /// fresh (still valid) signature shares where the original incarnation
  /// had drawn different randomness, which receivers verify rather than
  /// compare — the rebuilt party rejoins exactly where it crashed.
  void enable_wal() { wal_enabled_ = true; }
  [[nodiscard]] bool wal_enabled() const { return wal_enabled_; }
  [[nodiscard]] const std::vector<Message>& wal() const { return wal_; }
  [[nodiscard]] Bytes snapshot() const override;
  void restore(BytesView persisted) override;

  /// Accepts a crypto work pool and ignores it: every share is checked
  /// in the handler it arrives in, so nothing is offloaded.  Kept for
  /// callers that still attach one.
  void set_work_pool(common::WorkPool* /*pool*/) {}

  /// Attach an executor pool (not owned; stop() it before the party dies).
  /// With a pool of one or more executors, on_message routes each message
  /// to the executor owning its instance tree (stable hash of the tag's
  /// root segment), so independent top-level instances run concurrently
  /// while each tree keeps strict arrival order.  WAL appends stay on the
  /// pump thread in arrival order and restore() always replays inline and
  /// single-threaded, so replay is bit-exact regardless of executor count.
  /// A null pool — or a zero-executor pool — is the old inline behavior.
  /// Concurrent mode requires the network to be a NetworkedNode (the
  /// Simulator is single-threaded by contract) and protocol stacks to be
  /// constructed inside with_instance() so construction-time timers know
  /// their tree.
  void set_executors(common::ExecutorPool* pool) { executors_ = pool; }
  [[nodiscard]] common::ExecutorPool* executors() const { return executors_; }
  /// Shard salt for executor-lane assignment when several parties
  /// (tenants of one multi-group host) share one machine-wide pool: lanes
  /// become a stable hash of (lane group, tag root), so identical tag
  /// roots in distinct shards verify on distinct cores while each
  /// instance tree stays serial-FIFO.  Default 0 reproduces the legacy
  /// single-tenant assignment.  Set during wiring, before traffic flows.
  void set_lane_group(std::uint64_t group) { lane_group_ = group; }
  [[nodiscard]] std::uint64_t lane_group() const { return lane_group_; }
  /// True when messages are dispatched on executor threads.
  [[nodiscard]] bool concurrent() const {
    return executors_ != nullptr && !executors_->sequential();
  }

  /// Scope construction (or any out-of-band touch) of the instance tree
  /// rooted at `root`: handlers registered and timers scheduled inside
  /// `fn` are attributed to `root`'s executor.  No-op wrapper outside
  /// concurrent mode.
  void with_instance(std::string_view root, const std::function<void()>& fn);

  /// Trace helper (no-op without an attached log).
  void trace(const std::string& component, std::string text);

 private:
  /// Per-dispatching-thread context.  Sequential mode uses the single
  /// main_ctx_ member (zero-cost, bit-exact old behavior); concurrent mode
  /// gives every executor thread its own: the in-handler local queue and
  /// the dispatching flag are properties of one call stack, and the
  /// per-thread Rng (seeded from the party seed and a unique slot counter,
  /// so no two threads ever share a randomness stream — distinct streams
  /// are what keeps signature/nonce randomness from repeating) removes the
  /// one piece of shared mutable state handlers touch on every message.
  struct DispatchCtx {
    std::deque<Message> local;
    bool dispatching = false;
    std::string current_root;  ///< instance-tree root being executed
    std::optional<Rng> rng;
    std::uint64_t rng_owner_seed = 0;  ///< guards against recycled thread slots
  };
  [[nodiscard]] DispatchCtx& ctx();

  void dispatch(const Message& message);
  void drain_local();
  /// Callers hold state_mutex_ (concurrent mode) or are single-threaded.
  void buffer_unhandled(const Message& message);
  [[nodiscard]] bool is_retired_unlocked(std::string_view tag) const;
  [[nodiscard]] static std::size_t buffered_cost(const Message& message) {
    return message.tag.size() + message.payload.size() + 16;
  }

  Network& network_;
  int id_;
  adversary::Deployment deployment_;
  std::uint64_t seed_;
  Rng rng_;
  ResourceBudget budget_;
  /// Guards handlers_/buffered_/retired_/retired_order_/checkpoints_/wal_
  /// against concurrent executor threads.  Never held while a protocol
  /// handler runs (the handler closure is copied out first), so handlers
  /// are free to call back into register/retire/prune.
  mutable std::mutex state_mutex_;
  std::map<std::string, Handler> handlers_;
  std::map<std::string, std::deque<Message>> buffered_;
  std::set<std::string, std::less<>> retired_;
  /// FIFO for the tombstone cap: iterators into retired_, so each
  /// tombstone's string is held once.
  std::deque<std::set<std::string, std::less<>>::const_iterator> retired_order_;
  struct Checkpoint {
    CheckpointSave save;
    CheckpointLoad load;
  };
  std::map<std::string, Checkpoint> checkpoints_;
  DispatchCtx main_ctx_;
  bool wal_enabled_ = false;
  common::ExecutorPool* executors_ = nullptr;
  std::uint64_t lane_group_ = 0;  ///< shard salt for executor-lane hashing
  std::atomic<std::uint64_t> rng_slots_{0};
  std::vector<Message> wal_;  ///< received messages + external inputs, arrival order
};

}  // namespace sintra::net
