// Deterministic in-process transport: the same frames, MACs and
// ReliableLink state machines as the TCP transport, but with every
// delivery decision made by a seeded Rng instead of kernel scheduling.
//
// The hub keeps one "wire" (a FIFO of encoded frames) per directed pair
// and one ReliableLink per (node, peer) — exactly the state TcpTransport
// keeps, minus sockets and threads.  step() pops one frame from a
// randomly picked wire and delivers it through the authenticating
// FrameDecoder; a FaultProfile (the FaultPolicy knob style from
// net/fault.hpp, x-in-1024 chances with hard budgets) can drop,
// duplicate or replay frames and tear whole pairs down, after which the
// cursor-exchange reconnect handshake drives retransmission.
//
// Because every fault is budget-bounded and links retain unacked frames,
// run_until_quiescent() terminates and the soak test can assert the
// end-to-end contract: every payload sent while the pair was not
// permanently severed arrives exactly once, in order, at the protocol
// layer — the property the real transport provides over a hostile
// network, checked here under a seed sweep.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "net/fault.hpp"
#include "net/transport/framing.hpp"
#include "net/transport/link.hpp"

namespace sintra::net::transport {

class LoopbackHub {
 public:
  /// Fault knobs, FaultPolicy-style: chances are "x in 1024" per
  /// opportunity, and every fault has a hard budget so runs quiesce.
  struct FaultProfile {
    std::uint32_t drop_chance = 0;       ///< per frame pop: frame lost in flight
    std::uint32_t duplicate_chance = 0;  ///< per frame pop: an extra copy re-queued
    std::uint32_t replay_chance = 0;     ///< per delivery: replay a captured frame
    std::size_t replay_budget = 64;      ///< total replayed frames per run
    std::uint32_t disconnect_chance = 0; ///< per delivery: tear the pair down
    std::uint64_t reconnect_after = 16;  ///< idle steps down before auto-reconnect
    int max_disconnects = 8;             ///< total injected disconnects per run

    static FaultProfile none() { return {}; }
    /// Lossy, duplicating, replaying, flapping network.
    static FaultProfile chaos() {
      FaultProfile p;
      p.drop_chance = 96;
      p.duplicate_chance = 96;
      p.replay_chance = 64;
      p.disconnect_chance = 24;
      p.reconnect_after = 12;
      p.max_disconnects = 6;
      return p;
    }
  };

  struct Stats {
    std::uint64_t delivered_frames = 0;
    std::uint64_t dropped_frames = 0;
    std::uint64_t duplicated_frames = 0;
    std::uint64_t replayed_frames = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t auth_failures = 0;  ///< corrupt streams (tears the pair down)
    // Partition-profile counters (set_partition_profile).
    std::uint64_t partition_splits = 0;  ///< pairs severed by the schedule
    std::uint64_t partition_heals = 0;   ///< pairs healed by the schedule
    std::uint64_t oneway_dropped = 0;    ///< frames lost to one-way link loss
    std::uint64_t gray_deferred = 0;     ///< scheduling picks that skipped gray peers
    // Coalescing proof counters: every flush of k payloads produces
    // ceil(k-payload-bytes / kMaxBatchBytes) BATCH super-frames — for
    // ordinary traffic, one frame and one HMAC however many payloads.
    std::uint64_t batches_sent = 0;        ///< BATCH super-frames emitted
    std::uint64_t coalesced_payloads = 0;  ///< payloads riding those frames
    std::uint64_t hmacs_computed = 0;      ///< send-side HMACs (all frame types)
  };

  /// `receive(from, group, payload)` runs synchronously inside step().
  /// `group` is the shard stamp the sender put on the record.
  /// The view is a slice of the decoded frame, valid only during the
  /// call — the zero-copy receive path (receivers that keep the payload
  /// copy it, which for a NetworkedNode is the one copy into the owning
  /// Message).  A null receiver drops the node's deliveries (a killed
  /// node) while its links keep acking.
  using ReceiveFn = std::function<void(int from, std::uint32_t group, BytesView payload)>;

  // (No default argument for `profile`: a nested class's member
  // initializers are not usable in default arguments of the enclosing
  // class, so the fault-free form is a delegating overload.)
  LoopbackHub(int n, std::uint64_t seed);
  LoopbackHub(int n, std::uint64_t seed, FaultProfile profile, LinkConfig link = {});

  void set_receiver(int node, ReceiveFn receive);

  /// Drive a seeded partition / gray-failure schedule (net/fault.hpp):
  /// each step() advances the schedule one tick, severing and healing
  /// pairs, dropping frames on the one-way-lossy links and deprioritizing
  /// gray peers' outbound wires.  While the schedule has ticks left the
  /// hub reports progress, so run_until_quiescent() outlives the
  /// partition and drains the retransmit backlog after the final heal.
  void set_partition_profile(PartitionProfile profile);
  [[nodiscard]] std::uint64_t partition_step() const { return partition_step_; }

  /// Reliable-send a payload from `from` to `to` (like TcpTransport::send),
  /// stamped with shard `group`.
  void send(int from, int to, Bytes payload, std::uint32_t group = 0);

  /// Enqueue a whole pump-cycle batch and flush once: all payloads ride
  /// one BATCH super-frame (one HMAC) per kMaxBatchBytes of traffic.
  /// Payloads for different groups coalesce into the same super-frame —
  /// sharding does not multiply the per-link HMAC or frame count.
  void send_many(int from, int to, std::vector<GroupPayload> payloads);

  /// Deliver one frame picked at random (or progress a pending
  /// reconnect).  Returns false when nothing can make progress.
  bool step();

  /// Retransmit/ack pass: flush every connected link's sendable frames
  /// and any pending explicit acks onto the wires.
  void tick();

  /// step()/tick() until nothing moves.  Returns steps taken; gives up
  /// after `max_steps` (the caller asserts it stayed below the cap).
  std::size_t run_until_quiescent(std::size_t max_steps = 2'000'000);

  /// Tear down the pair {a,b}: in-flight frames are lost, links rewind.
  /// Reconnects only via connect() (manual) — injected disconnects use
  /// the profile's auto-reconnect countdown instead.
  void disconnect(int a, int b);
  /// Re-establish {a,b} with the cursor-exchange handshake, triggering
  /// retransmission of everything the other side has not delivered.
  void connect(int a, int b);
  [[nodiscard]] bool pair_connected(int a, int b) const;

  /// Push raw bytes onto the a→b wire, bypassing framing — an
  /// adversarial injection; the authenticating decoder must reject it.
  void inject_raw(int from, int to, Bytes bytes);

  [[nodiscard]] const ReliableLink& link(int node, int peer) const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] int n() const { return n_; }

 private:
  struct PairState {
    bool connected = true;
    std::uint64_t reconnect_in = 0;  ///< >0: auto-reconnect countdown (steps)
  };

  [[nodiscard]] std::size_t wire_index(int from, int to) const;
  [[nodiscard]] std::size_t pair_index(int a, int b) const;
  ReliableLink& link_mut(int node, int peer);
  void flush(int from, int to);
  void send_explicit_ack(int from, int to);
  void deliver_wire_front(int from, int to);
  void tear_down(int a, int b, std::uint64_t reconnect_in);

  int n_;
  Rng rng_;
  FaultProfile profile_;
  Stats stats_;
  std::vector<ReceiveFn> receivers_;
  std::vector<ReliableLink> links_;          ///< [node * n + peer]
  std::vector<std::deque<Bytes>> wires_;     ///< [from * n + to], encoded frames
  std::vector<FrameDecoder> decoders_;       ///< [from * n + to], reset on reconnect
  std::vector<Bytes> pair_keys_;             ///< [pair_index], symmetric MAC keys
  std::vector<PairState> pairs_;             ///< [pair_index]
  std::deque<Bytes> history_;                ///< captured frames for replay faults
  std::deque<std::size_t> history_wire_;     ///< wire each captured frame rode on
  std::uint64_t replays_injected_ = 0;
  int disconnects_injected_ = 0;
  std::optional<PartitionProfile> partition_;
  std::uint64_t partition_step_ = 0;         ///< schedule clock (ticks per step())
  std::vector<bool> partition_severed_;      ///< [pair_index] held down by schedule
};

}  // namespace sintra::net::transport
