// Asynchronous TCP transport with authenticated links, heartbeats,
// reconnection with capped exponential backoff, and ack-based
// retransmission (one ReliableLink per peer).
//
// Topology: every node listens; for each pair {i, j} the higher id dials
// the lower (deterministic, so exactly one connection per pair and a
// restarted node knows which direction to re-establish).  A connection
// starts with a HELLO exchange: each side's HELLO carries its node id, a
// fresh nonce and its cumulative receive cursor, MAC'd under the pairwise
// link key dealt by the trusted dealer (crypto::derive_link_key) — this is
// the paper's authenticated-links assumption made concrete.  All later
// frames are MAC'd under a session key bound to both nonces, so captured
// traffic cannot be replayed into another connection.
//
// Liveness: PING frames flow on idle links; a link silent for longer than
// `heartbeat_timeout_ms` is declared dead and torn down.  The dialing side
// then reconnects with exponential backoff (capped, with seeded jitter so
// a restarted cluster does not thundering-herd); the listening side simply
// accepts the redial.  On reconnect the HELLO cursors drive
// retransmission of everything unacked — at-least-once delivery that the
// idempotent protocol layer above dedups to exactly-once.
//
// Threading: one background reactor thread owns every socket and all link
// state.  send() and stats() are the only cross-thread entry points; both
// go through the loop's posted queue / a mutex.  The receive callback runs
// on the reactor thread — the NetworkedNode adapter hands it off to the
// protocol thread through its bounded inbox.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/transport/event_loop.hpp"
#include "net/transport/framing.hpp"
#include "net/transport/health.hpp"
#include "net/transport/link.hpp"

namespace sintra::net::transport {

class TcpTransport {
 public:
  struct Endpoint {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral (own slot only)
  };

  struct Config {
    int node_id = 0;
    std::vector<Endpoint> endpoints;  ///< one per node; [node_id] is the listen address
    std::vector<Bytes> link_keys;     ///< [peer] -> MAC key (self slot unused)
    std::uint64_t seed = 1;           ///< backoff jitter
    LinkConfig link;
    std::uint64_t heartbeat_interval_ms = 250;
    std::uint64_t heartbeat_timeout_ms = 2000;
    /// Accrual-style per-peer health (net/transport/health.hpp): the
    /// effective timeout adapts to each peer's observed arrival cadence,
    /// clamped to [heartbeat_timeout_ms, max_factor * heartbeat_timeout_ms]
    /// — it only ever *extends* the base timeout, so gray/slow peers stop
    /// flapping while dead peers are still torn down within the cap.
    AccrualHealth::Config health;
    std::uint64_t reconnect_min_ms = 25;
    std::uint64_t reconnect_max_ms = 1600;
    std::uint64_t ack_flush_ms = 20;  ///< delayed-ack latency bound
  };

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t payloads_delivered = 0;
    std::uint64_t connects = 0;       ///< successful handshakes (both sides)
    std::uint64_t disconnects = 0;    ///< torn-down established connections
    std::uint64_t auth_failures = 0;  ///< corrupt/unauthenticated streams
    std::uint64_t retransmitted = 0;  ///< link-level resent frames
    // Coalescing proof counters: a flush of k payloads costs
    // ceil(bytes / kMaxBatchBytes) BATCH frames and HMACs, not k, and
    // the whole outbuf drains through scatter-gather sendmsg calls.
    std::uint64_t batches_sent = 0;       ///< BATCH super-frames emitted
    std::uint64_t frames_coalesced = 0;   ///< payloads riding BATCH frames
    std::uint64_t hmacs_computed = 0;     ///< send-side HMACs (all frame types)
    std::uint64_t writev_calls = 0;       ///< sendmsg() syscalls issued
    /// Sweeps where a peer outlived the base heartbeat timeout only
    /// because its accrual health score extended the deadline.
    std::uint64_t health_extensions = 0;
  };

  /// `receive(from, group, payload)` runs on the reactor thread.  `group`
  /// is the shard stamp on the record.  The view is a slice of
  /// the connection's decode buffer, valid only during the call —
  /// receivers that keep the payload copy it (for NetworkedNode, the one
  /// copy into the owning Message).
  using ReceiveFn = std::function<void(int from, std::uint32_t group, BytesView payload)>;

  TcpTransport(Config config, ReceiveFn receive);
  ~TcpTransport();
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bind + listen, then start the reactor thread and dial lower-id peers.
  void start();
  /// Tear down every connection and join the reactor thread (idempotent).
  void stop();

  /// Queue `payload` for reliable delivery to `peer` (any thread),
  /// stamped with shard `group`.  Multiple send()s posted before the
  /// reactor turns over coalesce into one BATCH frame (the enqueue tasks
  /// run first, a single deferred flush task runs after them).
  void send(int peer, Bytes payload, std::uint32_t group = 0);

  /// Queue a whole pump-cycle batch (any thread): every payload is
  /// enqueued and flushed as one unit — one BATCH super-frame, one HMAC,
  /// per kMaxBatchBytes of traffic.  Payloads for different groups
  /// coalesce into the same super-frame.
  void send_many(int peer, std::vector<GroupPayload> payloads);

  /// The actually bound listen port (after start(); useful with port 0).
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  [[nodiscard]] Stats stats() const;

 private:
  struct Conn;
  struct Peer;

  // All private methods run on the reactor thread.
  void setup_listener();
  void on_accept_ready();
  void on_pending_readable(int fd);
  void dial(int peer);
  void schedule_redial(int peer);
  void on_dial_writable(int peer);
  void adopt_connection(int peer, std::shared_ptr<Conn> conn, const HelloBody& hello);
  void send_hello(Conn& conn, int peer);
  void drop_connection(int peer, bool redial);
  void close_conn(Conn& conn);
  void on_conn_event(int peer, std::uint32_t events);
  void handle_frame(int peer, FrameType type, BytesView body);
  void schedule_flush(int peer);
  void flush_link(int peer);
  void send_frame(int peer, FrameType type, BytesView body);
  /// False when the outbuf quota is exceeded — the caller must drop the
  /// connection (a peer that stopped reading is dead, not deferrable).
  [[nodiscard]] bool queue_bytes(Conn& conn, Bytes bytes);
  void try_write(int peer);
  void heartbeat_sweep();
  void send_ack(int peer);
  [[nodiscard]] bool i_dial(int peer) const { return config_.node_id > peer; }
  [[nodiscard]] const Bytes& link_key(int peer) const;

  Config config_;
  ReceiveFn receive_;
  EventLoop loop_;
  std::thread thread_;
  bool started_ = false;
  Rng rng_;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  std::vector<std::unique_ptr<Peer>> peers_;  ///< [peer id]; self slot empty
  /// Accepted connections whose HELLO has not arrived yet (fd -> conn).
  std::map<int, std::shared_ptr<Conn>> pending_accepts_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace sintra::net::transport
