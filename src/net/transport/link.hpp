// Per-peer reliable delivery state machine: sequence numbers, cumulative
// acks, retransmission across reconnects, bounded queues.
//
// One ReliableLink instance lives at each end of a directed payload flow
// (node i keeps one per peer j, handling both i→j sending and j→i
// receiving).  It is pure state — no sockets, no clock — so the same
// machine runs under the real TCP transport, the deterministic loopback
// transport, and the unit tests.
//
// Sender side: enqueue() assigns consecutive sequence numbers; frames are
// retained until cumulatively acked.  On reconnect the peer's HELLO
// carries its receive cursor and everything at or above it is retransmitted
// — at-least-once delivery across connection loss.  The outbound queue is
// bounded: past `max_outbound` retained frames the oldest is dropped and
// the "base" floor advances (graceful degradation when a peer is
// unreachable for long or a Byzantine peer refuses to ack; the receiver
// observes the gap explicitly instead of the process exhausting memory).
//
// Receiver side: in-order delivery with a bounded reorder window and
// duplicate suppression by sequence number.  Within one process lifetime
// this gives the protocol layer exactly-once per link; after a crash the
// cursor resets and redelivery is the at-least-once the PR-2 idempotent
// protocol layer dedups — that composition, not the link alone, is the
// end-to-end exactly-once story.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/bytes.hpp"
#include "net/transport/framing.hpp"

namespace sintra::net::transport {

/// A payload stamped with the shard (tenant group) it belongs to.  Group
/// ids ride the wire per record (framing.hpp) so one host can carry
/// many independent SINTRA groups over one reliable link; single-tenant
/// callers use group 0 throughout.
struct GroupPayload {
  std::uint32_t group = 0;
  Bytes payload;
};

struct LinkConfig {
  std::size_t max_outbound = 4096;   ///< retained unacked frames; beyond: drop-oldest
  std::size_t reorder_window = 512;  ///< out-of-order frames buffered at the receiver
  std::size_t ack_every = 16;        ///< request an explicit ack after this many deliveries
};

class ReliableLink {
 public:
  /// A data record to put on the wire (ack is piggybacked by the caller
  /// from recv_cursor()).
  struct OutFrame {
    std::uint64_t seq = 0;
    std::uint64_t base = 0;  ///< lowest retained seq (quota gap floor)
    std::uint32_t group = 0; ///< shard stamp carried per record on the wire
    Bytes payload;
  };

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t sent = 0;             ///< frames handed to the wire (incl. resends)
    std::uint64_t retransmitted = 0;    ///< of `sent`, how many were resends
    std::uint64_t first_transmissions = 0;  ///< of `sent`, how many were first sends
    std::uint64_t delivered = 0;        ///< payloads handed up, exactly once, in order
    std::uint64_t duplicates = 0;       ///< already-delivered seqs discarded
    std::uint64_t reordered = 0;        ///< frames parked in the reorder window
    std::uint64_t out_of_window = 0;    ///< frames beyond the window, discarded
    std::uint64_t dropped_outbound = 0; ///< quota overflow: oldest frames dropped
    std::uint64_t skipped_inbound = 0;  ///< seqs lost to the peer's quota floor
  };

  explicit ReliableLink(LinkConfig config = {}) : config_(config) {}

  // --- sender side ---------------------------------------------------

  /// Queue a payload for shard `group`; returns its sequence number.  May
  /// evict the oldest retained frame when the quota is exceeded.  Sequence
  /// numbers are link-level (shared by all groups on the link): the link
  /// is a property of the machine pair, not of any one tenant.
  std::uint64_t enqueue(Bytes payload, std::uint32_t group = 0);

  /// Frames to transmit now (new traffic plus anything rewound for
  /// retransmission).  Empty while disconnected.
  [[nodiscard]] std::vector<OutFrame> take_sendable();

  /// Cumulative ack from the peer: every seq < `cumulative` is delivered;
  /// the retained prefix is released.
  void on_ack(std::uint64_t cumulative);

  /// Rewind the send cursor so every retained frame goes out again (used
  /// after a reconnect handshake and by retransmit timers on lossy
  /// substrates).
  void mark_all_for_retransmit();

  // --- connection lifecycle ------------------------------------------

  /// Handshake complete; `peer_recv_cursor` is the peer's receive
  /// progress from its HELLO.  Releases acked frames, rewinds the rest.
  void on_connected(std::uint64_t peer_recv_cursor);
  void on_disconnected() { connected_ = false; }
  [[nodiscard]] bool connected() const { return connected_; }

  // --- receiver side -------------------------------------------------

  struct Incoming {
    std::vector<GroupPayload> deliver;  ///< in-order payloads for the protocol layer
    bool ack_now = false;               ///< send an explicit ack immediately
  };

  /// Process a received data record (already authenticated).
  Incoming on_data(std::uint64_t seq, std::uint64_t base, Bytes payload,
                   std::uint32_t group = 0);

  struct FastPath {
    bool taken = false;    ///< state advanced; caller delivers its own view
    bool ack_now = false;  ///< send an explicit ack immediately
  };

  /// Zero-copy receive fast path for the common case: strictly in-order
  /// arrival (seq == recv_cursor), no quota gap, empty reorder window.
  /// On taken=true the cursor and stats have advanced and the caller
  /// hands its (unowned) payload view straight up — no Bytes copy is ever
  /// made.  On taken=false no state changed; run on_data() with an owning
  /// copy instead.
  FastPath accept_inorder(std::uint64_t seq, std::uint64_t base);

  /// Cumulative receive progress: every seq < cursor was delivered (or
  /// explicitly skipped past a quota gap).  This is the ack value and the
  /// HELLO recv_cursor.
  [[nodiscard]] std::uint64_t recv_cursor() const { return recv_next_; }

  /// True when deliveries since the last mark_ack_sent() await an ack.
  [[nodiscard]] bool ack_pending() const { return unacked_deliveries_ > 0; }
  void mark_ack_sent() { unacked_deliveries_ = 0; }

  [[nodiscard]] std::size_t retained() const { return outbound_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  LinkConfig config_;
  Stats stats_;
  bool connected_ = false;

  // Sender: outbound_[k] carries seq base_seq_ + k.
  std::deque<GroupPayload> outbound_;
  std::uint64_t base_seq_ = 0;  ///< seq of outbound_.front()
  std::uint64_t next_seq_ = 0;  ///< seq the next enqueue gets
  std::uint64_t send_from_ = 0; ///< next seq to hand to the wire
  std::uint64_t send_cursor_high_ = 0;  ///< highest seq ever put on a wire

  // Receiver.
  std::uint64_t recv_next_ = 0;
  std::map<std::uint64_t, GroupPayload> reorder_;
  std::size_t unacked_deliveries_ = 0;
};

// --- the BATCH codec both transports share --------------------------------

/// One encoded BATCH frame and the number of records riding it.
struct BatchFrame {
  Bytes bytes;
  std::size_t records = 0;
};

/// Send side of a flush: every sendable record of `link`, coalesced into
/// BATCH frames of at most kMaxBatchBytes payload bytes each (one
/// over-budget payload rides alone), MAC'd under `key`, with the link's
/// receive cursor piggybacked as the ack.  Marks the ack sent when
/// anything goes out.  Empty when nothing is sendable.
std::vector<BatchFrame> take_batches(ReliableLink& link, BytesView key);

/// Receive side of one authenticated BATCH body: apply its piggybacked
/// ack, then run each record through `link` — in-order records on the
/// zero-copy fast path, the rest through on_data — and hand every payload
/// the link delivers to `deliver(group, payload)`.  Returns whether the
/// link asks for an explicit ack now.  Throws ProtocolError on a
/// malformed body.
template <class Deliver>
bool receive_batch(ReliableLink& link, BytesView body, Deliver&& deliver) {
  const DataBatchView batch = DataBatchView::decode(body);
  link.on_ack(batch.ack);
  bool ack_now = false;
  for (const DataBatchView::Record& record : batch.records) {
    const ReliableLink::FastPath fast = link.accept_inorder(record.seq, batch.base);
    if (fast.taken) {
      deliver(record.group, record.payload);
      ack_now = ack_now || fast.ack_now;
      continue;
    }
    ReliableLink::Incoming incoming = link.on_data(
        record.seq, batch.base, Bytes(record.payload.begin(), record.payload.end()), record.group);
    for (const GroupPayload& delivery : incoming.deliver) {
      deliver(delivery.group, BytesView(delivery.payload));
    }
    ack_now = ack_now || incoming.ack_now;
  }
  return ack_now;
}

}  // namespace sintra::net::transport
