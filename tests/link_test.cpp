// ReliableLink unit tests: the seq/ack/retransmit state machine that both
// the TCP and loopback transports run — exactly-once in-order delivery,
// reconnect-driven retransmission, duplicate and reorder handling, and
// bounded-queue degradation (drop-oldest with an explicit gap floor).
#include <gtest/gtest.h>

#include "net/transport/link.hpp"

namespace sintra::net::transport {
namespace {

// Shuttle every sendable frame from `a` into `b`, returning delivered
// payloads; acks flow back immediately (a perfect wire).
std::vector<Bytes> shuttle(ReliableLink& a, ReliableLink& b) {
  std::vector<Bytes> delivered;
  for (auto& frame : a.take_sendable()) {
    auto incoming = b.on_data(frame.seq, frame.base, std::move(frame.payload));
    for (auto& delivery : incoming.deliver) delivered.push_back(std::move(delivery.payload));
    a.on_ack(b.recv_cursor());
    b.mark_ack_sent();
  }
  return delivered;
}

TEST(LinkTest, InOrderExactlyOnce) {
  ReliableLink a, b;
  a.on_connected(0);
  b.on_connected(0);
  for (int i = 0; i < 10; ++i) a.enqueue(bytes_of("m" + std::to_string(i)));
  const auto delivered = shuttle(a, b);
  ASSERT_EQ(delivered.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(delivered[static_cast<std::size_t>(i)],
                                         bytes_of("m" + std::to_string(i)));
  EXPECT_EQ(a.retained(), 0u);  // cumulative acks released everything
  EXPECT_EQ(b.stats().duplicates, 0u);
}

TEST(LinkTest, NothingSendableWhileDisconnected) {
  ReliableLink a;
  a.enqueue(bytes_of("queued"));
  EXPECT_TRUE(a.take_sendable().empty());
  a.on_connected(0);
  EXPECT_EQ(a.take_sendable().size(), 1u);
}

TEST(LinkTest, ReconnectRetransmitsUnacked) {
  ReliableLink a, b;
  a.on_connected(0);
  b.on_connected(0);
  a.enqueue(bytes_of("one"));
  a.enqueue(bytes_of("two"));
  auto frames = a.take_sendable();  // put on the wire...
  ASSERT_EQ(frames.size(), 2u);
  // ...but the connection dies before anything arrives.
  a.on_disconnected();
  b.on_disconnected();
  a.on_connected(b.recv_cursor());  // HELLO exchange: b saw nothing
  b.on_connected(a.recv_cursor());
  const auto delivered = shuttle(a, b);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], bytes_of("one"));
  EXPECT_EQ(delivered[1], bytes_of("two"));
  EXPECT_EQ(a.stats().retransmitted, 2u);
}

TEST(LinkTest, ReconnectSkipsAlreadyDelivered) {
  ReliableLink a, b;
  a.on_connected(0);
  b.on_connected(0);
  a.enqueue(bytes_of("one"));
  shuttle(a, b);  // delivered and acked
  a.enqueue(bytes_of("two"));
  (void)a.take_sendable();  // lost on the wire
  a.on_disconnected();
  b.on_disconnected();
  a.on_connected(b.recv_cursor());  // b's cursor says "one" arrived
  b.on_connected(a.recv_cursor());
  const auto delivered = shuttle(a, b);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], bytes_of("two"));
  EXPECT_EQ(b.stats().duplicates, 0u);  // "one" was not resent
}

TEST(LinkTest, DuplicateFramesSuppressed) {
  ReliableLink a, b;
  a.on_connected(0);
  b.on_connected(0);
  a.enqueue(bytes_of("m"));
  auto frames = a.take_sendable();
  ASSERT_EQ(frames.size(), 1u);
  auto first = b.on_data(frames[0].seq, frames[0].base, frames[0].payload);
  EXPECT_EQ(first.deliver.size(), 1u);
  auto second = b.on_data(frames[0].seq, frames[0].base, frames[0].payload);
  EXPECT_TRUE(second.deliver.empty());
  EXPECT_TRUE(second.ack_now);  // duplicate triggers a prompt re-ack
  EXPECT_EQ(b.stats().duplicates, 1u);
}

TEST(LinkTest, ReorderWindowRestoresOrder) {
  ReliableLink a, b;
  a.on_connected(0);
  b.on_connected(0);
  for (int i = 0; i < 4; ++i) a.enqueue(bytes_of("m" + std::to_string(i)));
  auto frames = a.take_sendable();
  ASSERT_EQ(frames.size(), 4u);
  // Deliver in reversed order.
  std::vector<Bytes> delivered;
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    auto incoming = b.on_data(it->seq, it->base, std::move(it->payload));
    for (auto& delivery : incoming.deliver) delivered.push_back(std::move(delivery.payload));
  }
  ASSERT_EQ(delivered.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(delivered[static_cast<std::size_t>(i)],
                                        bytes_of("m" + std::to_string(i)));
  EXPECT_EQ(b.stats().reordered, 3u);
}

TEST(LinkTest, FarFutureSeqDiscarded) {
  ReliableLink b(LinkConfig{.max_outbound = 16, .reorder_window = 8, .ack_every = 4});
  b.on_connected(0);
  auto incoming = b.on_data(1000, 0, bytes_of("early"));
  EXPECT_TRUE(incoming.deliver.empty());
  EXPECT_EQ(b.stats().out_of_window, 1u);
}

TEST(LinkTest, QuotaDropsOldestAndReceiverSkipsGap) {
  ReliableLink a(LinkConfig{.max_outbound = 4, .reorder_window = 8, .ack_every = 64});
  ReliableLink b;
  a.on_connected(0);
  b.on_connected(0);
  // Fill past the quota while the peer never acks.
  for (int i = 0; i < 10; ++i) a.enqueue(bytes_of("m" + std::to_string(i)));
  EXPECT_EQ(a.retained(), 4u);
  EXPECT_EQ(a.stats().dropped_outbound, 6u);
  const auto delivered = shuttle(a, b);
  // Only the last 4 survive; the receiver advances past the gap
  // explicitly instead of waiting forever for seqs 0..5.
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered[0], bytes_of("m6"));
  EXPECT_EQ(b.stats().skipped_inbound, 6u);
  EXPECT_EQ(b.recv_cursor(), 10u);
}

TEST(LinkTest, ByzantineFutureAckClamped) {
  // An ack beyond anything ever enqueued is clamped to next_seq_: a lying
  // peer can release only frames destined for itself, and must not corrupt
  // the sequence accounting of later traffic.
  ReliableLink a;
  a.on_connected(0);
  a.enqueue(bytes_of("pending"));  // seq 0
  a.on_ack(1'000'000);             // peer lies about the future
  EXPECT_TRUE(a.take_sendable().empty());
  a.enqueue(bytes_of("next"));
  auto frames = a.take_sendable();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].seq, 1u);  // numbering unaffected by the lie
}

TEST(LinkTest, AckEveryThresholdRequestsAck) {
  ReliableLink a, b(LinkConfig{.max_outbound = 64, .reorder_window = 8, .ack_every = 3});
  a.on_connected(0);
  b.on_connected(0);
  for (int i = 0; i < 3; ++i) a.enqueue(bytes_of("m"));
  auto frames = a.take_sendable();
  bool ack_now = false;
  for (auto& f : frames) ack_now = b.on_data(f.seq, f.base, std::move(f.payload)).ack_now;
  EXPECT_TRUE(ack_now);
  b.mark_ack_sent();
  EXPECT_FALSE(b.ack_pending());
}

}  // namespace
}  // namespace sintra::net::transport
