// Wire-framing tests: encode/decode round trips, incremental decoding
// across arbitrary read boundaries, MAC enforcement (fail-closed), session
// key derivation, and the unauthenticated accept-path peek.
#include <gtest/gtest.h>

#include "net/transport/framing.hpp"

namespace sintra::net::transport {
namespace {

Bytes test_key(char fill) { return Bytes(32, static_cast<std::uint8_t>(fill)); }

TEST(FramingTest, RoundTrip) {
  const Bytes key = test_key('k');
  const Bytes body = bytes_of("hello frames");
  const Bytes wire = encode_frame(FrameType::kDataBatch, body, key);
  EXPECT_EQ(wire.size(), kFrameOverhead + body.size());

  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  ASSERT_EQ(decoder.next(key, frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kDataBatch);
  EXPECT_EQ(frame.body, body);
  EXPECT_EQ(decoder.next(key, frame), FrameDecoder::Status::kNeedMore);
}

TEST(FramingTest, DecodesAcrossArbitraryBoundaries) {
  const Bytes key = test_key('k');
  Bytes stream;
  for (int i = 0; i < 5; ++i) {
    append(stream, encode_frame(FrameType::kDataBatch, bytes_of("m" + std::to_string(i)), key));
  }
  // Feed one byte at a time — worst-case TCP fragmentation.
  FrameDecoder decoder;
  int decoded = 0;
  Frame frame;
  for (const std::uint8_t byte : stream) {
    decoder.feed(BytesView(&byte, 1));
    while (decoder.next(key, frame) == FrameDecoder::Status::kFrame) {
      EXPECT_EQ(frame.body, bytes_of("m" + std::to_string(decoded)));
      ++decoded;
    }
  }
  EXPECT_EQ(decoded, 5);
}

TEST(FramingTest, WrongKeyPoisonsStream) {
  const Bytes wire = encode_frame(FrameType::kDataBatch, bytes_of("x"), test_key('a'));
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  EXPECT_EQ(decoder.next(test_key('b'), frame), FrameDecoder::Status::kCorrupt);
  EXPECT_TRUE(decoder.corrupt());
  // Terminal: even valid follow-up data is rejected.
  decoder.feed(encode_frame(FrameType::kDataBatch, bytes_of("y"), test_key('b')));
  EXPECT_EQ(decoder.next(test_key('b'), frame), FrameDecoder::Status::kCorrupt);
}

TEST(FramingTest, FlippedBitAnywhereIsRejected) {
  const Bytes key = test_key('k');
  const Bytes wire = encode_frame(FrameType::kPing, {}, key);
  for (std::size_t i = 4; i < wire.size(); ++i) {  // skip length (tested separately)
    Bytes tampered = wire;
    tampered[i] ^= 0x01;
    FrameDecoder decoder;
    decoder.feed(tampered);
    Frame frame;
    EXPECT_EQ(decoder.next(key, frame), FrameDecoder::Status::kCorrupt) << "byte " << i;
  }
}

TEST(FramingTest, OversizedLengthIsRejectedWithoutAllocation) {
  Bytes wire(4, 0xff);  // body_len = 0xffffffff
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  EXPECT_EQ(decoder.next(test_key('k'), frame), FrameDecoder::Status::kCorrupt);
}

TEST(FramingTest, UnknownTypeIsRejected) {
  const Bytes key = test_key('k');
  Bytes wire = encode_frame(FrameType::kPing, {}, key);
  wire[4] = 99;  // not a FrameType
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  EXPECT_EQ(decoder.next(key, frame), FrameDecoder::Status::kCorrupt);
}

TEST(FramingTest, RetiredDataTypeIsRejectedEvenWhenAuthenticated) {
  // Type 2 was the single-payload DATA frame.  Nothing sends it any more,
  // so a correctly tagged type-2 frame poisons the stream like any other
  // unknown type, on the authenticated and the accept-path decoder alike.
  const Bytes key = test_key('k');
  const auto retired = static_cast<FrameType>(2);
  const Bytes wire = encode_frame(retired, bytes_of("payload"), key);
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame frame;
  EXPECT_EQ(decoder.next(key, frame), FrameDecoder::Status::kCorrupt);
  decoder.feed(encode_frame(FrameType::kPing, {}, key));
  EXPECT_EQ(decoder.next(key, frame), FrameDecoder::Status::kCorrupt);

  bool corrupt = false;
  EXPECT_FALSE(peek_frame_unauthenticated(wire, &corrupt).has_value());
  EXPECT_TRUE(corrupt);
}

TEST(FramingTest, HelloBodyRoundTrips) {
  HelloBody hello;
  hello.node_id = 3;
  hello.nonce = 0x1122334455667788ULL;
  hello.recv_cursor = 42;
  const Bytes hello_wire = hello.encode();  // named: Reader holds a view
  Reader hr(hello_wire);
  const HelloBody hello2 = HelloBody::decode(hr);
  EXPECT_EQ(hello2.version, kProtocolVersion);
  EXPECT_EQ(hello2.node_id, 3u);
  EXPECT_EQ(hello2.nonce, hello.nonce);
  EXPECT_EQ(hello2.recv_cursor, 42u);
}

TEST(FramingTest, BatchBodyRoundTripsThroughOwningAndViewDecoders) {
  DataBatchBody batch;
  batch.ack = 9;
  batch.base = 4;
  batch.records.push_back({4, 0, bytes_of("first")});
  batch.records.push_back({5, 0, Bytes{}});  // empty payloads are legal
  batch.records.push_back({6, 0, bytes_of("third")});
  const Bytes body = batch.encode();

  Reader reader(body);
  const DataBatchBody owned = DataBatchBody::decode(reader);
  EXPECT_EQ(owned.ack, 9u);
  EXPECT_EQ(owned.base, 4u);
  ASSERT_EQ(owned.records.size(), 3u);
  EXPECT_EQ(owned.records[0].seq, 4u);
  EXPECT_EQ(owned.records[0].payload, bytes_of("first"));
  EXPECT_EQ(owned.records[1].payload, Bytes{});
  EXPECT_EQ(owned.records[2].payload, bytes_of("third"));

  const DataBatchView view = DataBatchView::decode(body);
  EXPECT_EQ(view.ack, 9u);
  EXPECT_EQ(view.base, 4u);
  ASSERT_EQ(view.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(view.records[i].seq, owned.records[i].seq);
    EXPECT_EQ(Bytes(view.records[i].payload.begin(), view.records[i].payload.end()),
              owned.records[i].payload);
    // Zero-copy: every non-empty view payload points into `body`.
    if (!view.records[i].payload.empty()) {
      EXPECT_GE(view.records[i].payload.data(), body.data());
      EXPECT_LE(view.records[i].payload.data() + view.records[i].payload.size(),
                body.data() + body.size());
    }
  }
}

TEST(FramingTest, NextViewMatchesNextAndSlicesTheDecoderBuffer) {
  const Bytes key = test_key('k');
  DataBatchBody batch;
  batch.ack = 1;
  batch.records.push_back({1, 0, bytes_of("coalesced")});
  const Bytes wire = encode_frame(FrameType::kDataBatch, batch.encode(), key);

  FrameDecoder by_copy;
  by_copy.feed(wire);
  Frame frame;
  ASSERT_EQ(by_copy.next(key, frame), FrameDecoder::Status::kFrame);

  FrameDecoder by_view;
  by_view.feed(wire);
  FrameType type{};
  BytesView body;
  ASSERT_EQ(by_view.next_view(key, type, body), FrameDecoder::Status::kFrame);
  EXPECT_EQ(type, frame.type);
  EXPECT_EQ(Bytes(body.begin(), body.end()), frame.body);
  // The view's sub-slices survive until the next feed().
  const DataBatchView view = DataBatchView::decode(body);
  ASSERT_EQ(view.records.size(), 1u);
  EXPECT_EQ(Bytes(view.records[0].payload.begin(), view.records[0].payload.end()),
            bytes_of("coalesced"));
  ASSERT_EQ(by_view.next_view(key, type, body), FrameDecoder::Status::kNeedMore);
}

TEST(FramingTest, TruncatedOrTrailingBatchBodyThrows) {
  DataBatchBody batch;
  batch.ack = 2;
  batch.base = 1;
  batch.records.push_back({1, 0, bytes_of("p")});
  const Bytes body = batch.encode();
  // Every strict prefix must be rejected — count promises more records
  // (or payload bytes) than the body holds.
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_THROW(DataBatchView::decode(BytesView(body.data(), len)), ProtocolError) << len;
    Bytes prefix(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(len));
    Reader reader(prefix);
    EXPECT_THROW(DataBatchBody::decode(reader), ProtocolError) << len;
  }
  // Trailing garbage after the last record is equally malformed for the
  // view decoder (the body is exactly the batch, nothing else).
  Bytes padded = body;
  padded.push_back(0);
  EXPECT_THROW(DataBatchView::decode(padded), ProtocolError);
}

TEST(FramingTest, SessionKeyBindsBothNoncesAndLinkKey) {
  const Bytes key = test_key('k');
  const Bytes s1 = derive_session_key(key, 1, 2);
  EXPECT_EQ(s1.size(), 32u);
  EXPECT_NE(s1, derive_session_key(key, 2, 1));          // order matters
  EXPECT_NE(s1, derive_session_key(key, 1, 3));          // both nonces bound
  EXPECT_NE(s1, derive_session_key(test_key('j'), 1, 2));  // link key bound
  EXPECT_EQ(s1, derive_session_key(key, 1, 2));          // deterministic
}

TEST(FramingTest, PeekParsesWithoutAuthenticating) {
  HelloBody hello;
  hello.node_id = 2;
  const Bytes wire = encode_frame(FrameType::kHello, hello.encode(), test_key('k'));

  bool corrupt = true;
  // Incomplete prefix: need more, not corrupt.
  EXPECT_FALSE(
      peek_frame_unauthenticated(BytesView(wire.data(), wire.size() - 1), &corrupt).has_value());
  EXPECT_FALSE(corrupt);

  const auto frame = peek_frame_unauthenticated(wire, &corrupt);
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(corrupt);
  EXPECT_EQ(frame->type, FrameType::kHello);
  Reader reader(frame->body);
  EXPECT_EQ(HelloBody::decode(reader).node_id, 2u);

  Bytes garbage(64, 0xee);
  EXPECT_FALSE(peek_frame_unauthenticated(garbage, &corrupt).has_value());
  EXPECT_TRUE(corrupt);
}

}  // namespace
}  // namespace sintra::net::transport
