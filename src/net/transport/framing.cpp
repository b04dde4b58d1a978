#include "net/transport/framing.hpp"

#include <cstring>

namespace sintra::net::transport {

namespace {

crypto::Digest frame_mac(FrameType type, BytesView body, BytesView mac_key) {
  Bytes covered;
  covered.reserve(1 + body.size());
  covered.push_back(static_cast<std::uint8_t>(type));
  append(covered, body);
  return crypto::hmac_sha256(mac_key, covered);
}

/// Type 2, the retired single-payload DATA frame, is as unknown as any
/// other type outside the enum: it poisons the stream.
constexpr std::uint8_t kRetiredData = 2;

bool known_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kDataBatch) && type != kRetiredData;
}

}  // namespace

Bytes HelloBody::encode() const {
  Writer w;
  w.u16(version);
  w.u32(node_id);
  w.u64(nonce);
  w.u64(recv_cursor);
  return w.take();
}

HelloBody HelloBody::decode(Reader& reader) {
  HelloBody hello;
  hello.version = reader.u16();
  hello.node_id = reader.u32();
  hello.nonce = reader.u64();
  hello.recv_cursor = reader.u64();
  reader.expect_done();
  return hello;
}

Bytes DataBatchBody::encode() const {
  Writer w;
  w.u64(ack);
  w.u64(base);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const Record& record : records) {
    w.u64(record.seq);
    w.u32(record.group);
    w.bytes(record.payload);
  }
  return w.take();
}

DataBatchBody DataBatchBody::decode(Reader& reader) {
  DataBatchBody batch;
  batch.ack = reader.u64();
  batch.base = reader.u64();
  const std::uint32_t count = reader.u32();
  SINTRA_REQUIRE(count <= reader.remaining(), "framing: implausible batch count");
  batch.records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Record record;
    record.seq = reader.u64();
    record.group = reader.u32();
    record.payload = reader.bytes();
    batch.records.push_back(std::move(record));
  }
  reader.expect_done();
  return batch;
}

DataBatchView DataBatchView::decode(BytesView body) {
  Reader reader(body);
  DataBatchView batch;
  batch.ack = reader.u64();
  batch.base = reader.u64();
  const std::uint32_t count = reader.u32();
  SINTRA_REQUIRE(count <= reader.remaining(), "framing: implausible batch count");
  batch.records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Record record;
    record.seq = reader.u64();
    record.group = reader.u32();
    record.payload = reader.bytes_view();  // slice, not copy
    batch.records.push_back(record);
  }
  reader.expect_done();
  return batch;
}

Bytes encode_ack(std::uint64_t ack) {
  Writer w;
  w.u64(ack);
  return w.take();
}

std::uint64_t decode_ack(BytesView body) {
  Reader reader(body);
  const std::uint64_t ack = reader.u64();
  reader.expect_done();
  return ack;
}

Bytes encode_frame(FrameType type, BytesView body, BytesView mac_key) {
  SINTRA_INVARIANT(body.size() <= kMaxFrameBody, "framing: oversized frame body");
  const crypto::Digest mac = frame_mac(type, body, mac_key);
  Writer w;
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u8(static_cast<std::uint8_t>(type));
  w.raw(body);
  w.raw(BytesView(mac.data(), mac.size()));
  return w.take();
}

Bytes derive_session_key(BytesView link_key, std::uint64_t nonce_low, std::uint64_t nonce_high) {
  Writer w;
  w.u64(nonce_low);
  w.u64(nonce_high);
  const crypto::Digest mac = crypto::hmac_sha256(link_key, w.data());
  return Bytes(mac.begin(), mac.end());
}

std::optional<Frame> peek_frame_unauthenticated(BytesView stream, bool* corrupt) {
  *corrupt = false;
  if (stream.size() < 4) return std::nullopt;
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, stream.data(), 4);
  if (body_len > kMaxFrameBody) {
    *corrupt = true;
    return std::nullopt;
  }
  const std::size_t total = 4 + 1 + static_cast<std::size_t>(body_len) + kMacSize;
  if (stream.size() < total) return std::nullopt;
  if (!known_type(stream[4])) {
    *corrupt = true;
    return std::nullopt;
  }
  Frame frame;
  frame.type = static_cast<FrameType>(stream[4]);
  frame.body.assign(stream.begin() + 5, stream.begin() + 5 + body_len);
  return frame;
}

void FrameDecoder::feed(BytesView data) {
  if (corrupt_) return;
  // Compact before growing: everything before pos_ has been consumed.
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  append(buffer_, data);
}

FrameDecoder::Status FrameDecoder::next(BytesView mac_key, Frame& out) {
  FrameType type = FrameType::kPing;
  BytesView body;
  const Status status = next_view(mac_key, type, body);
  if (status == Status::kFrame) {
    out.type = type;
    out.body.assign(body.begin(), body.end());
  }
  return status;
}

FrameDecoder::Status FrameDecoder::next_view(BytesView mac_key, FrameType& out_type,
                                             BytesView& out_body) {
  if (corrupt_) return Status::kCorrupt;
  const std::size_t available = buffer_.size() - pos_;
  if (available < 4) return Status::kNeedMore;
  std::uint32_t body_len = 0;
  std::memcpy(&body_len, buffer_.data() + pos_, 4);  // LE, matching Writer::u32
  if (body_len > kMaxFrameBody) {
    corrupt_ = true;
    return Status::kCorrupt;
  }
  const std::size_t total = 4 + 1 + static_cast<std::size_t>(body_len) + kMacSize;
  if (available < total) return Status::kNeedMore;
  const std::uint8_t* frame = buffer_.data() + pos_;
  const std::uint8_t raw_type = frame[4];
  const BytesView body(frame + 5, body_len);
  const BytesView mac(frame + 5 + body_len, kMacSize);
  if (!known_type(raw_type)) {
    corrupt_ = true;
    return Status::kCorrupt;
  }
  const FrameType type = static_cast<FrameType>(raw_type);
  const crypto::Digest expected = frame_mac(type, body, mac_key);
  if (!constant_time_equal(BytesView(expected.data(), expected.size()), mac)) {
    corrupt_ = true;
    return Status::kCorrupt;
  }
  out_type = type;
  out_body = body;
  pos_ += total;
  return Status::kFrame;
}

}  // namespace sintra::net::transport
