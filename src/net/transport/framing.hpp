// Wire framing for authenticated point-to-point links.
//
// A TCP byte stream (or a loopback "segment") carries frames:
//
//   [u32 body_len (LE)] [u8 type] [body ...] [32-byte HMAC-SHA256]
//
// The MAC covers type || body and is keyed per link (HELLO frames: the
// static pairwise key dealt by the trusted dealer, crypto/dealer.hpp) or
// per session (everything after the handshake: a key bound to both sides'
// fresh nonces, so frames captured on one connection cannot be replayed
// into a later one).  This realizes the paper's authenticated-links
// assumption with the dealer as the root of trust, replacing the
// simulator's structural `from` enforcement.
//
// The decoder is incremental (a TCP read boundary can fall anywhere) and
// fails closed: a bad MAC, an unknown type or an oversized length poisons
// the stream — the connection is torn down rather than resynchronized,
// because resynchronizing against an adversarial byte stream is hopeless.
//
// Frame bodies are typed and serialized with the deterministic
// Writer/Reader encoding used by every protocol message:
//   HELLO: u16 version, u32 node_id, u64 nonce, u64 recv_cursor
//   BATCH: u64 ack, u64 base, u32 count,
//          count x { u64 seq, u32 group, bytes payload }
//   ACK:   u64 ack
//   PING/PONG: empty
// `ack` is cumulative ("I delivered every seq < ack"); `base` is the
// sender's lowest retained seq (the quota gap floor, see link.hpp).
// Frames carry no membership epoch: the link keys are the membership
// fence.  A reconfiguration epoch re-derives every pair's key
// (protocols/reconfig.hpp, assemble_committee), so a peer keyed for
// another epoch's committee fails the HELLO MAC and never connects.
//
// `group` is the multi-tenant shard stamp: one host process can run
// several independent SINTRA groups over a single transport, and each
// payload names the group (tenant) it belongs to.  The stamp rides per
// *record*, not per frame, so one coalesced BATCH super-frame carries
// traffic for many shards under a single HMAC and a single syscall —
// sharding multiplies the message rate but not the per-link
// authentication cost.  ack/base remain link-level (per frame):
// reliability is a property of the machine pair, not of any one tenant.
// Single-tenant deployments stamp group 0 everywhere.
//
// BATCH is the coalesced super-frame and the only data frame: every
// payload bound for a peer in one event-loop flush rides one frame — one
// length prefix, one HMAC over the whole batch, one syscall — amortizing
// per-message authentication the way TNIC amortizes attestation.  The cursors
// (ack/base) are link-level state valid for the entire flush, so they
// appear once per batch rather than once per message.  Receivers slice
// payload views straight out of the decoder's buffer (DataBatchView) —
// the zero-copy receive path.  Both transports build and consume BATCH
// and ACK frames through the one codec beside ReliableLink (link.hpp).
#pragma once

#include <cstdint>
#include <optional>

#include "common/serialize.hpp"
#include "crypto/sha256.hpp"

namespace sintra::net::transport {

constexpr std::uint16_t kProtocolVersion = 5;  // v5: no epoch stamp in HELLO or BATCH
constexpr std::size_t kMacSize = crypto::kSha256DigestSize;
/// Upper bound on a frame body; larger lengths are treated as an attack on
/// the receiver's memory and poison the stream.
constexpr std::size_t kMaxFrameBody = 1u << 22;  // 4 MiB
constexpr std::size_t kFrameOverhead = 4 + 1 + kMacSize;

enum class FrameType : std::uint8_t {
  kHello = 1,
  // 2 was the retired single-payload DATA frame; it is now an unknown type.
  kAck = 3,
  kPing = 4,
  kPong = 5,
  kDataBatch = 6,
};

/// Soft budget for one BATCH super-frame's payload bytes; a flush larger
/// than this splits into several batches so no frame approaches
/// kMaxFrameBody (a single over-budget payload still gets its own batch).
constexpr std::size_t kMaxBatchBytes = 1u << 20;  // 1 MiB

struct Frame {
  FrameType type = FrameType::kPing;
  Bytes body;
};

struct HelloBody {
  std::uint16_t version = kProtocolVersion;
  std::uint32_t node_id = 0;
  std::uint64_t nonce = 0;        ///< fresh per connection attempt
  std::uint64_t recv_cursor = 0;  ///< cumulative receive progress (link.hpp)

  [[nodiscard]] Bytes encode() const;
  static HelloBody decode(Reader& reader);  ///< throws ProtocolError
};

struct DataBatchBody {
  std::uint64_t ack = 0;
  std::uint64_t base = 0;
  struct Record {
    std::uint64_t seq = 0;
    std::uint32_t group = 0;  ///< per-record shard stamp
    Bytes payload;
  };
  std::vector<Record> records;

  [[nodiscard]] Bytes encode() const;
  static DataBatchBody decode(Reader& reader);  ///< throws ProtocolError
};

/// Zero-copy decode of a BATCH body: payloads are slices of the frame
/// body, valid only while the underlying buffer lives (for a decoder
/// view, until the next feed()).
struct DataBatchView {
  std::uint64_t ack = 0;
  std::uint64_t base = 0;
  struct Record {
    std::uint64_t seq = 0;
    std::uint32_t group = 0;  ///< per-record shard stamp
    BytesView payload;
  };
  std::vector<Record> records;

  static DataBatchView decode(BytesView body);  ///< throws ProtocolError
};

/// ACK body: the sender's cumulative receive cursor.
Bytes encode_ack(std::uint64_t ack);
std::uint64_t decode_ack(BytesView body);  ///< throws ProtocolError

/// Encode one frame, MAC'd under `mac_key`.
Bytes encode_frame(FrameType type, BytesView body, BytesView mac_key);

/// Session key bound to a link key and both connection nonces (the lower
/// party id's nonce first, so both ends derive the same key).
Bytes derive_session_key(BytesView link_key, std::uint64_t nonce_low, std::uint64_t nonce_high);

/// Accept-path helper: structurally parse the first complete frame of
/// `stream` WITHOUT authenticating, so the receiver can learn the claimed
/// node id of a HELLO and pick the right link key (the frame must then be
/// re-extracted through an authenticating FrameDecoder).  Returns nullopt
/// when the frame is still incomplete; sets `*corrupt` on a structurally
/// invalid prefix.
std::optional<Frame> peek_frame_unauthenticated(BytesView stream, bool* corrupt);

/// Incremental frame parser over a byte stream.
class FrameDecoder {
 public:
  enum class Status {
    kNeedMore,  ///< no complete frame buffered
    kFrame,     ///< `out` holds the next authenticated frame
    kCorrupt,   ///< stream poisoned (bad MAC / length / type) — terminal
  };

  /// Append raw stream bytes.
  void feed(BytesView data);

  /// Extract the next frame, authenticating with `mac_key`.  After
  /// kCorrupt every further call returns kCorrupt.
  Status next(BytesView mac_key, Frame& out);

  /// Like next(), but the body comes back as a view into the decoder's
  /// internal buffer — no copy.  The view (and any sub-slices taken from
  /// it, e.g. DataBatchView payloads) stays valid until the next feed().
  Status next_view(BytesView mac_key, FrameType& out_type, BytesView& out_body);

  [[nodiscard]] bool corrupt() const { return corrupt_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  Bytes buffer_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
};

}  // namespace sintra::net::transport
