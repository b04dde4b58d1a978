// Secure state machine replication (§5, after Schneider and
// Reiter–Birman): a deterministic service replicated over all servers,
// fed by atomic broadcast (or secure causal atomic broadcast for services
// that need request confidentiality until scheduling, like the notary),
// answering clients with threshold-signed replies.
//
// Request path: the client sends its request envelope (or its TDH2
// encryption, in causal mode) to the servers; each server submits it for
// total-order delivery; on delivery every server executes it on its local
// state machine copy — all copies stay identical because execution is
// deterministic and the order is agreed — and answers the client with
// signature shares of the *service* reply key.  A replica signs rounds, not
// replies: the reply statements of one decided atomic-broadcast round are
// the leaves of a Merkle tree (crypto/merkle.hpp), the replica signs that
// tree's root statement once, and every reply carries the root shares
// plus its own inclusion path.  A causal-mode delivery and a duplicate
// answered from the reply cache are one-leaf rounds.  The client folds its
// path and recombines the shares into one ordinary RSA signature under the
// single service public key (app/client.hpp).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "crypto/merkle.hpp"
#include "protocols/causal.hpp"

namespace sintra::app {

/// A deterministic service.  `execute` must depend only on the current
/// state and the request bytes.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  virtual Bytes execute(BytesView request) = 0;
  /// Service name used in reply statements (domain separation).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Request envelope exchanged between clients and the service.
struct RequestEnvelope {
  int client = 0;               ///< client's network id
  std::uint64_t request_id = 0;
  Bytes body;

  void encode(Writer& w) const;
  static RequestEnvelope decode(Reader& r);
};

/// Statement one reply answers: its leaf in the round's reply tree is
/// merkle::leaf(reply_statement(...)).
Bytes reply_statement(const std::string& service_tag, const RequestEnvelope& request,
                      BytesView reply);

/// Statement that reply signature shares sign: the root of a `count`-leaf
/// reply tree.  Binding `count` stops a path from being reread against
/// another tree shape; the leaves bind client, request and reply, so no
/// round number is needed.
Bytes root_statement(const std::string& service_tag, std::uint32_t count,
                     const crypto::Digest& root);

/// Reply status byte (first byte of every server->client reply).
enum ReplyStatus : std::uint8_t {
  kReplyOk = 0,    ///< SignedReply
  kReplyBusy = 1,  ///< u64 request_id (0 = unattributable), u64 retry_after
};

/// A kReplyOk reply: [kReplyOk][u64 request_id][bytes reply][u32 index]
/// [u32 count][vec path][vec shares].  `index` and `path` place the reply's
/// leaf in its round's `count`-leaf tree; `shares` are the sender's
/// reply-key shares on that tree's root_statement, identical in every
/// reply the sender sends for the round.
struct SignedReply {
  std::uint64_t request_id = 0;
  Bytes reply;
  std::uint32_t index = 0;
  std::uint32_t count = 0;
  std::vector<crypto::Digest> path;
  std::vector<crypto::SigShare> shares;

  /// The whole payload, status byte included.
  [[nodiscard]] Bytes encode() const;
  /// Decode what follows the status byte.
  static SignedReply decode(Reader& r);
};

/// Admission-control knobs (per replica).  A replica keeps at most
/// `max_inflight` submitted-but-unordered requests (and `max_per_client`
/// per client); beyond that it sheds load with an explicit Busy reply
/// carrying `retry_after`, which ServiceClient honors as a backoff floor.
/// The duplicate-reply cache is FIFO-bounded at `reply_cache_cap` entries:
/// a duplicate of a still-cached request is re-answered, as a one-leaf
/// round, without re-execution (exactly-once); one older than the cache
/// window would re-execute, which deterministic state machines tolerate.
/// The cache holds reply bytes only, never signed shares.
struct Admission {
  std::size_t max_inflight = 256;
  std::size_t max_per_client = 64;
  std::uint64_t retry_after = 50;  ///< network time units, advisory
  std::size_t reply_cache_cap = 1024;
};

class Replica final : public protocols::ProtocolInstance {
 public:
  enum class Mode {
    kAtomic,  ///< requests ordered in the clear (CA, directory)
    kCausal,  ///< requests stay encrypted until ordered (notary)
  };

  Replica(net::Party& host, std::string tag, Mode mode,
          std::unique_ptr<StateMachine> state_machine);

  /// Override the admission-control knobs (tests shrink them to force
  /// shedding).  Call before traffic flows.
  void set_admission(Admission admission) { admission_ = admission; }

  [[nodiscard]] Mode mode() const { return mode_; }
  /// The underlying total-order broadcast (atomic mode only, else null) —
  /// exposed so deployments can enable checkpoint certificates and wire a
  /// net::StateTransfer instance to its certified_state/install hooks.
  [[nodiscard]] protocols::AtomicBroadcast* atomic() { return atomic_.get(); }
  /// Emit a checkpoint certificate every `interval` rounds (atomic mode).
  void enable_checkpoints(int interval) {
    if (atomic_) atomic_->enable_checkpoints(interval);
  }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_count_; }
  /// Reply-key signatures made: one per round with replies, one per
  /// one-leaf answer.
  [[nodiscard]] std::uint64_t reply_signatures() const { return reply_signatures_; }
  [[nodiscard]] std::uint64_t busy_sent() const { return busy_sent_; }
  [[nodiscard]] std::size_t inflight() const {
    return mode_ == Mode::kAtomic ? inflight_.size() : causal_inflight_;
  }

 private:
  using RequestKey = std::pair<int, std::uint64_t>;  ///< (client, request_id)

  /// One leaf of a reply tree.
  struct Answer {
    RequestKey key;
    Bytes reply;
    crypto::Digest leaf;
  };

  void handle(int from, Reader& reader) override;  ///< client requests
  void on_ordered_envelope(Bytes envelope_bytes);
  Answer execute(const RequestEnvelope& envelope);
  /// Sign one tree over `answers` and send each client its reply.
  void sign_and_reply(std::vector<Answer>& answers);
  void send_reply(int client, Bytes payload);
  void send_busy(int client, std::uint64_t request_id);
  void cache_reply(const RequestKey& key, Bytes reply);

  Mode mode_;
  Admission admission_;
  std::unique_ptr<StateMachine> state_machine_;
  std::unique_ptr<protocols::AtomicBroadcast> atomic_;       ///< kAtomic
  std::unique_ptr<protocols::SecureCausalBroadcast> causal_; ///< kCausal
  /// Admitted but not yet ordered (atomic mode: keyed, exact dedupe;
  /// causal mode: ciphertexts hide the key, so only a counter).
  std::set<RequestKey> inflight_;
  std::map<int, std::size_t> inflight_per_client_;
  std::size_t causal_inflight_ = 0;
  std::map<RequestKey, Bytes> reply_cache_;  ///< duplicate-request re-replies
  std::deque<RequestKey> reply_cache_fifo_;  ///< cache eviction order
  std::vector<Answer> round_answers_;  ///< this round's leaves (atomic mode)
  std::uint64_t executed_count_ = 0;
  std::uint64_t reply_signatures_ = 0;
  std::uint64_t busy_sent_ = 0;
};

}  // namespace sintra::app
