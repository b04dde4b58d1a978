// Atomic broadcast (§3): total order on all delivered payloads.
//
// Follows the round structure the paper describes (after Chandra–Toueg):
// the parties proceed in global rounds; in round R every party signs its
// queue of undelivered payloads and sends it to everyone; every party then
// proposes a batch-set containing properly signed batches from a full
// quorum of parties for multi-valued validated agreement; the external
// validity predicate checks exactly that ("the decided list comes with
// valid signatures, so messages from honest parties are included"); the
// decided batch-set is delivered in a deterministic order.
//
// Guarantees: all honest parties deliver the same payloads in the same
// order (agreement + total order, from VBA), every payload submitted by an
// honest party is eventually delivered (its batch is re-proposed each
// round until delivery), and no payload is delivered twice (content
// dedupe).  The "individual digital signature" of the paper is realized by
// a party's quorum-key signatures (crypto/quorum_sig.hpp: one EC-Schnorr
// signature per share unit), verifiable per party against the dealt
// verification values.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_set>

#include "crypto/checkpoint.hpp"
#include "crypto/sha256.hpp"
#include "protocols/vba.hpp"

namespace sintra::protocols {

class AtomicBroadcast final : public ProtocolInstance {
 public:
  /// deliver(origin, payload): origin is the party whose signed batch
  /// carried the payload (for client accounting), payloads arrive in the
  /// agreed total order, duplicates suppressed.
  using DeliverFn = std::function<void(int origin, Bytes payload)>;
  /// round_end(): fires once per decided round, after that round's last
  /// deliver_ and before the next round starts.  Deliveries re-fired by
  /// checkpoint_load or install_checkpoint belong to no round and never
  /// fire it.
  using RoundEndFn = std::function<void()>;

  AtomicBroadcast(net::Party& host, std::string tag, DeliverFn deliver,
                  RoundEndFn round_end = {});
  ~AtomicBroadcast() override;

  /// Queue a payload for total-order delivery.  The submission rides the
  /// network as a self-message so it lands in the Party write-ahead log:
  /// crash recovery replays it at its original position and the rebuilt
  /// sender state matches the pre-crash run exactly.
  void submit(Bytes payload);

  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_count_; }
  [[nodiscard]] int rounds_completed() const { return last_finished_; }
  /// True while a decided round is handing its payloads to deliver_ (the
  /// deliveries round_end will close); false for checkpoint re-deliveries.
  [[nodiscard]] bool delivering_round() const { return delivering_round_; }

  /// Introspection for the memory-budget tests.
  [[nodiscard]] std::size_t live_rounds() const { return rounds_.size(); }
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }
  /// Batch entries whose signatures went through a full check, on arrival
  /// or in the validity predicate.  An entry whose exact bytes already
  /// verified for its round is not checked again, and this party's own
  /// batch is never checked.
  [[nodiscard]] std::uint64_t entries_checked() const { return entries_checked_; }
  /// Batch-sets the validity predicate rejected.
  [[nodiscard]] std::uint64_t batch_sets_rejected() const { return batch_sets_rejected_; }
  /// Parties that sent this party a batch whose signatures failed.
  [[nodiscard]] crypto::PartySet suspected() const { return suspected_; }

  /// Turn on certified checkpoints: after every `interval` completed
  /// rounds the parties threshold-sign (round, delivered-count, delivery
  /// chain digest) and gossip the shares; once a qualified set arrives the
  /// combined certificate is held in latest_certificate() and serves as
  /// the anchor for peer state transfer (net/state_transfer.hpp).
  /// interval == 0 (the default) disables the machinery entirely.
  void enable_checkpoints(int interval);

  /// Highest combined checkpoint certificate seen so far, if any.
  [[nodiscard]] const std::optional<crypto::CheckpointCert>& latest_certificate() const {
    return latest_cert_;
  }

  /// Serialized delivered-prefix snapshot matching `cert` (the first
  /// cert.delivered_count entries of the delivery log), or empty if this
  /// party cannot serve it (log compacted differently / WAL off).
  [[nodiscard]] Bytes certified_state(const crypto::CheckpointCert& cert) const;

  /// Install a peer-fetched certified snapshot: verifies the certificate
  /// and that the snapshot re-hashes to the certified chain digest, then
  /// delivers the suffix beyond what this party already delivered and
  /// fast-forwards the round counter.  Returns false (and changes
  /// nothing) on any verification failure.
  bool install_checkpoint(const crypto::CheckpointCert& cert, BytesView state);

  /// Running chain digest over the delivered prefix (tests/diagnostics).
  [[nodiscard]] const Bytes& chain_digest() const { return chain_digest_; }

 private:
  static constexpr std::size_t kMaxBatch = 16;
  /// Batches are accepted at most this many rounds ahead of the last
  /// completed one; honest parties run within a round or two of each
  /// other, so anything farther is adversarial and dropped.
  static constexpr int kRoundLookahead = 32;
  /// Completed rounds (and their VBA instances) linger this many rounds
  /// before being garbage-collected, so laggards can still fetch the
  /// recent decisions.  (A laggard more than kRetention rounds behind
  /// relies on peers' retained instances; carrying explicit VBA decision
  /// certificates would close that corner and is future work.)
  static constexpr int kRetention = 2;
  /// Delivered-payload digests kept for content dedupe (FIFO-bounded so a
  /// long-running service does not grow without bound).
  static constexpr std::size_t kDeliveredCap = 4096;

  enum MsgType : std::uint8_t {
    kSubmit = 0,     ///< local submission looped through self (WAL capture)
    kBatch = 1,      ///< signed round batch
    kCkptShare = 2,  ///< signature shares on a checkpoint statement
  };

  struct RoundData {
    crypto::PartySet batch_from = 0;
    std::vector<Bytes> batches;  ///< encoded (party, payloads, signatures) entries
    std::vector<std::pair<int, std::size_t>> charges;  ///< (peer, bytes) held
    /// Digests of encoded entries whose signatures verified for this round, on
    /// arrival or in the predicate.  Kept until the round is GC'd, since
    /// late proposals still run the predicate after the decision.
    std::set<crypto::Digest> verified;
    bool started = false;
    bool proposed = false;
    std::unique_ptr<Vba> vba;
  };

  /// Per-checkpoint-round share collection.  Until this party itself
  /// completes the round (`reached`), peers' shares are stashed raw — the
  /// statement they sign is only known once the local chain digest catches
  /// up.  Both stashes and verified shares are budget-charged.
  struct CkptPending {
    bool reached = false;
    std::uint64_t delivered = 0;   ///< delivered_count_ at the round boundary
    Bytes chain_digest;            ///< chain digest at the round boundary
    crypto::ShareTally<crypto::SigShare> shares;  ///< verified on arrival
    std::vector<std::pair<int, Bytes>> waiting;  ///< (peer, raw shares) pre-reach
    std::vector<std::pair<int, std::size_t>> charges;
  };

  void handle(int from, Reader& reader) override;
  void maybe_start_round(int round);
  void maybe_propose(int round);
  void on_round_decided(int round, const Bytes& batch_set);
  void release_round_charges(RoundData& rd);
  void note_delivered(const crypto::Digest& digest);
  [[nodiscard]] bool was_delivered(BytesView payload) const;
  void gc_completed_rounds();
  void emit_checkpoint_share(int round);
  void handle_ckpt_share(int from, Reader& reader);
  void process_ckpt_shares(int from, int round, std::vector<crypto::SigShare> shares);
  void gc_checkpoints();
  void release_ckpt_charges(CkptPending& cp);
  [[nodiscard]] Bytes checkpoint_save() const;
  void checkpoint_load(Reader& reader);
  [[nodiscard]] Bytes batch_statement(int round, int party, BytesView payload_block) const;
  [[nodiscard]] bool validate_batch_set(int round, BytesView batch_set);

  DeliverFn deliver_;
  RoundEndFn round_end_;
  bool delivering_round_ = false;
  std::deque<Bytes> queue_;               ///< undelivered local submissions
  /// Digests of delivered payloads, each held once: the FIFO owns them (in
  /// eviction order, kDeliveredCap) and the set indexes them by pointer
  /// (deque push_back/pop_front leave the other elements in place).
  struct DigestHash {
    std::size_t operator()(const crypto::Digest* d) const noexcept {
      std::size_t h = 0;
      for (std::size_t i = 0; i < sizeof h; ++i) h = (h << 8) | (*d)[i];
      return h;
    }
  };
  struct DigestEq {
    bool operator()(const crypto::Digest* a, const crypto::Digest* b) const noexcept {
      return *a == *b;
    }
  };
  std::deque<crypto::Digest> delivered_fifo_;
  std::unordered_set<const crypto::Digest*, DigestHash, DigestEq> delivered_;
  /// Ordered (origin, payload) delivery log, kept only with the WAL on:
  /// it is the checkpoint that lets completed rounds' WAL entries be
  /// pruned — the loader re-fires deliver_ for each entry so parent state
  /// (replica execution, causal layer) is rebuilt without a full replay.
  std::vector<std::pair<int, Bytes>> delivered_log_;
  std::uint64_t delivered_count_ = 0;
  int last_finished_ = 0;                 ///< highest completed round
  std::map<int, RoundData> rounds_;
  int ckpt_interval_ = 0;                 ///< 0 = certified checkpoints off
  Bytes chain_digest_ = crypto::chain_initial();  ///< chain over delivered prefix
  std::optional<crypto::CheckpointCert> latest_cert_;
  std::map<int, CkptPending> ckpts_;      ///< rounds with shares in flight
  std::uint64_t entries_checked_ = 0;
  std::uint64_t batch_sets_rejected_ = 0;
  crypto::PartySet suspected_ = 0;
  /// VBA instances awaiting destruction: a Vba must never be destroyed
  /// from inside its own callback chain, so GC parks them here and the
  /// next handle() entry (outside any Vba handler) flushes the list.
  std::vector<std::unique_ptr<Vba>> retired_vbas_;
};

}  // namespace sintra::protocols
