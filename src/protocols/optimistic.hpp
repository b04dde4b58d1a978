// Optimistic atomic broadcast (paper §6, "Optimistic Protocols", after
// Kursawe–Shoup): "run very fast if no corruptions occur and all messages
// are delivered promptly ... if a problem is detected they switch into a
// more secure mode; safety is never violated".
//
// Fast path (per payload: 4 message delays, O(n) crypto):
//   1. a fixed sequencer assigns sequence numbers and broadcasts
//      ASSIGN(seq, payload);
//   2. every party extends its hash chain over the assigned prefix and
//      returns its quorum-key signatures (crypto/quorum_sig.hpp) over
//      (seq, chain) to the sequencer — the chain value pins the entire
//      prefix, so ONE certificate is a transferable proof of all
//      deliveries up to seq;
//   3. the sequencer checks each signer's signatures as they arrive and,
//      once the signers form a quorum, broadcasts COMMIT(seq, payload,
//      signatures): the signature set is the certificate, as in
//      consistent broadcast;
//   4. parties verify the certificate and broadcast a tiny ACK(seq);
//      a slot is DELIVERED once a vote quorum ("2t+1") has acked — which
//      guarantees that a fault-set-exceeding set of honest parties holds
//      the certificate.  That stability rule is exactly what makes the
//      switch safe.
//
// Switch (liveness only ever depends on it, never safety): any party may
// signal loss of progress; everyone then broadcasts a signed CLAIM of its
// longest certified chain, collects claims from a full quorum, and runs
// one VBA whose external validity accepts "a set of n−t properly signed,
// certificate-valid claims" (the same shape as an atomic-broadcast round).
// The adopted fast prefix is the longest chain in the DECIDED set: if any
// honest party fast-delivered slot k, more than one fault set of honest
// parties hold cert_k (the ACK rule), and any n−t claims include at least
// one of them — so the agreed prefix extends every honest delivery.
// Undelivered payloads are resubmitted to the randomized atomic broadcast
// and the system continues pessimistically.
//
// Slots the commit cursor has not reached and out-of-order ASSIGNs are
// buffers a peer can fill at will, so each is charged to the peer that
// caused it against the party's ResourceBudget until the slot commits or
// the ASSIGN is signed.
//
// A single corrupted party can force the switch (a performance, not a
// safety, concern — mitigations are out of scope, as in KS02).
#pragma once

#include <deque>

#include "protocols/atomic.hpp"

namespace sintra::protocols {

class OptimisticBroadcast final : public ProtocolInstance {
 public:
  using DeliverFn = std::function<void(Bytes payload)>;

  /// `sequencer` leads the fast path (conventionally party 0).
  OptimisticBroadcast(net::Party& host, std::string tag, int sequencer, DeliverFn deliver);

  void submit(Bytes payload);

  /// Signal loss of fast-path liveness.  Failure detection is external to
  /// the protocol (an application-level timeout); a false signal costs
  /// speed, never consistency.
  void switch_to_pessimistic();

  [[nodiscard]] bool pessimistic() const { return pessimistic_; }
  [[nodiscard]] bool switching() const { return switching_; }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_count_; }
  /// Parties whose slot signatures the sequencer refused on arrival.
  [[nodiscard]] crypto::PartySet suspected() const { return suspected_; }

 private:
  enum MsgType : std::uint8_t {
    kAssign = 0,
    kShare = 1,
    kCommit = 2,
    kAck = 3,
    kSwitch = 4,
    kClaim = 5,
  };

  struct Slot {
    Bytes payload;
    std::vector<crypto::QuorumSig> certificate;
    bool committed = false;       ///< COMMIT received (verified at the cursor)
    crypto::PartySet acks = 0;
    bool acked = false;           ///< we sent our ACK
    bool delivered = false;
    /// Budget charges (peer, bytes) held until the slot commits.
    std::vector<std::pair<int, std::size_t>> charges;
    // Sequencer bookkeeping:
    Bytes statement;              ///< canonical signed statement for the slot
    crypto::ShareTally<crypto::QuorumSig> signatures;  ///< verified on arrival
    bool commit_sent = false;
  };

  void handle(int from, Reader& reader) override;
  void on_assign(int from, Reader& reader);
  void on_share(int from, Reader& reader);
  void on_commit(int from, Reader& reader);
  void on_ack(int from, Reader& reader);
  void on_switch(int from);
  void on_claim(int from, Reader& reader);

  [[nodiscard]] Bytes slot_statement(std::uint64_t seq, BytesView chain) const;
  [[nodiscard]] Bytes chain_after(std::uint64_t seq, BytesView payload,
                                  BytesView prev_chain) const;
  [[nodiscard]] Bytes claim_statement(BytesView claim_body) const;
  /// True iff `certificate` is a quorum's signatures on `statement`.
  [[nodiscard]] bool certifies(BytesView statement,
                               const std::vector<crypto::QuorumSig>& certificate) const;
  /// Charge `bytes` to `from` for a buffered slot or ASSIGN; false (and
  /// traced) when the budget refuses.
  [[nodiscard]] bool charge(int from, std::size_t bytes, const char* what);
  void process_assign_queue();
  void maybe_deliver_fast();
  void deliver_payload(Bytes payload);
  void broadcast_claim();
  void maybe_propose_switch_set();
  void on_switch_set_decided(const Bytes& value);
  [[nodiscard]] bool validate_claim(BytesView claim_body, int claimant,
                                    const std::vector<crypto::QuorumSig>& signatures,
                                    std::vector<Bytes>* payloads_out) const;
  [[nodiscard]] bool validate_switch_set(BytesView value) const;
  [[nodiscard]] Bytes my_claim_body() const;

  int sequencer_;
  DeliverFn deliver_;
  bool switching_ = false;
  bool pessimistic_ = false;
  std::uint64_t delivered_count_ = 0;
  crypto::PartySet suspected_ = 0;  ///< senders of invalid slot signatures

  // Fast path.
  std::uint64_t next_assign_ = 0;       ///< sequencer: next seq to assign
  std::uint64_t sign_cursor_ = 0;       ///< next seq we would sign
  Bytes sign_chain_;                    ///< chain value after sign_cursor_-1
  std::uint64_t commit_cursor_ = 0;     ///< next seq to commit-verify
  Bytes commit_chain_;                  ///< chain value after commit_cursor_-1
  std::uint64_t deliver_cursor_ = 0;    ///< next fast slot to deliver
  std::map<std::uint64_t, Slot> slots_;
  std::map<std::uint64_t, Bytes> assign_queue_;  ///< out-of-order assigns (charged)
  std::deque<Bytes> pending_;           ///< our submissions not yet delivered
  std::set<Bytes> delivered_digests_;

  // Switch machinery.
  crypto::PartySet claims_from_ = 0;
  std::vector<Bytes> claim_records_;    ///< encoded (claimant, body, signatures)
  std::uint64_t best_claim_len_ = 0;
  std::unique_ptr<Vba> switch_vba_;
  bool proposed_switch_set_ = false;
  std::unique_ptr<AtomicBroadcast> fallback_;
};

}  // namespace sintra::protocols
