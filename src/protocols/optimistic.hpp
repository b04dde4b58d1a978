// Optimistic atomic broadcast (paper §6, "Optimistic Protocols", after
// Kursawe–Shoup): "run very fast if no corruptions occur and all messages
// are delivered promptly ... if a problem is detected they switch into a
// more secure mode; safety is never violated".
//
// Fast path (per payload: 4 message delays, O(n) crypto):
//   1. a fixed sequencer assigns sequence numbers and broadcasts
//      ASSIGN(seq, payload);
//   2. every party extends its hash chain over the assigned prefix and
//      returns a certificate-signature share over (seq, chain) to the
//      sequencer — the chain value pins the entire prefix, so ONE
//      certificate is a transferable proof of all deliveries up to seq;
//   3. the sequencer combines a full quorum of shares into a threshold
//      certificate and broadcasts COMMIT(seq, payload, cert);
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
  /// Parties whose slot-signature shares the sequencer's combine-then-
  /// verify fallback proved invalid.
  [[nodiscard]] crypto::PartySet suspected() const { return suspected_; }

 private:
  enum MsgType : std::uint8_t {
    kAssign = 0,
    kShare = 1,
    kCommit = 2,
    kAck = 3,
    kSwitch = 4,
    kClaim = 5,
    kShareVerdict = 6,  ///< self-message: off-loop slot-combine result
  };

  struct Slot {
    Bytes payload;
    crypto::BigInt certificate;
    bool committed = false;       ///< valid COMMIT received
    crypto::PartySet acks = 0;
    bool acked = false;           ///< we sent our ACK
    bool delivered = false;
    // Sequencer bookkeeping:
    Bytes statement;              ///< canonical signed statement for the slot
    crypto::ShareTally<crypto::SigShare> shares;
    bool commit_sent = false;
  };

  void handle(int from, Reader& reader) override;
  void on_assign(int from, Reader& reader);
  void on_share(int from, Reader& reader);
  void maybe_commit_slot(std::uint64_t seq);
  void on_share_verdict(int from, Reader& reader);
  void on_commit(int from, Reader& reader);
  void on_ack(int from, Reader& reader);
  void on_switch(int from);
  void on_claim(int from, Reader& reader);

  [[nodiscard]] Bytes slot_statement(std::uint64_t seq, BytesView chain) const;
  [[nodiscard]] Bytes chain_after(std::uint64_t seq, BytesView payload,
                                  BytesView prev_chain) const;
  [[nodiscard]] Bytes claim_statement(BytesView claim_body) const;
  void process_assign_queue();
  void maybe_deliver_fast();
  void deliver_payload(Bytes payload);
  void broadcast_claim();
  void maybe_propose_switch_set();
  void on_switch_set_decided(const Bytes& value);
  [[nodiscard]] bool validate_claim(BytesView claim_body, int claimant,
                                    const std::vector<crypto::SigShare>& shares,
                                    std::vector<Bytes>* payloads_out) const;
  [[nodiscard]] bool validate_switch_set(BytesView value) const;
  [[nodiscard]] Bytes my_claim_body() const;

  int sequencer_;
  DeliverFn deliver_;
  bool switching_ = false;
  bool pessimistic_ = false;
  std::uint64_t delivered_count_ = 0;
  crypto::PartySet suspected_ = 0;  ///< proven bad-share senders

  // Fast path.
  std::uint64_t next_assign_ = 0;       ///< sequencer: next seq to assign
  std::uint64_t sign_cursor_ = 0;       ///< next seq we would sign
  Bytes sign_chain_;                    ///< chain value after sign_cursor_-1
  std::uint64_t commit_cursor_ = 0;     ///< next seq to commit-verify
  Bytes commit_chain_;                  ///< chain value after commit_cursor_-1
  std::uint64_t deliver_cursor_ = 0;    ///< next fast slot to deliver
  std::map<std::uint64_t, Slot> slots_;
  std::map<std::uint64_t, Bytes> assign_queue_;  ///< out-of-order assigns
  std::deque<Bytes> pending_;           ///< our submissions not yet delivered
  std::set<Bytes> delivered_digests_;

  // Switch machinery.
  crypto::PartySet claims_from_ = 0;
  std::vector<Bytes> claim_records_;    ///< encoded (claimant, body, shares)
  std::uint64_t best_claim_len_ = 0;
  std::unique_ptr<Vba> switch_vba_;
  bool proposed_switch_set_ = false;
  std::unique_ptr<AtomicBroadcast> fallback_;
};

}  // namespace sintra::protocols
