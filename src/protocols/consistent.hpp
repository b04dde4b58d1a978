// Consistent broadcast (echo broadcast with a threshold-signature
// certificate), §3 / Reiter's protocol.
//
// Weaker than reliable broadcast: all honest parties that deliver, deliver
// the same message (uniqueness), but delivery by all is not guaranteed for
// a corrupted sender — a party may instead learn of the message and fetch
// it by the certificate.  In exchange it is cheaper: O(n) messages, and
// with the threshold signature the final message is constant-size
// (the paper's point about decreasing message size, §3).
//
// Flow: sender SENDs m; each party returns one certificate-signature share
// on (tag, digest(m)) to the sender; the sender combines a quorum of
// shares into a single threshold signature and broadcasts FINAL(m, sig).
// Uniqueness holds because two different messages would need two quorums
// of signers, which intersect in an honest party that signs only once.
//
// The (message, certificate) pair is transferable: anyone can verify it
// with the single public key.  VBA uses this to move proposals around.
#pragma once

#include <functional>
#include <optional>

#include "protocols/base.hpp"

namespace sintra::protocols {

/// A transferable certified message.
struct CertifiedMessage {
  Bytes message;
  crypto::BigInt certificate;  ///< threshold signature on (tag, digest)

  void encode(Writer& w) const;
  static CertifiedMessage decode(Reader& r);
};

/// Statement that the certificate signs for instance `tag`.
Bytes consistent_statement(const std::string& tag, BytesView message);

/// Verify a transferable certificate against the deployment's certificate
/// public key.
bool verify_certificate(const crypto::ThresholdSigPublicKey& pk, const std::string& tag,
                        const CertifiedMessage& cm);

class ConsistentBroadcast final : public ProtocolInstance {
 public:
  using DeliverFn = std::function<void(CertifiedMessage)>;

  ConsistentBroadcast(net::Party& host, std::string tag, int sender, DeliverFn deliver);

  /// Start broadcasting (designated sender only).  Re-entry with the same
  /// message re-broadcasts SEND (crash-recovery replay); a conflicting
  /// message throws.
  void start(Bytes message);

  [[nodiscard]] bool delivered() const { return delivered_; }
  /// Parties whose signature shares the combine-then-verify fallback
  /// proved invalid (sender side only).
  [[nodiscard]] crypto::PartySet suspected() const { return suspected_; }

 private:
  enum MsgType : std::uint8_t {
    kSend = 0,
    kShare = 1,
    kFinal = 2,
    kVerdict = 3,  ///< self-message: off-loop combine-then-verify result
  };

  void handle(int from, Reader& reader) override;
  void on_share(int from, Reader& reader);
  void maybe_combine();
  void on_verdict(int from, Reader& reader);

  int sender_;
  DeliverFn deliver_;
  bool started_ = false;
  bool signed_ = false;
  bool delivered_ = false;
  bool finalized_ = false;
  Bytes my_message_;  ///< sender: the message being certified
  crypto::ShareTally<crypto::SigShare> shares_;  ///< sender: certificate shares
  crypto::PartySet suspected_ = 0;
};

}  // namespace sintra::protocols
