// Consistent broadcast (echo broadcast with a quorum certificate), §3 /
// Reiter's protocol.
//
// Weaker than reliable broadcast: all honest parties that deliver, deliver
// the same message (uniqueness), but delivery by all is not guaranteed for
// a corrupted sender — a party may instead learn of the message and fetch
// it by the certificate.  In exchange it is cheaper: O(n) messages.
//
// Flow: sender SENDs m; each party returns its quorum-key signatures
// (crypto/quorum_sig.hpp, one EC-Schnorr signature per share unit) on
// (tag, digest(m)) to the sender, which verifies each as it arrives; once
// the signers form a quorum the sender broadcasts FINAL(m, signatures).
// Uniqueness holds because two different messages would need two quorums
// of signers, which intersect in an honest party that signs only once.
// The paper's threshold signature makes the certificate constant-size;
// the signature set trades that for no RSA on the ordering path (Cachin–
// Kursawe–Petzold–Shoup: n − t ordinary signatures can replace it).
//
// The (message, certificate) pair is transferable: anyone can verify it
// with the public verification values and the quorum system.  VBA uses
// this to move proposals around.
#pragma once

#include <functional>
#include <optional>

#include "protocols/base.hpp"

namespace sintra::protocols {

/// A transferable certified message.
struct CertifiedMessage {
  Bytes message;
  /// Quorum-key signatures on consistent_statement(tag, message), every
  /// signer's units once, signers forming a quorum.
  std::vector<crypto::QuorumSig> certificate;

  void encode(Writer& w, const crypto::Group& group) const;
  static CertifiedMessage decode(Reader& r, const crypto::Group& group);
};

/// Statement that the certificate signs for instance `tag`.
Bytes consistent_statement(const std::string& tag, BytesView message);

/// Verify a transferable certificate: every signer covers exactly its own
/// units once, the signers form a quorum of `quorum`, and every signature
/// verifies under `pk` — except those byte-equal to one in `trusted` (the
/// caller's own signatures on this same statement).
bool verify_certificate(const crypto::QuorumSigPublicKey& pk,
                        const adversary::QuorumSystem& quorum, const std::string& tag,
                        const CertifiedMessage& cm,
                        const std::vector<crypto::QuorumSig>& trusted = {});

class ConsistentBroadcast final : public ProtocolInstance {
 public:
  using DeliverFn = std::function<void(CertifiedMessage)>;

  ConsistentBroadcast(net::Party& host, std::string tag, int sender, DeliverFn deliver);

  /// Start broadcasting (designated sender only).  Re-entry with the same
  /// message re-broadcasts SEND (crash-recovery replay); a conflicting
  /// message throws.
  void start(Bytes message);

  [[nodiscard]] bool delivered() const { return delivered_; }
  /// Parties whose signatures failed verification (sender side only).
  [[nodiscard]] crypto::PartySet suspected() const { return suspected_; }

 private:
  enum MsgType : std::uint8_t {
    kSend = 0,
    kShare = 1,
    kFinal = 2,
  };

  void handle(int from, Reader& reader) override;
  void on_share(int from, Reader& reader);

  int sender_;
  DeliverFn deliver_;
  bool started_ = false;
  bool delivered_ = false;
  bool finalized_ = false;
  Bytes my_message_;  ///< sender: the message being certified
  /// Receiver: the statement this party signed and its signatures on it
  /// (empty until the first SEND); FINAL accepts them by byte compare.
  Bytes signed_statement_;
  std::vector<crypto::QuorumSig> my_signatures_;
  crypto::ShareTally<crypto::QuorumSig> signatures_;  ///< sender: verified signatures
  crypto::PartySet suspected_ = 0;
};

}  // namespace sintra::protocols
