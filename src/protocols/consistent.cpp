#include "protocols/consistent.hpp"

#include "crypto/sha256.hpp"

namespace sintra::protocols {

Bytes consistent_statement(const std::string& tag, BytesView message) {
  Writer w;
  w.str("sintra/cbc");
  w.str(tag);
  auto digest = crypto::hash_domain("sintra/cbc/digest", message);
  w.raw(BytesView(digest.data(), digest.size()));
  return w.take();
}

bool verify_certificate(const crypto::ThresholdSigPublicKey& pk, const std::string& tag,
                        const CertifiedMessage& cm) {
  return pk.verify(consistent_statement(tag, cm.message), cm.certificate);
}

void CertifiedMessage::encode(Writer& w) const {
  w.bytes(message);
  certificate.encode(w);
}

CertifiedMessage CertifiedMessage::decode(Reader& r) {
  CertifiedMessage cm;
  cm.message = r.bytes();
  cm.certificate = crypto::BigInt::decode(r);
  return cm;
}

ConsistentBroadcast::ConsistentBroadcast(net::Party& host, std::string tag, int sender,
                                         DeliverFn deliver)
    : ProtocolInstance(host, std::move(tag)), sender_(sender), deliver_(std::move(deliver)) {}

void ConsistentBroadcast::start(Bytes message) {
  SINTRA_REQUIRE(me() == sender_, "cbc: only the designated sender may start");
  if (started_) {
    // At-least-once re-entry: re-broadcast the same SEND (receivers sign
    // only once); a different message would break uniqueness — reject.
    SINTRA_REQUIRE(message == my_message_, "cbc: conflicting re-start");
  } else {
    started_ = true;
    my_message_ = std::move(message);
  }
  Writer w;
  w.u8(kSend);
  w.bytes(my_message_);
  broadcast(w.take());
}

void ConsistentBroadcast::handle(int from, Reader& reader) {
  const std::uint8_t type = reader.u8();
  switch (type) {
    case kSend: {
      SINTRA_REQUIRE(from == sender_, "cbc: SEND from non-sender");
      Bytes message = reader.bytes();
      reader.expect_done();
      if (signed_) break;  // sign only the first message per instance
      signed_ = true;
      const Bytes statement = consistent_statement(tag_, message);
      Writer w;
      w.u8(kShare);
      auto shares = host_.keys().cert_sig.sign(host_.public_keys().cert_sig, statement,
                                               host_.rng());
      w.vec(shares, [](Writer& wr, const crypto::SigShare& s) { s.encode(wr); });
      send(sender_, w.take());
      break;
    }
    case kShare: {
      on_share(from, reader);
      break;
    }
    case kVerdict: {
      on_verdict(from, reader);
      break;
    }
    case kFinal: {
      CertifiedMessage cm = CertifiedMessage::decode(reader);
      reader.expect_done();
      SINTRA_REQUIRE(verify_certificate(host_.public_keys().cert_sig, tag_, cm),
                     "cbc: bad certificate");
      if (delivered_) break;
      delivered_ = true;
      host_.trace("cbc", tag_ + " delivered");
      deliver_(std::move(cm));
      break;
    }
    default:
      throw ProtocolError("cbc: unknown message type");
  }
}

void ConsistentBroadcast::on_share(int from, Reader& reader) {
  if (me() != sender_ || finalized_ || shares_.seen(from)) return;
  auto incoming = reader.vec<crypto::SigShare>(
      [](Reader& r) { return crypto::SigShare::decode(r); });
  reader.expect_done();
  // Structural admission only: the shares are *not* verified here.  The
  // sender combines an unverified quorum optimistically and checks the one
  // combined signature off the event loop — Byzantine signers pay for the
  // bisection fallback, honest executions never verify a single share.
  shares_.admit(host_.public_keys().cert_sig.scheme(), from, std::move(incoming),
                "cbc: shares not the signer's units");
  maybe_combine();
}

void ConsistentBroadcast::maybe_combine() {
  if (finalized_ || !quorum().is_quorum(shares_.support())) return;
  offload_combine(shares_, host_.public_keys().cert_sig, consistent_statement(tag_, my_message_),
                  Bytes{kVerdict});
}

void ConsistentBroadcast::on_verdict(int from, Reader& reader) {
  auto certificate = settle_verdict<crypto::BigInt>(
      from, reader, host_.public_keys().cert_sig.scheme(), suspected_,
      [this](Reader&) -> auto& { return shares_; }, [this] { maybe_combine(); });
  if (!certificate.has_value()) return;
  finalized_ = true;
  Writer w;
  w.u8(kFinal);
  CertifiedMessage cm{my_message_, std::move(*certificate)};
  cm.encode(w);
  broadcast(w.take());
}

}  // namespace sintra::protocols
