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

bool verify_certificate(const crypto::QuorumSigPublicKey& pk,
                        const adversary::QuorumSystem& quorum, const std::string& tag,
                        const CertifiedMessage& cm, const std::vector<crypto::QuorumSig>& trusted) {
  const auto signers = pk.verify_set(consistent_statement(tag, cm.message), cm.certificate, trusted);
  return signers.has_value() && quorum.is_quorum(*signers);
}

void CertifiedMessage::encode(Writer& w, const crypto::Group& group) const {
  w.bytes(message);
  w.vec(certificate, [&](Writer& wr, const crypto::QuorumSig& s) { s.encode(wr, group); });
}

CertifiedMessage CertifiedMessage::decode(Reader& r, const crypto::Group& group) {
  CertifiedMessage cm;
  cm.message = r.bytes();
  cm.certificate =
      r.vec<crypto::QuorumSig>([&](Reader& rr) { return crypto::QuorumSig::decode(rr, group); });
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
  const auto& pk = host_.public_keys().quorum_sig;
  const std::uint8_t type = reader.u8();
  switch (type) {
    case kSend: {
      SINTRA_REQUIRE(from == sender_, "cbc: SEND from non-sender");
      Bytes message = reader.bytes();
      reader.expect_done();
      if (!my_signatures_.empty()) break;  // sign only the first message per instance
      signed_statement_ = consistent_statement(tag_, message);
      my_signatures_ = host_.keys().quorum_sig.sign(pk, signed_statement_);
      Writer w;
      w.u8(kShare);
      w.vec(my_signatures_, [&](Writer& wr, const crypto::QuorumSig& s) {
        s.encode(wr, pk.group());
      });
      send(sender_, w.take());
      break;
    }
    case kShare: {
      on_share(from, reader);
      break;
    }
    case kFinal: {
      CertifiedMessage cm = CertifiedMessage::decode(reader, pk.group());
      reader.expect_done();
      if (delivered_) break;
      // The sender checked every signature of its own FINAL on arrival.
      // Anyone else's FINAL is checked in full, except that this party's
      // own signatures on the same statement are a byte compare.
      if (from != me() || !finalized_) {
        const bool own_statement = consistent_statement(tag_, cm.message) == signed_statement_;
        SINTRA_REQUIRE(verify_certificate(pk, quorum(), tag_, cm,
                                          own_statement ? my_signatures_
                                                        : std::vector<crypto::QuorumSig>{}),
                       "cbc: bad certificate");
      }
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
  if (me() != sender_ || finalized_ || signatures_.seen(from)) return;
  const auto& pk = host_.public_keys().quorum_sig;
  auto incoming = reader.vec<crypto::QuorumSig>(
      [&](Reader& r) { return crypto::QuorumSig::decode(r, pk.group()); });
  reader.expect_done();
  const Bytes statement = consistent_statement(tag_, my_message_);
  // Each signature is verified as it arrives (this party's own are its own
  // bytes); a signer whose signature fails is fingered and heard no more.
  signatures_.admit(pk.scheme(), from, me(), std::move(incoming),
                    "cbc: shares not the signer's units", "cbc: invalid signature",
                    [&](const std::vector<crypto::QuorumSig>& sigs) {
                      for (const crypto::QuorumSig& sig : sigs) {
                        if (pk.verify(statement, sig)) continue;
                        suspected_ |= crypto::party_bit(from);
                        return false;
                      }
                      return true;
                    });
  if (!quorum().is_quorum(signatures_.support())) return;
  finalized_ = true;
  Writer w;
  w.u8(kFinal);
  CertifiedMessage{my_message_, signatures_.shares()}.encode(w, pk.group());
  broadcast(w.take());
}

}  // namespace sintra::protocols
