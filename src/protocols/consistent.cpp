#include "protocols/consistent.hpp"

#include "crypto/batch.hpp"
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
  if (me() != sender_ || finalized_) return;
  // One share message per party: a duplicated/replayed copy must not
  // append its shares again (combine expects distinct units).
  if ((share_owners_ | share_rejected_) & crypto::party_bit(from)) return;
  auto incoming = reader.vec<crypto::SigShare>(
      [](Reader& r) { return crypto::SigShare::decode(r); });
  reader.expect_done();
  const auto& pk = host_.public_keys().cert_sig;
  // Structural admission only (exactly the signer's units): the shares are
  // *not* verified here.  The sender combines an unverified quorum
  // optimistically and checks the one combined signature off the event
  // loop — Byzantine signers pay for the bisection fallback, honest
  // executions never verify a single share.
  SINTRA_REQUIRE(crypto::covers_own_units(pk.scheme(), from, incoming),
                 "cbc: shares not the signer's units");
  for (auto& share : incoming) shares_.push_back(std::move(share));
  share_owners_ |= crypto::party_bit(from);
  maybe_combine();
}

void ConsistentBroadcast::maybe_combine() {
  if (finalized_ || combine_inflight_ || !quorum().is_quorum(share_owners_)) return;
  combine_inflight_ = true;
  const int attempt = ++combine_attempt_;
  const std::uint64_t seed = host_.rng().next();  // weight seed drawn on the loop thread
  const auto& pk = host_.public_keys().cert_sig;
  host_.offload(tag_, [&pk, stmt = consistent_statement(tag_, my_message_), shares = shares_,
                       attempt, seed]() -> Bytes {
    Rng rng(seed);
    auto result = crypto::batch::combine_sig_optimistic(pk, stmt, shares, rng);
    Writer w;
    w.u8(kVerdict);
    w.u32(static_cast<std::uint32_t>(attempt));
    w.vec(result.bad, [&](Writer& wr, const std::size_t& i) {
      wr.u32(static_cast<std::uint32_t>(shares[i].unit));
    });
    if (result.signature.has_value()) {
      w.u8(1);
      result.signature->encode(w);
    } else {
      w.u8(0);
    }
    return w.take();
  });
}

void ConsistentBroadcast::on_verdict(int from, Reader& reader) {
  SINTRA_REQUIRE(from == me(), "cbc: verdict from another party");
  const int attempt = static_cast<int>(reader.u32());
  auto bad_units = reader.vec<std::uint32_t>([](Reader& r) { return r.u32(); });
  const bool ok = reader.u8() == 1;
  std::optional<crypto::BigInt> certificate;
  if (ok) certificate = crypto::BigInt::decode(reader);
  reader.expect_done();
  // Idempotent against WAL-replayed duplicates.
  if (!combine_inflight_ || attempt != combine_attempt_ || finalized_) return;
  combine_inflight_ = false;
  const auto& pk = host_.public_keys().cert_sig;
  crypto::PartySet culprits = 0;
  for (std::uint32_t unit : bad_units) {
    SINTRA_REQUIRE(static_cast<int>(unit) < pk.scheme().num_units(),
                   "cbc: verdict unit out of range");
    culprits |= crypto::party_bit(pk.scheme().unit_owner(static_cast<int>(unit)));
  }
  if (culprits != 0) {
    suspected_ |= culprits;
    share_rejected_ |= culprits;
    share_owners_ &= ~culprits;
    std::erase_if(shares_, [&](const crypto::SigShare& s) {
      return (culprits & crypto::party_bit(pk.scheme().unit_owner(s.unit))) != 0;
    });
    host_.trace("cbc", tag_ + " rejected invalid signature shares (suspects fingered)");
  }
  if (!ok) {
    maybe_combine();  // remaining honest shares may still form a quorum
    return;
  }
  finalized_ = true;
  Writer w;
  w.u8(kFinal);
  CertifiedMessage cm{my_message_, *certificate};
  cm.encode(w);
  broadcast(w.take());
}

}  // namespace sintra::protocols
