#include "protocols/vba.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace sintra::protocols {

using crypto::CoinShare;

Vba::Vba(net::Party& host, std::string tag, int first_candidate, Predicate predicate,
         DecideFn decide)
    : ProtocolInstance(host, std::move(tag)), first_candidate_(first_candidate),
      predicate_(std::move(predicate)), decide_(std::move(decide)) {
  const int n = host_.n();
  SINTRA_REQUIRE(first_candidate_ >= 0 && first_candidate_ < n, "vba: bad first candidate");
  proposals_.resize(static_cast<std::size_t>(n));
  // The first candidate's ABBA is live from the start, so BVALs that
  // arrive before our own input are echoed and admitted.
  candidate_ba_.push_back(make_candidate_ba(0));
  proposals_cb_.reserve(static_cast<std::size_t>(n));
  for (int sender = 0; sender < n; ++sender) {
    proposals_cb_.push_back(std::make_unique<ConsistentBroadcast>(
        host_, tag_ + "/cb/" + std::to_string(sender), sender,
        [this, sender](CertifiedMessage cm) { on_proposal_delivered(sender, std::move(cm)); }));
  }
}

void Vba::propose(Bytes value) {
  SINTRA_REQUIRE(predicate_(value), "vba: proposal violates the validity predicate");
  // Re-entry (crash-recovery replay) is delegated to our consistent
  // broadcast: it re-broadcasts the same proposal and rejects a
  // conflicting one.
  proposals_cb_[static_cast<std::size_t>(me())]->start(std::move(value));
}

void Vba::on_proposal_delivered(int sender, CertifiedMessage cm) {
  if (!predicate_(cm.message)) {
    // Certified but invalid: only possible for a corrupted sender; ignore.
    host_.trace("vba", tag_ + " proposal from " + std::to_string(sender) + " fails Q");
    return;
  }
  store_proposal(sender, std::move(cm));
}

void Vba::store_proposal(int sender, CertifiedMessage cm) {
  auto& slot = proposals_[static_cast<std::size_t>(sender)];
  if (slot.has_value()) return;
  slot = std::move(cm);
  have_ |= crypto::party_bit(sender);
  if (pending_fetch_.has_value() && candidate_at(*pending_fetch_) == sender) {
    pending_fetch_.reset();
    finish(sender);
  }
  maybe_start_first();
  maybe_release_perm_coin();
}

void Vba::maybe_start_first() {
  if (first_started_) return;
  const bool hold_first = crypto::contains(have_, first_candidate_);
  if (!hold_first && !quorum().is_quorum(have_)) return;
  first_started_ = true;
  candidate_ba_[0]->start(hold_first);
}

Bytes Vba::perm_coin_name() const {
  Writer w;
  w.str("sintra/vba/perm");
  w.str(tag_);
  return w.take();
}

void Vba::maybe_release_perm_coin() {
  // Only past a 0 decision on the first candidate, and only with a full
  // quorum of proposals in hand: the coin stays unpredictable until the
  // proposals it orders are fixed.
  if (perm_released_ || candidate_index_ == 0 || !quorum().is_quorum(have_)) return;
  perm_released_ = true;
  Writer w;
  w.u8(kPermShare);
  auto shares =
      host_.keys().coin.share(host_.public_keys().coin, perm_coin_name(), host_.rng());
  w.vec(shares, [&](Writer& wr, const CoinShare& s) {
    s.encode(wr, host_.public_keys().coin.group());
  });
  broadcast(w.take());
}

void Vba::handle(int from, Reader& reader) {
  const std::uint8_t type = reader.u8();
  switch (type) {
    case kPermShare: return on_perm_share(from, reader);
    case kFetch: {
      const int sender = static_cast<int>(reader.u32());
      reader.expect_done();
      SINTRA_REQUIRE(sender >= 0 && sender < host_.n(), "vba: bad fetch index");
      const auto& slot = proposals_[static_cast<std::size_t>(sender)];
      if (!slot.has_value()) return;
      Writer w;
      w.u8(kProposal);
      w.u32(static_cast<std::uint32_t>(sender));
      slot->encode(w, host_.public_keys().quorum_sig.group());
      send(from, w.take());
      return;
    }
    case kProposal: {
      const int sender = static_cast<int>(reader.u32());
      SINTRA_REQUIRE(sender >= 0 && sender < host_.n(), "vba: bad proposal index");
      const auto& pk = host_.public_keys().quorum_sig;
      CertifiedMessage cm = CertifiedMessage::decode(reader, pk.group());
      reader.expect_done();
      SINTRA_REQUIRE(verify_certificate(pk, quorum(), tag_ + "/cb/" + std::to_string(sender), cm),
                     "vba: bad proposal certificate");
      SINTRA_REQUIRE(predicate_(cm.message), "vba: fetched proposal fails Q");
      store_proposal(sender, std::move(cm));
      return;
    }
    default:
      throw ProtocolError("vba: unknown message type");
  }
}

void Vba::on_perm_share(int from, Reader& reader) {
  const auto& coin_pk = host_.public_keys().coin;
  auto shares = reader.vec<CoinShare>(
      [&](Reader& r) { return CoinShare::decode(r, coin_pk.group()); });
  reader.expect_done();
  if (permutation_.has_value()) return;
  const Bytes name = perm_coin_name();
  const bool admitted = perm_shares_.admit(
      coin_pk.scheme(), from, me(), std::move(shares), "vba: perm shares not the sender's units",
      "vba: invalid perm share", [&](const std::vector<CoinShare>& incoming) {
        if (crypto::batch::verify_coin_shares(coin_pk, name, incoming, host_.rng())) return true;
        suspected_ |= crypto::party_bit(from);
        return false;
      });
  if (!admitted || !coin_pk.scheme().qualified(perm_shares_.support())) return;
  const auto coin_value = coin_pk.combine(name, perm_shares_.shares());
  SINTRA_INVARIANT(coin_value.has_value(), "vba: perm coin combine failed on a qualified set");
  adopt_permutation(*coin_value);
}

void Vba::adopt_permutation(BytesView coin_value) {
  // Fisher–Yates driven by the coin value: identical at every party.
  Rng perm_rng(crypto::BigInt::from_bytes(coin_value).low_u64());
  std::vector<int> perm(static_cast<std::size_t>(host_.n()));
  for (int i = 0; i < host_.n(); ++i) perm[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[static_cast<std::size_t>(perm_rng.below(i))]);
  }
  permutation_ = std::move(perm);
  maybe_start_candidate();
}

int Vba::candidate_at(int index) const {
  if (index == 0) return first_candidate_;
  SINTRA_INVARIANT(permutation_.has_value(), "vba: permutation not ready");
  return (*permutation_)[static_cast<std::size_t>((index - 1) % host_.n())];
}

std::unique_ptr<Abba> Vba::make_candidate_ba(int index) {
  return std::make_unique<Abba>(
      host_, tag_ + "/ba/" + std::to_string(index),
      [this, index](bool value, int) { on_abba_decided(index, value); });
}

void Vba::maybe_start_candidate() {
  // Past index 0 a candidate's ABBA starts once the previous one decided 0
  // and the permutation is known, with our input fixed at creation.
  if (decided_ || !permutation_.has_value() ||
      candidate_ba_.size() > static_cast<std::size_t>(candidate_index_)) {
    return;
  }
  const int index = candidate_index_;
  const int candidate = candidate_at(index);
  candidate_ba_.push_back(make_candidate_ba(index));
  host_.trace("vba", tag_ + " examining candidate " + std::to_string(candidate) +
                         " (index " + std::to_string(index) + ")");
  candidate_ba_.back()->start(crypto::contains(have_, candidate));
}

void Vba::on_abba_decided(int candidate_index, bool value) {
  if (decided_) return;
  if (candidate_index != candidate_index_) return;  // stale callback
  if (!value) {
    ++candidate_index_;
    maybe_release_perm_coin();
    maybe_start_candidate();
    return;
  }
  const int candidate = candidate_at(candidate_index);
  if (proposals_[static_cast<std::size_t>(candidate)].has_value()) {
    finish(candidate);
    return;
  }
  // Somebody honest holds it (ABBA decides an honest input); ask around.
  pending_fetch_ = candidate_index;
  Writer w;
  w.u8(kFetch);
  w.u32(static_cast<std::uint32_t>(candidate));
  broadcast(w.take());
}

void Vba::finish(int sender) {
  if (decided_) return;
  decided_ = true;
  // Instance GC: the combined permutation subsumes the coin shares.  The
  // proposals stay — we keep answering laggards' kFetch until the parent
  // retires this instance.
  perm_shares_.release_shares();
  host_.trace("vba", tag_ + " decided on proposal of " + std::to_string(sender));
  decide_(proposals_[static_cast<std::size_t>(sender)]->message);
}

}  // namespace sintra::protocols
