#include "protocols/causal.hpp"

namespace sintra::protocols {

using crypto::Tdh2Ciphertext;
using crypto::Tdh2DecShare;

SecureCausalBroadcast::SecureCausalBroadcast(net::Party& host, std::string tag,
                                             DeliverFn deliver)
    : ProtocolInstance(host, std::move(tag)), deliver_(std::move(deliver)),
      abc_(host_, tag_ + "/abc",
           [this](int origin, Bytes payload) { on_ordered(origin, std::move(payload)); }) {}

crypto::Tdh2Ciphertext SecureCausalBroadcast::encrypt(const crypto::Tdh2PublicKey& pk,
                                                      BytesView request, BytesView label,
                                                      Rng& rng) {
  return pk.encrypt(request, label, rng);
}

void SecureCausalBroadcast::submit(const Tdh2Ciphertext& ciphertext) {
  const auto& pk = host_.public_keys().encryption;
  SINTRA_REQUIRE(pk.check_ciphertext(ciphertext), "sc-abc: refusing invalid ciphertext");
  Writer w;
  ciphertext.encode(w, pk.group());
  abc_.submit(w.take());
}

void SecureCausalBroadcast::on_ordered(int origin, Bytes ciphertext_bytes) {
  (void)origin;
  const auto& pk = host_.public_keys().encryption;
  Tdh2Ciphertext ciphertext;
  try {
    Reader reader(ciphertext_bytes);
    ciphertext = Tdh2Ciphertext::decode(reader, pk.group());
    reader.expect_done();
  } catch (const ProtocolError&) {
    return;  // corrupted server ordered garbage; skip it deterministically
  }
  if (!pk.check_ciphertext(ciphertext)) return;  // same at every honest party

  const Bytes id = ciphertext.id(pk.group());
  Slot& slot = slots_[id];
  if (slot.sequenced) return;  // ciphertext ordered twice (duplicate submission)
  slot.sequenced = true;
  slot.sequence = next_sequence_++;
  by_sequence_[slot.sequence] = id;
  if (!slot.have_ciphertext) {
    slot.ciphertext = std::move(ciphertext);
    slot.have_ciphertext = true;
  }

  // Only now — after the order is fixed — do honest parties help decrypt.
  auto my_shares = host_.keys().decryption.decrypt_shares(pk, slot.ciphertext, host_.rng());
  Writer w;
  w.bytes(id);
  w.vec(my_shares, [&](Writer& wr, const Tdh2DecShare& s) { s.encode(wr, pk.group()); });
  broadcast(w.take());

  // Early shares can be verified now that the ciphertext is known.
  auto early = std::move(slot.early_shares);
  slot.early_shares.clear();
  for (auto& [from, raw] : early) {
    try {
      Reader reader(raw);
      auto shares = reader.vec<Tdh2DecShare>(
          [&](Reader& r) { return Tdh2DecShare::decode(r, pk.group()); });
      reader.expect_done();
      add_share(slot, from, std::move(shares));
    } catch (const ProtocolError& error) {
      host_.trace("sc-abc", tag_ + " dropped early shares from " + std::to_string(from) + ": " +
                                error.what());
    }
  }
}

void SecureCausalBroadcast::handle(int from, Reader& reader) {
  const Bytes id = reader.bytes();
  SINTRA_REQUIRE(id.size() == 32, "sc-abc: bad ciphertext id");
  Slot& slot = slots_[id];
  if (slot.done) return;
  if (!slot.have_ciphertext) {
    // Shares cannot be verified before the ciphertext arrives via ABC.
    slot.early_shares.emplace_back(from, reader.raw(reader.remaining()));
    return;
  }
  const auto& pk = host_.public_keys().encryption;
  auto shares =
      reader.vec<Tdh2DecShare>([&](Reader& r) { return Tdh2DecShare::decode(r, pk.group()); });
  reader.expect_done();
  add_share(slot, from, std::move(shares));
}

void SecureCausalBroadcast::add_share(Slot& slot, int from, std::vector<Tdh2DecShare> shares) {
  if (slot.done) return;
  const auto& pk = host_.public_keys().encryption;
  const bool admitted = slot.shares.admit(
      pk.scheme(), from, me(), std::move(shares), "sc-abc: shares not the sender's units",
      "sc-abc: invalid decryption share", [&](const std::vector<Tdh2DecShare>& incoming) {
        return crypto::batch::verify_dec_shares(pk, slot.ciphertext, incoming, host_.rng());
      });
  if (!admitted || !slot.sequenced || !pk.scheme().qualified(slot.shares.support())) return;
  auto plaintext = pk.combine(slot.ciphertext, slot.shares.shares());
  SINTRA_INVARIANT(plaintext.has_value(), "sc-abc: combine failed on qualified set");
  slot.done = true;
  ready_[slot.sequence] = {std::move(*plaintext), slot.ciphertext.label};
  maybe_flush();
}

void SecureCausalBroadcast::maybe_flush() {
  while (true) {
    auto it = ready_.find(next_deliver_);
    if (it == ready_.end()) return;
    auto [plaintext, label] = std::move(it->second);
    ready_.erase(it);
    const std::uint64_t sequence = next_deliver_++;
    host_.trace("sc-abc", tag_ + " delivering seq " + std::to_string(sequence));
    deliver_(sequence, std::move(plaintext), std::move(label));
  }
}

}  // namespace sintra::protocols
