#include "protocols/optimistic.hpp"

#include "crypto/sha256.hpp"

namespace sintra::protocols {

using crypto::QuorumSig;

namespace {
Bytes payload_digest(BytesView payload) {
  auto d = crypto::hash_domain("sintra/opt/payload", payload);
  return Bytes(d.begin(), d.end());
}

/// Budget cost of a slot entry beyond its payload and certificate.
constexpr std::size_t kSlotCost = 128;

void encode_sigs(Writer& w, const crypto::Group& group, const std::vector<QuorumSig>& sigs) {
  w.vec(sigs, [&](Writer& wr, const QuorumSig& s) { s.encode(wr, group); });
}

std::vector<QuorumSig> decode_sigs(Reader& r, const crypto::Group& group) {
  return r.vec<QuorumSig>([&](Reader& rd) { return QuorumSig::decode(rd, group); });
}
}  // namespace

OptimisticBroadcast::OptimisticBroadcast(net::Party& host, std::string tag, int sequencer,
                                         DeliverFn deliver)
    : ProtocolInstance(host, std::move(tag)), sequencer_(sequencer),
      deliver_(std::move(deliver)) {
  auto genesis = crypto::hash_domain("sintra/opt/genesis", bytes_of(tag_));
  sign_chain_ = Bytes(genesis.begin(), genesis.end());
  commit_chain_ = sign_chain_;
}

Bytes OptimisticBroadcast::chain_after(std::uint64_t seq, BytesView payload,
                                       BytesView prev_chain) const {
  Writer w;
  w.raw(prev_chain);
  w.u64(seq);
  w.bytes(payload);
  auto d = crypto::hash_domain("sintra/opt/chain", w.data());
  return Bytes(d.begin(), d.end());
}

Bytes OptimisticBroadcast::slot_statement(std::uint64_t seq, BytesView chain) const {
  Writer w;
  w.str("sintra/opt/slot");
  w.str(tag_);
  w.u64(seq);
  w.raw(chain);
  return w.take();
}

Bytes OptimisticBroadcast::claim_statement(BytesView claim_body) const {
  Writer w;
  w.str("sintra/opt/claim");
  w.str(tag_);
  auto d = crypto::hash_domain("sintra/opt/claimbody", claim_body);
  w.raw(BytesView(d.data(), d.size()));
  return w.take();
}

bool OptimisticBroadcast::certifies(BytesView statement,
                                    const std::vector<QuorumSig>& certificate) const {
  const auto signers = host_.public_keys().quorum_sig.verify_set(statement, certificate);
  return signers.has_value() && quorum().is_quorum(*signers);
}

bool OptimisticBroadcast::charge(int from, std::size_t bytes, const char* what) {
  if (host_.budget().try_charge(from, tag_, bytes)) return true;
  host_.trace("opt", tag_ + " budget-dropped " + what + " from " + std::to_string(from));
  return false;
}

void OptimisticBroadcast::submit(Bytes payload) {
  pending_.push_back(payload);
  if (pessimistic_) {
    fallback_->submit(std::move(payload));
    return;
  }
  if (switching_) return;  // buffered in pending_, resubmitted after the switch
  if (me() == sequencer_) {
    Writer w;
    w.u8(kAssign);
    w.u64(next_assign_++);
    w.bytes(payload);
    broadcast(w.take());
  } else {
    Writer w;
    w.u8(kAssign);  // forward to the sequencer for assignment
    w.u64(~std::uint64_t{0});
    w.bytes(payload);
    send(sequencer_, w.take());
  }
}

void OptimisticBroadcast::handle(int from, Reader& reader) {
  const std::uint8_t type = reader.u8();
  switch (type) {
    case kAssign: return on_assign(from, reader);
    case kShare: return on_share(from, reader);
    case kCommit: return on_commit(from, reader);
    case kAck: return on_ack(from, reader);
    case kSwitch: {
      reader.expect_done();
      return on_switch(from);
    }
    case kClaim: return on_claim(from, reader);
    default: throw ProtocolError("opt: unknown message type");
  }
}

void OptimisticBroadcast::on_assign(int from, Reader& reader) {
  const std::uint64_t seq = reader.u64();
  Bytes payload = reader.bytes();
  reader.expect_done();
  if (seq == ~std::uint64_t{0}) {
    // A forwarded client payload; only the sequencer assigns.
    if (me() == sequencer_ && !switching_ && !pessimistic_) {
      Writer w;
      w.u8(kAssign);
      w.u64(next_assign_++);
      w.bytes(payload);
      broadcast(w.take());
    }
    return;
  }
  SINTRA_REQUIRE(from == sequencer_, "opt: ASSIGN from non-sequencer");
  SINTRA_REQUIRE(seq < 1 << 24, "opt: implausible sequence");
  if (switching_ || pessimistic_) return;  // we stopped signing
  if (seq < sign_cursor_ || assign_queue_.contains(seq)) return;
  if (!charge(from, payload.size() + 16, "assign")) return;
  assign_queue_.emplace(seq, std::move(payload));
  process_assign_queue();
}

void OptimisticBroadcast::process_assign_queue() {
  const auto& pk = host_.public_keys().quorum_sig;
  while (true) {
    auto it = assign_queue_.find(sign_cursor_);
    if (it == assign_queue_.end()) return;
    const std::uint64_t seq = sign_cursor_;
    Bytes payload = std::move(it->second);
    assign_queue_.erase(it);
    host_.budget().release(sequencer_, tag_, payload.size() + 16);
    sign_chain_ = chain_after(seq, payload, sign_chain_);
    ++sign_cursor_;
    const Bytes statement = slot_statement(seq, sign_chain_);
    if (me() == sequencer_) {
      // Record the canonical payload/statement so incoming signatures for
      // this slot can be verified and collected.
      Slot& slot = slots_[seq];
      slot.payload = std::move(payload);
      slot.statement = statement;
    }
    Writer w;
    w.u8(kShare);
    w.u64(seq);
    encode_sigs(w, pk.group(), host_.keys().quorum_sig.sign(pk, statement));
    send(sequencer_, w.take());
  }
}

void OptimisticBroadcast::on_share(int from, Reader& reader) {
  if (me() != sequencer_) return;
  const auto& pk = host_.public_keys().quorum_sig;
  const std::uint64_t seq = reader.u64();
  auto signatures = decode_sigs(reader, pk.group());
  reader.expect_done();
  SINTRA_REQUIRE(seq < next_assign_, "opt: share for unassigned slot");
  Slot& slot = slots_[seq];
  if (slot.commit_sent || slot.statement.empty()) return;
  const bool admitted = slot.signatures.admit(
      pk.scheme(), from, me(), std::move(signatures), "opt: signatures not the sender's units",
      "opt: invalid slot signature", [&](const std::vector<QuorumSig>& incoming) {
        if (pk.verify_set(slot.statement, incoming).has_value()) return true;
        suspected_ |= crypto::party_bit(from);
        return false;
      });
  if (!admitted || !quorum().is_quorum(slot.signatures.support())) return;
  slot.commit_sent = true;
  Writer w;
  w.u8(kCommit);
  w.u64(seq);
  w.bytes(slot.payload);
  encode_sigs(w, pk.group(), slot.signatures.shares());
  broadcast(w.take());
}

void OptimisticBroadcast::on_commit(int from, Reader& reader) {
  SINTRA_REQUIRE(from == sequencer_, "opt: COMMIT from non-sequencer");
  const std::size_t cost = kSlotCost + reader.remaining();
  const std::uint64_t seq = reader.u64();
  Bytes payload = reader.bytes();
  auto certificate = decode_sigs(reader, host_.public_keys().quorum_sig.group());
  reader.expect_done();
  SINTRA_REQUIRE(seq < 1 << 24, "opt: implausible sequence");
  if (seq < commit_cursor_) return;
  if (auto it = slots_.find(seq); it != slots_.end() && it->second.committed) return;
  if (!charge(from, cost, "commit")) return;
  Slot& slot = slots_[seq];
  slot.charges.emplace_back(from, cost);
  slot.payload = std::move(payload);
  slot.certificate = std::move(certificate);
  slot.committed = true;
  maybe_deliver_fast();
}

void OptimisticBroadcast::on_ack(int from, Reader& reader) {
  const std::uint64_t seq = reader.u64();
  reader.expect_done();
  SINTRA_REQUIRE(seq < 1 << 24, "opt: implausible sequence");
  auto it = slots_.find(seq);
  if (it == slots_.end()) {
    if (!charge(from, kSlotCost, "ack")) return;
    it = slots_.emplace(seq, Slot{}).first;
    it->second.charges.emplace_back(from, kSlotCost);
  }
  it->second.acks |= crypto::party_bit(from);
  maybe_deliver_fast();
}

void OptimisticBroadcast::maybe_deliver_fast() {
  while (true) {
    auto it = slots_.find(commit_cursor_);
    if (it == slots_.end() || !it->second.committed) break;
    Slot& slot = it->second;
    // Verify the certificate against our committed chain extension; the
    // sequencer checked every signature of its own COMMIT on arrival.
    Bytes next_chain = chain_after(commit_cursor_, slot.payload, commit_chain_);
    const Bytes statement = slot_statement(commit_cursor_, next_chain);
    const bool own = slot.commit_sent && statement == slot.statement;
    if (!own && !certifies(statement, slot.certificate)) {
      slot.committed = false;  // forged commit; ignore it
      break;
    }
    commit_chain_ = std::move(next_chain);
    ++commit_cursor_;
    // A committed slot is chain state, no longer a buffer.
    for (const auto& [peer, bytes] : slot.charges) host_.budget().release(peer, tag_, bytes);
    slot.charges.clear();
    if (!slot.acked) {
      slot.acked = true;
      Writer w;
      w.u8(kAck);
      w.u64(commit_cursor_ - 1);
      broadcast(w.take());
    }
  }
  // Deliver stable slots in order: committed locally + acked by a vote
  // quorum (so a fault-set-exceeding set of honest parties can always
  // produce the certificate during a switch).
  while (true) {
    auto it = slots_.find(deliver_cursor_);
    if (it == slots_.end() || deliver_cursor_ >= commit_cursor_) break;
    Slot& slot = it->second;
    if (!quorum().is_vote_quorum(slot.acks)) break;
    slot.delivered = true;
    ++deliver_cursor_;
    deliver_payload(slot.payload);
  }
}

void OptimisticBroadcast::deliver_payload(Bytes payload) {
  Bytes digest = payload_digest(payload);
  if (delivered_digests_.contains(digest)) return;
  delivered_digests_.insert(std::move(digest));
  ++delivered_count_;
  std::erase_if(pending_, [&](const Bytes& p) { return p == payload; });
  deliver_(std::move(payload));
}

// ---- switch -----------------------------------------------------------------

void OptimisticBroadcast::switch_to_pessimistic() {
  if (switching_ || pessimistic_) return;
  Writer w;
  w.u8(kSwitch);
  broadcast(w.take());
}

void OptimisticBroadcast::on_switch(int from) {
  (void)from;
  if (switching_ || pessimistic_) return;
  switching_ = true;
  host_.trace("opt", tag_ + " switching to pessimistic mode");
  // We sign no more slots: queued ASSIGNs are dead weight.
  for (const auto& [seq, payload] : assign_queue_) {
    host_.budget().release(sequencer_, tag_, payload.size() + 16);
  }
  assign_queue_.clear();
  // Relay so every honest party joins even if the signal came from one
  // place, then publish our longest certified chain.
  Writer w;
  w.u8(kSwitch);
  broadcast(w.take());
  broadcast_claim();
  // The sequencer is the suspect, so its claim is not examined first.
  switch_vba_ = std::make_unique<Vba>(
      host_, tag_ + "/switch", (sequencer_ + 1) % host_.n(),
      [this](BytesView value) { return validate_switch_set(value); },
      [this](Bytes value) { on_switch_set_decided(value); });
  maybe_propose_switch_set();
}

Bytes OptimisticBroadcast::my_claim_body() const {
  // Claim body: L, payloads[0..L-1], certificate for slot L-1 (absent for
  // L = 0).  Our longest certified chain is commit_cursor_ slots long.
  Writer w;
  w.u64(commit_cursor_);
  for (std::uint64_t s = 0; s < commit_cursor_; ++s) {
    w.bytes(slots_.at(s).payload);
  }
  if (commit_cursor_ > 0) {
    encode_sigs(w, host_.public_keys().quorum_sig.group(),
                slots_.at(commit_cursor_ - 1).certificate);
  }
  return w.take();
}

void OptimisticBroadcast::broadcast_claim() {
  const auto& pk = host_.public_keys().quorum_sig;
  Bytes body = my_claim_body();
  Writer w;
  w.u8(kClaim);
  w.bytes(body);
  encode_sigs(w, pk.group(), host_.keys().quorum_sig.sign(pk, claim_statement(body)));
  broadcast(w.take());
}

bool OptimisticBroadcast::validate_claim(BytesView claim_body, int claimant,
                                         const std::vector<QuorumSig>& signatures,
                                         std::vector<Bytes>* payloads_out) const {
  const auto& pk = host_.public_keys().quorum_sig;
  try {
    // The claimant's own signatures over the body, every unit once.
    if (pk.verify_set(claim_statement(claim_body), signatures) != crypto::party_bit(claimant)) {
      return false;
    }
    // Chain integrity + certificate.
    Reader r(claim_body);
    const std::uint64_t length = r.u64();
    if (length > 1 << 24) return false;
    auto genesis = crypto::hash_domain("sintra/opt/genesis", bytes_of(tag_));
    Bytes chain(genesis.begin(), genesis.end());
    std::vector<Bytes> payloads;
    for (std::uint64_t s = 0; s < length; ++s) {
      Bytes payload = r.bytes();
      chain = chain_after(s, payload, chain);
      payloads.push_back(std::move(payload));
    }
    if (length > 0 && !certifies(slot_statement(length - 1, chain), decode_sigs(r, pk.group()))) {
      return false;
    }
    r.expect_done();
    if (payloads_out != nullptr) *payloads_out = std::move(payloads);
    return true;
  } catch (const ProtocolError&) {
    return false;
  }
}

void OptimisticBroadcast::on_claim(int from, Reader& reader) {
  const auto& group = host_.public_keys().quorum_sig.group();
  Bytes body = reader.bytes();
  auto signatures = decode_sigs(reader, group);
  reader.expect_done();
  if (!switching_ && !pessimistic_) {
    // A claim implies somebody is switching; join.
    on_switch(from);
  }
  if (crypto::contains(claims_from_, from) || proposed_switch_set_) return;
  // Our own claim is our own certified chain and signing.
  if (from != me() && !validate_claim(body, from, signatures, nullptr)) return;
  claims_from_ |= crypto::party_bit(from);
  Writer w;
  w.u32(static_cast<std::uint32_t>(from));
  w.bytes(body);
  encode_sigs(w, group, signatures);
  claim_records_.push_back(w.take());
  maybe_propose_switch_set();
}

void OptimisticBroadcast::maybe_propose_switch_set() {
  if (proposed_switch_set_ || switch_vba_ == nullptr) return;
  if (!quorum().is_quorum(claims_from_)) return;
  proposed_switch_set_ = true;
  Writer w;
  w.vec(claim_records_, [](Writer& wr, const Bytes& record) { wr.bytes(record); });
  switch_vba_->propose(w.take());
}

bool OptimisticBroadcast::validate_switch_set(BytesView value) const {
  try {
    Reader reader(value);
    auto records = reader.vec<Bytes>([](Reader& r) { return r.bytes(); });
    reader.expect_done();
    crypto::PartySet claimants = 0;
    for (const Bytes& record : records) {
      Reader rr(record);
      const int claimant = static_cast<int>(rr.u32());
      if (claimant < 0 || claimant >= host_.n()) return false;
      if (crypto::contains(claimants, claimant)) return false;
      Bytes body = rr.bytes();
      auto signatures = decode_sigs(rr, host_.public_keys().quorum_sig.group());
      rr.expect_done();
      if (!validate_claim(body, claimant, signatures, nullptr)) return false;
      claimants |= crypto::party_bit(claimant);
    }
    return quorum().is_quorum(claimants);
  } catch (const ProtocolError&) {
    return false;
  }
}

void OptimisticBroadcast::on_switch_set_decided(const Bytes& value) {
  // Adopt the longest certified chain in the decided claim set.  The ACK
  // delivery rule guarantees it extends every honest fast delivery; chain
  // certificates make all claims mutually prefix-consistent.
  Reader reader(value);
  auto records = reader.vec<Bytes>([](Reader& r) { return r.bytes(); });
  std::vector<Bytes> best_payloads;
  for (const Bytes& record : records) {
    Reader rr(record);
    const int claimant = static_cast<int>(rr.u32());
    Bytes body = rr.bytes();
    auto signatures = decode_sigs(rr, host_.public_keys().quorum_sig.group());
    std::vector<Bytes> payloads;
    if (!validate_claim(body, claimant, signatures, &payloads)) continue;  // cannot happen (Q)
    if (payloads.size() > best_payloads.size()) best_payloads = std::move(payloads);
  }
  host_.trace("opt", tag_ + " adopted fast prefix of " +
                         std::to_string(best_payloads.size()) + " slots");
  for (Bytes& payload : best_payloads) deliver_payload(std::move(payload));

  pessimistic_ = true;
  switching_ = false;
  fallback_ = std::make_unique<AtomicBroadcast>(
      host_, tag_ + "/fallback", [this](int, Bytes payload) {
        deliver_payload(std::move(payload));
      });
  for (const Bytes& payload : pending_) fallback_->submit(payload);
}

}  // namespace sintra::protocols
