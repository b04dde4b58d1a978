#include "protocols/abba.hpp"

namespace sintra::protocols {

using crypto::CoinShare;

namespace {
/// The one-value set {value}.
constexpr std::uint8_t value_bit(int value) { return static_cast<std::uint8_t>(1 << value); }
}  // namespace

Abba::Abba(net::Party& host, std::string tag, DecideFn decide)
    : ProtocolInstance(host, std::move(tag)), decide_(std::move(decide)) {
  host_.register_checkpoint(
      tag_, [this] { return checkpoint_save(); }, [this](Reader& r) { checkpoint_load(r); });
}

Abba::~Abba() { host_.unregister_checkpoint(tag_); }

Bytes Abba::checkpoint_save() const {
  // Only a halted instance has pruned its WAL entries; before that the
  // replay rebuilds everything, the start call and a decision included.
  // Restoring `started_` ahead of that replay would let round messages
  // advance the instance before its input is replayed, so it is not saved.
  Writer w;
  w.boolean(halted_);
  if (halted_) {
    w.u8(*decision_ ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(decide_round_));
  }
  return w.take();
}

void Abba::checkpoint_load(Reader& reader) {
  if (reader.boolean()) {
    halted_ = true;
    decision_ = reader.u8() == 1;
    decide_round_ = static_cast<int>(reader.u32());
    // Re-fire the decision into the rebuilt parent/harness — the WAL
    // entries that produced it may have been compacted away, so the
    // callback is the only way that state comes back.
    if (decide_) decide_(*decision_, decide_round_);
  }
}

Bytes Abba::coin_name(int round) const {
  Writer w;
  w.str("sintra/abba/coin");
  w.str(tag_);
  w.u32(static_cast<std::uint32_t>(round));
  return w.take();
}

Bytes Abba::decide_message() const {
  Writer w;
  w.u8(kDecide);
  w.u8(*decision_ ? 1 : 0);
  return w.take();
}

Abba::Round& Abba::round_state(int round) {
  return rounds_[round];
}

void Abba::start(bool input) {
  if (started_) {
    // At-least-once re-entry (crash-recovery replay re-runs application
    // start calls): same input re-broadcasts the round-1 BVAL, which
    // receivers dedup; a flipped input would equivocate — reject.
    SINTRA_REQUIRE(my_input_.has_value() && *my_input_ == input, "abba: conflicting re-start");
    if (!halted_) send_round(kBval, 1, input ? 1 : 0);
    return;
  }
  started_ = true;
  my_input_ = input;
  // A halted instance needs no BVAL: every peer decides from the DECIDEs
  // already sent (a parent may start an instance that halted first).
  if (halted_) return;
  enter_round(1, input);
}

void Abba::send_round(std::uint8_t type, int round, std::uint8_t value) {
  Writer w;
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(value);
  broadcast(w.take());
}

void Abba::park_deferred(std::uint8_t type, int round, int from, Reader& reader) {
  // Far-future horizon: a message more than kDeferWindow rounds ahead of
  // us can only be adversarial (honest parties run within one round of
  // each other) — drop it outright instead of parking.
  static constexpr int kDeferWindow = 64;
  if (round > current_round_ + kDeferWindow) return;
  Writer w;
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(round));
  w.raw(BytesView(reader.raw(reader.remaining())));
  Bytes raw = w.take();
  // First per (peer, type, round) only; for BVAL first per value too, since
  // an honest party sends BVAL(r, 0) and BVAL(r, 1) when it echoes the value
  // it does not hold.
  for (const auto& [parked_round, parked_from, parked_raw] : deferred_) {
    if (parked_round == round && parked_from == from && parked_raw[0] == type &&
        (type != kBval || parked_raw == raw)) {
      return;
    }
  }
  const std::size_t cost = raw.size() + 16;
  auto& budget = host_.budget();
  while (!budget.try_charge(from, tag_, cost)) {
    // Over budget: evict this peer's farthest-future parked message, but
    // never one nearer than the incoming round — when the incoming message
    // is itself the farthest future, it is the one that goes.
    std::size_t victim = deferred_.size();
    int victim_round = round;
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      const auto& [parked_round, parked_from, parked_raw] = deferred_[i];
      if (parked_from == from && parked_round > victim_round) {
        victim = i;
        victim_round = parked_round;
      }
    }
    if (victim == deferred_.size()) return;
    budget.release(from, tag_, std::get<2>(deferred_[victim]).size() + 16);
    deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(victim));
    budget.note_eviction();
  }
  deferred_.emplace_back(round, from, std::move(raw));
}

void Abba::handle(int from, Reader& reader) {
  const std::uint8_t type = reader.u8();
  if (halted_) {
    // Instance done, rounds freed.  A peer still sending round traffic
    // missed the decision; answer once with our DECIDE.  A peer's DECIDE
    // needs no answer: ours went out when we decided.
    if (from != me() && type != kDecide && !crypto::contains(helped_, from)) {
      helped_ |= crypto::party_bit(from);
      send(from, decide_message());
    }
    return;
  }
  switch (type) {
    case kBval:
    case kAux:
    case kConf:
    case kCoinShare: return on_round_message(type, from, reader);
    case kDecide: return on_decide(from, reader);
    default: throw ProtocolError("abba: unknown message type");
  }
}

void Abba::on_round_message(std::uint8_t type, int from, Reader& reader) {
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(round >= 1 && round < 1 << 20, "abba: implausible round");
  if (round > current_round_ + 1) {
    // Far ahead of us; park the whole message (budget-bounded, farthest-
    // future evicted first) until we catch up.
    return park_deferred(type, round, from, reader);
  }
  if (type == kCoinShare) {
    on_coin_share(round, from, reader);
  } else {
    const std::uint8_t value = reader.u8();
    reader.expect_done();
    if (type == kConf) {
      SINTRA_REQUIRE(value >= 1 && value <= kBoth, "abba: bad CONF set");
      on_conf(round, from, value);
    } else {
      SINTRA_REQUIRE(value <= 1, "abba: bad vote value");
      if (type == kBval) {
        on_bval(round, from, value);
      } else {
        on_aux(round, from, value);
      }
    }
  }
}

void Abba::on_bval(int round, int from, int value) {
  Round& state = round_state(round);
  crypto::PartySet& senders = state.bval_from[value];
  if (crypto::contains(senders, from)) return;
  senders |= crypto::party_bit(from);
  if (!state.bval_sent[value] && quorum().exceeds_fault_set(senders)) {
    state.bval_sent[value] = true;
    send_round(kBval, round, static_cast<std::uint8_t>(value));
  }
  if ((state.bin_values & value_bit(value)) != 0 || !quorum().is_quorum(senders)) return;
  state.bin_values |= value_bit(value);
  if (state.first_bin < 0) state.first_bin = value;
  progress(round);
}

void Abba::on_aux(int round, int from, int value) {
  Round& state = round_state(round);
  if (crypto::contains(state.aux_from[0] | state.aux_from[1], from)) return;
  state.aux_from[value] |= crypto::party_bit(from);
  progress(round);
}

void Abba::on_conf(int round, int from, Values values) {
  Round& state = round_state(round);
  crypto::PartySet seen = 0;
  for (crypto::PartySet senders : state.conf_from) seen |= senders;
  if (crypto::contains(seen, from)) return;
  state.conf_from[values] |= crypto::party_bit(from);
  progress(round);
}

void Abba::progress(int round) {
  if (!started_ || halted_ || round != current_round_) return;
  Round& state = round_state(round);
  if (state.finished || state.bin_values == 0) return;
  if (!state.aux_sent) {
    state.aux_sent = true;
    send_round(kAux, round, static_cast<std::uint8_t>(state.first_bin));
  }
  if (!state.conf_sent) {
    crypto::PartySet senders = 0;
    Values aux_vals = 0;
    for (int value = 0; value < 2; ++value) {
      if ((state.bin_values & value_bit(value)) == 0 || state.aux_from[value] == 0) continue;
      senders |= state.aux_from[value];
      aux_vals |= value_bit(value);
    }
    if (!quorum().is_quorum(senders)) return;
    state.conf_sent = true;
    send_round(kConf, round, aux_vals);
  }
  if (!state.vals.has_value()) {
    crypto::PartySet senders = 0;
    Values vals = 0;
    for (Values set = 1; set <= kBoth; ++set) {
      if ((set & ~state.bin_values) != 0 || state.conf_from[set] == 0) continue;
      senders |= state.conf_from[set];
      vals |= set;
    }
    if (!quorum().is_quorum(senders)) return;
    state.vals = vals;
    if (round % 3 == 0) {
      Writer w;
      w.u8(kCoinShare);
      w.u32(static_cast<std::uint32_t>(round));
      auto shares =
          host_.keys().coin.share(host_.public_keys().coin, coin_name(round), host_.rng());
      w.vec(shares, [&](Writer& wr, const CoinShare& s) {
        s.encode(wr, host_.public_keys().coin.group());
      });
      broadcast(w.take());
    }
  }
  if (const auto coin = coin_of(round); coin.has_value()) finish_round(round, *coin);
}

std::optional<bool> Abba::coin_of(int round) const {
  switch (round % 3) {
    case 1: return true;
    case 2: return false;
    default: {
      const auto it = rounds_.find(round);
      return it == rounds_.end() ? std::nullopt : it->second.coin;
    }
  }
}

void Abba::finish_round(int round, bool coin) {
  Round& state = round_state(round);
  state.finished = true;
  const Values vals = *state.vals;
  const bool est = vals == kBoth ? coin : vals == value_bit(1);
  if (vals != kBoth && est == coin) decide(est, round);
  enter_round(round + 1, est);
}

void Abba::enter_round(int round, bool est) {
  if (round > current_round_) {
    current_round_ = round;
    host_.trace("abba", tag_ + " advancing to round " + std::to_string(round));
  }
  Round& state = round_state(round);
  if (!state.bval_sent[est ? 1 : 0]) {
    state.bval_sent[est ? 1 : 0] = true;
    send_round(kBval, round, est ? 1 : 0);
  }

  // Replay parked far-future messages that are now in range (their budget
  // charge is released as they leave the buffer; re-parked entries keep
  // theirs).  Parked messages were never validated — a bad one is dropped
  // without disturbing the rest.
  auto parked = std::move(deferred_);
  deferred_.clear();
  for (auto& [msg_round, from, raw] : parked) {
    if (halted_) break;  // halt() already released every charge
    if (msg_round <= current_round_ + 1) {
      host_.budget().release(from, tag_, raw.size() + 16);
      try {
        Reader reader(raw);
        handle(from, reader);
      } catch (const ProtocolError& error) {
        host_.trace("abba", tag_ + " dropped parked message from " + std::to_string(from) +
                                ": " + error.what());
      }
    } else {
      deferred_.emplace_back(msg_round, from, std::move(raw));
    }
  }
  progress(round);
}

void Abba::on_coin_share(int round, int from, Reader& reader) {
  SINTRA_REQUIRE(round % 3 == 0, "abba: coin share for a constant-coin round");
  const auto& coin_pk = host_.public_keys().coin;
  auto shares = reader.vec<CoinShare>(
      [&](Reader& r) { return CoinShare::decode(r, coin_pk.group()); });
  reader.expect_done();
  Round& state = round_state(round);
  if (state.coin.has_value()) return;
  const Bytes name = coin_name(round);
  const bool admitted = state.coin_shares.admit(
      coin_pk.scheme(), from, me(), std::move(shares), "abba: coin shares not the sender's units",
      "abba: invalid coin share", [&](const std::vector<CoinShare>& incoming) {
        if (crypto::batch::verify_coin_shares(coin_pk, name, incoming, host_.rng())) return true;
        suspected_ |= crypto::party_bit(from);
        return false;
      });
  if (!admitted || !coin_pk.scheme().qualified(state.coin_shares.support())) return;
  const auto coin_value = coin_pk.combine(name, state.coin_shares.shares());
  SINTRA_INVARIANT(coin_value.has_value(), "abba: coin combine failed on a qualified set");
  state.coin = crypto::CoinPublicKey::coin_bit(*coin_value);
  state.coin_shares.release_shares();
  host_.trace("abba", tag_ + " coin r" + std::to_string(round) + " = " +
                          std::to_string(static_cast<int>(*state.coin)));
  progress(round);
}

void Abba::on_decide(int from, Reader& reader) {
  const std::uint8_t value = reader.u8();
  SINTRA_REQUIRE(value <= 1, "abba: bad decide value");
  reader.expect_done();
  if (crypto::contains(decide_from_[0] | decide_from_[1], from)) return;  // one per party
  const crypto::PartySet senders = decide_from_[value] |= crypto::party_bit(from);
  // Beyond a fault set, an honest party decided this value: adopt it.
  if (!decision_.has_value() && quorum().exceeds_fault_set(senders)) {
    decide(value == 1, current_round_);
  }
  if (decision_ == (value == 1) && quorum().is_quorum(senders)) halt();
}

void Abba::decide(bool value, int round) {
  if (decision_.has_value()) return;
  decision_ = value;
  decide_round_ = round;
  broadcast(decide_message());
  host_.trace("abba", tag_ + " decided " + std::to_string(static_cast<int>(value)) +
                          " in round " + std::to_string(round));
  if (decide_) decide_(value, round);
}

void Abba::halt() {
  halted_ = true;
  // Instance GC: every honest party will decide from the DECIDEs already
  // sent, so no round state, share or parked message is needed any more.
  rounds_.clear();
  deferred_.clear();
  host_.budget().release_instance(tag_);
  if (compaction_) {
    // WAL compaction: the checkpoint carries the decision across restarts,
    // so replaying this instance's message history is dead weight.
    host_.prune_wal(tag_, [](const net::Message&) { return true; });
  }
  host_.trace("abba", tag_ + " halted");
}

}  // namespace sintra::protocols
