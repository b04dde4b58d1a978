#include "protocols/abba.hpp"

#include <algorithm>

#include "crypto/batch.hpp"
#include "crypto/sha256.hpp"

namespace sintra::protocols {

using crypto::BigInt;
using crypto::CoinShare;
using crypto::SigShare;

namespace {
void encode_shares(Writer& w, const std::vector<SigShare>& shares) {
  w.vec(shares, [](Writer& wr, const SigShare& s) { s.encode(wr); });
}

std::vector<SigShare> decode_shares(Reader& r) {
  return r.vec<SigShare>([](Reader& rd) { return SigShare::decode(rd); });
}

constexpr const char* kPreVoteRefusal = "abba: pre-vote shares not the sender's units";

/// Parties one of a round's per-value vote tallies counts.
template <class Tallies>
crypto::PartySet voted(const Tallies& tallies) {
  crypto::PartySet set = 0;
  for (const auto& tally : tallies) set |= tally.support();
  return set;
}

/// True once any of a round's per-value vote tallies has counted or struck
/// `party`: one vote per party and round, none after a proven-bad share.
template <class Tallies>
bool has_voted(const Tallies& tallies, int party) {
  return std::any_of(tallies.begin(), tallies.end(),
                     [party](const auto& tally) { return tally.seen(party); });
}
}  // namespace

Abba::Abba(net::Party& host, std::string tag, DecideFn decide)
    : ProtocolInstance(host, std::move(tag)), decide_(std::move(decide)) {
  host_.register_checkpoint(
      tag_, [this] { return checkpoint_save(); }, [this](Reader& r) { checkpoint_load(r); });
}

Abba::~Abba() { host_.unregister_checkpoint(tag_); }

Bytes Abba::checkpoint_save() const {
  Writer w;
  w.boolean(started_);
  w.u8(my_input_.has_value() ? (*my_input_ ? 1 : 0) : 2);
  w.boolean(decided_);
  if (decided_) {
    w.u8(*decision_ ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(decide_round_));
    w.bytes(decide_raw_);
  }
  return w.take();
}

void Abba::checkpoint_load(Reader& reader) {
  started_ = reader.boolean();
  const std::uint8_t input = reader.u8();
  if (input <= 1) my_input_ = input == 1;
  if (reader.boolean()) {
    decided_ = true;
    decision_ = reader.u8() == 1;
    decide_round_ = static_cast<int>(reader.u32());
    decide_raw_ = reader.bytes();
    // Re-fire the decision into the rebuilt parent/harness — the WAL
    // entries that produced it may have been compacted away, so the
    // callback is the only way that state comes back.
    if (decide_) decide_(*decision_, decide_round_);
  }
}

Bytes Abba::statement(std::string_view kind, int round, std::uint8_t value) const {
  Writer w;
  w.str("sintra/abba");
  w.str(tag_);
  w.str(kind);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(value);
  return w.take();
}

Bytes Abba::coin_name(int round) const {
  Writer w;
  w.str("sintra/abba/coin");
  w.str(tag_);
  w.u32(static_cast<std::uint32_t>(round));
  return w.take();
}

Abba::Round& Abba::round_state(int round) {
  return rounds_[round];
}

void Abba::start(bool input) {
  if (started_) {
    // At-least-once re-entry (crash-recovery replay re-runs application
    // start calls): same input re-broadcasts INPUT, which receivers
    // dedup via input_voted_; a flipped input would equivocate — reject.
    SINTRA_REQUIRE(my_input_.has_value() && *my_input_ == input, "abba: conflicting re-start");
    broadcast_input();
    return;
  }
  started_ = true;
  my_input_ = input;
  broadcast_input();
}

void Abba::broadcast_input() {
  const bool input = *my_input_;
  Writer w;
  w.u8(kInput);
  w.u8(input ? 1 : 0);
  auto shares = host_.keys().reply_sig.sign(host_.public_keys().reply_sig,
                                            statement("input", 0, input ? 1 : 0), host_.rng());
  encode_shares(w, shares);
  broadcast(w.take());
}

void Abba::on_input(int from, Reader& reader) {
  const std::uint8_t value = reader.u8();
  SINTRA_REQUIRE(value <= 1, "abba: bad input value");
  auto shares = decode_shares(reader);
  reader.expect_done();
  if (crypto::contains(input_voted_, from)) return;  // one input per party
  // Structural admission only: exactly the sender's own units.  The shares
  // only feed the anchor combine, which checks its own result; a bad share
  // costs its sender a bisection there.
  const auto& scheme = host_.public_keys().reply_sig.scheme();
  constexpr const char* kRefusal = "abba: input shares not the sender's units";
  SINTRA_REQUIRE(crypto::covers_own_units(scheme, from, shares), kRefusal);
  input_voted_ |= crypto::party_bit(from);
  if (anchor_[value].has_value()) return;  // anchored: later shares are not needed
  inputs_[value].admit(scheme, from, std::move(shares), kRefusal);
  maybe_anchor(value);
  try_first_prevote();
}

void Abba::maybe_anchor(int value) {
  const auto& reply_pk = host_.public_keys().reply_sig;
  if (anchor_[value].has_value() || !reply_pk.scheme().qualified(inputs_[value].support())) {
    return;
  }
  // Without a signature the remaining shares are unqualified: wait for more.
  anchor_[value] = certify(reply_pk, "input", 0, static_cast<std::uint8_t>(value), inputs_[value]);
}

std::optional<BigInt> Abba::certify(const crypto::ThresholdSigPublicKey& pk,
                                    std::string_view kind, int round, std::uint8_t value,
                                    VoteTally& tally) {
  auto result = crypto::batch::combine_sig_optimistic(pk, statement(kind, round, value),
                                                      tally.shares(), host_.rng());
  // Byzantine sender pays: its shares leave the set for good and the party
  // is fingered.
  const crypto::PartySet culprits = tally.strike(pk.scheme(), result.bad);
  if (culprits != 0) {
    suspected_ |= culprits;
    host_.trace("abba", tag_ + " " + std::string(kind) + " r" + std::to_string(round) + " v" +
                            std::to_string(value) + " rejected invalid shares (suspects fingered)");
  }
  return std::move(result.value);
}

void Abba::try_first_prevote() {
  if (!started_ || round_state(1).sent_prevote) return;
  // Prefer our own input; fall back to the other value if only that one
  // anchors (waiting for our own could deadlock when inputs are split).
  const int mine = *my_input_ ? 1 : 0;
  for (int v : {mine, 1 - mine}) {
    if (anchor_[v].has_value()) {
      send_prevote(1, v == 1, kJustAnchor, *anchor_[v]);
      return;
    }
  }
}

void Abba::send_prevote(int round, bool value, Justification justification,
                        const BigInt& evidence) {
  Round& state = round_state(round);
  if (state.sent_prevote) return;
  state.sent_prevote = true;
  Writer w;
  w.u8(kPreVote);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(value ? 1 : 0);
  w.u8(justification);
  evidence.encode(w);
  auto shares = host_.keys().cert_sig.sign(host_.public_keys().cert_sig,
                                           statement("pre", round, value ? 1 : 0), host_.rng());
  encode_shares(w, shares);
  broadcast(w.take());
}

void Abba::park_deferred(std::uint8_t type, int round, int from, Reader& reader) {
  // Far-future horizon: a message more than kDeferWindow rounds ahead of
  // us can only be adversarial (honest parties run within one round of
  // each other) — drop it outright instead of parking.
  static constexpr int kDeferWindow = 64;
  if (round > current_round_ + kDeferWindow) return;
  for (const auto& [parked_round, parked_from, parked_raw] : deferred_) {
    if (parked_round == round && parked_from == from && !parked_raw.empty() &&
        parked_raw[0] == type) {
      return;  // first-per-(peer, type, round) only
    }
  }
  Writer w;
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(round));
  w.raw(BytesView(reader.raw(reader.remaining())));
  Bytes raw = w.take();
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
  if (decided_) {
    // Instance done, rounds freed.  A peer still talking missed the
    // decision; answer once with the transferable decide certificate.
    if (from != me() && !decide_raw_.empty() && !(helped_ & crypto::party_bit(from))) {
      helped_ |= crypto::party_bit(from);
      host_.send(from, tag_, Bytes(decide_raw_));
    }
    return;
  }
  const std::uint8_t type = reader.u8();
  switch (type) {
    case kInput: return on_input(from, reader);
    case kPreVote: return on_prevote(from, reader);
    case kMainVote: return on_mainvote(from, reader);
    case kCoinShare: return on_coin_share(from, reader);
    case kCoinVerdict: return on_coin_verdict(from, reader);
    case kDecide: return on_decide(from, reader);
    default: throw ProtocolError("abba: unknown message type");
  }
}

void Abba::on_prevote(int from, Reader& reader) {
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(round >= 1 && round < 1 << 20, "abba: implausible round");
  if (round > current_round_ + 1) {
    // Far ahead of us; park the whole message (budget-bounded, farthest-
    // future evicted first) until we catch up.
    return park_deferred(kPreVote, round, from, reader);
  }
  const std::uint8_t value_byte = reader.u8();
  SINTRA_REQUIRE(value_byte <= 1, "abba: bad pre-vote value");
  const bool value = value_byte == 1;
  const auto justification = static_cast<Justification>(reader.u8());
  const BigInt evidence = BigInt::decode(reader);
  auto shares = decode_shares(reader);
  reader.expect_done();

  const auto& cert_pk = host_.public_keys().cert_sig;
  if (has_voted(round_state(round).prevotes, from)) return;
  // Structure first (exactly the sender's units), so a vote parked for the
  // coin below cannot fail later; the shares themselves are checked only
  // through sigma_pre.
  SINTRA_REQUIRE(crypto::covers_own_units(cert_pk.scheme(), from, shares), kPreVoteRefusal);
  if (round == 1) {
    SINTRA_REQUIRE(justification == kJustAnchor, "abba: round-1 pre-vote must be anchored");
    SINTRA_REQUIRE(
        host_.public_keys().reply_sig.verify(statement("input", 0, value_byte), evidence),
        "abba: bad input anchor");
  } else if (justification == kJustHard) {
    SINTRA_REQUIRE(cert_pk.verify(statement("pre", round - 1, value_byte), evidence),
                   "abba: bad hard justification");
  } else if (justification == kJustCoin) {
    SINTRA_REQUIRE(cert_pk.verify(statement("main", round - 1, kAbstain), evidence),
                   "abba: bad abstain certificate");
    Round& prev = round_state(round - 1);
    if (!prev.coin.has_value()) {
      prev.deferred_coin_prevotes.emplace_back(from, value, std::move(shares));
      return;
    }
    SINTRA_REQUIRE(*prev.coin == value, "abba: coin pre-vote contradicts coin");
  } else {
    throw ProtocolError("abba: bad justification kind");
  }
  accept_prevote(round, from, value, std::move(shares));
}

void Abba::accept_prevote(int round, int from, bool value, std::vector<SigShare> shares) {
  Round& state = round_state(round);
  if (has_voted(state.prevotes, from)) return;
  const auto& cert_pk = host_.public_keys().cert_sig;
  const int v = value ? 1 : 0;
  state.prevotes[v].admit(cert_pk.scheme(), from, std::move(shares), kPreVoteRefusal);
  // Combine-then-verify sigma_pre(round, v) as soon as a full quorum
  // supports v, before maybe_mainvote looks at the tally: a unanimous
  // quorum then always has its certificate.
  if (!state.sigma_pre[v].has_value() && cert_pk.scheme().qualified(state.prevotes[v].support())) {
    state.sigma_pre[v] =
        certify(cert_pk, "pre", round, static_cast<std::uint8_t>(v), state.prevotes[v]);
  }
  maybe_mainvote(round);
}

void Abba::maybe_mainvote(int round) {
  Round& state = round_state(round);
  if (state.sent_mainvote || !quorum().is_quorum(voted(state.prevotes))) return;
  state.sent_mainvote = true;

  std::uint8_t vote = kAbstain;
  std::optional<BigInt> evidence;
  if (state.prevotes[0].support() != 0 && state.prevotes[1].support() != 0) {
    vote = kAbstain;  // conflicting pre-votes seen
  } else {
    const int v = state.prevotes[1].support() != 0 ? 1 : 0;
    SINTRA_INVARIANT(state.sigma_pre[v].has_value(),
                     "abba: unanimous quorum but no combined certificate");
    vote = static_cast<std::uint8_t>(v);
    evidence = state.sigma_pre[v];
  }

  Writer w;
  w.u8(kMainVote);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(vote);
  if (vote != kAbstain) evidence->encode(w);
  auto shares = host_.keys().cert_sig.sign(host_.public_keys().cert_sig,
                                           statement("main", round, vote), host_.rng());
  encode_shares(w, shares);
  broadcast(w.take());
}

void Abba::on_mainvote(int from, Reader& reader) {
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(round >= 1 && round < 1 << 20, "abba: implausible round");
  if (round > current_round_ + 1) {
    return park_deferred(kMainVote, round, from, reader);
  }
  const std::uint8_t vote = reader.u8();
  SINTRA_REQUIRE(vote <= kAbstain, "abba: bad main-vote value");
  std::optional<BigInt> sigma_pre;
  if (vote != kAbstain) sigma_pre = BigInt::decode(reader);
  auto shares = decode_shares(reader);
  reader.expect_done();
  Round& state = round_state(round);
  if (has_voted(state.mainvotes, from)) return;
  const auto& cert_pk = host_.public_keys().cert_sig;
  constexpr const char* kRefusal = "abba: main-vote shares not the sender's units";
  SINTRA_REQUIRE(crypto::covers_own_units(cert_pk.scheme(), from, shares), kRefusal);
  if (vote != kAbstain) {
    SINTRA_REQUIRE(cert_pk.verify(statement("pre", round, vote), *sigma_pre),
                   "abba: main-vote without valid pre-vote certificate");
    if (!state.sigma_pre[vote].has_value()) state.sigma_pre[vote] = std::move(sigma_pre);
  }
  state.mainvotes[vote].admit(cert_pk.scheme(), from, std::move(shares), kRefusal);

  // Decision check runs on *every* arrival (not only at round close): the
  // first quorum of main-votes may mix corrupted abstains with honest
  // value votes, and the unanimous certificate only completes later.
  if (vote != kAbstain && cert_pk.scheme().qualified(state.mainvotes[vote].support())) {
    auto sigma_main = certify(cert_pk, "main", round, vote, state.mainvotes[vote]);
    if (sigma_main.has_value()) {
      decide(vote == 1, round, *sigma_main);
      return;
    }
  }
  maybe_close_round(round);
}

void Abba::maybe_close_round(int round) {
  Round& state = round_state(round);
  if (state.round_closed || !quorum().is_quorum(voted(state.mainvotes))) return;
  // Some main-vote carried a value (and its verified sigma_pre): adopt it
  // with hard justification.
  for (int v = 0; v < 2; ++v) {
    if (state.mainvotes[v].support() != 0) {
      SINTRA_INVARIANT(state.sigma_pre[v].has_value(), "abba: value main-vote lost its cert");
      state.round_closed = true;
      release_coin(round);
      advance(round + 1, v == 1, kJustHard, *state.sigma_pre[v]);
      return;
    }
  }
  // All abstained: the round closes (and the coin share goes out) only once
  // the abstain certificate has combined; after a struck vote the round
  // waits for another abstain.
  if (!state.sigma_main_abstain.has_value()) {
    state.sigma_main_abstain =
        certify(host_.public_keys().cert_sig, "main", round, kAbstain, state.mainvotes[kAbstain]);
    if (!state.sigma_main_abstain.has_value()) return;
  }
  state.round_closed = true;
  release_coin(round);
  if (state.coin.has_value()) {
    advance(round + 1, *state.coin, kJustCoin, *state.sigma_main_abstain);
  } else {
    state.waiting_for_coin = true;
  }
}

void Abba::release_coin(int round) {
  Round& state = round_state(round);
  if (state.coin_released) return;
  state.coin_released = true;
  Writer w;
  w.u8(kCoinShare);
  w.u32(static_cast<std::uint32_t>(round));
  auto shares = host_.keys().coin.share(host_.public_keys().coin, coin_name(round), host_.rng());
  w.vec(shares, [&](Writer& wr, const CoinShare& s) {
    s.encode(wr, host_.public_keys().coin.group());
  });
  broadcast(w.take());
}

void Abba::on_coin_share(int from, Reader& reader) {
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(round >= 1 && round < 1 << 20, "abba: implausible round");
  if (round > current_round_ + 1) {
    return park_deferred(kCoinShare, round, from, reader);
  }
  const auto& coin_pk = host_.public_keys().coin;
  auto shares = reader.vec<CoinShare>(
      [&](Reader& r) { return CoinShare::decode(r, coin_pk.group()); });
  reader.expect_done();
  Round& state = round_state(round);
  if (state.coin.has_value()) return;
  // Structural admission only: the NIZK proofs are *not* checked here —
  // they are deferred to one batched verification over the whole
  // threshold set, run off the event loop.
  if (state.coin_shares.admit(coin_pk.scheme(), from, std::move(shares),
                              "abba: coin shares not the sender's units")) {
    maybe_combine_coin(round);
  }
}

void Abba::maybe_combine_coin(int round) {
  Round& state = round_state(round);
  const auto& coin_pk = host_.public_keys().coin;
  if (state.coin.has_value() || !coin_pk.scheme().qualified(state.coin_shares.support())) return;
  Writer prefix;
  prefix.u8(kCoinVerdict);
  prefix.u32(static_cast<std::uint32_t>(round));
  offload_combine(state.coin_shares, coin_pk, coin_name(round), prefix.take());
}

void Abba::on_coin_verdict(int from, Reader& reader) {
  int round = 0;
  const auto coin_value = settle_verdict<Bytes>(
      from, reader, host_.public_keys().coin.scheme(), suspected_,
      [&](Reader& r) -> auto& {
        round = static_cast<int>(r.u32());
        SINTRA_REQUIRE(round >= 1 && round < 1 << 20, "abba: implausible verdict round");
        return round_state(round).coin_shares;
      },
      [&] { maybe_combine_coin(round); });
  if (coin_value.has_value()) adopt_coin(round, *coin_value);
}

void Abba::adopt_coin(int round, BytesView value) {
  Round& state = round_state(round);
  state.coin = crypto::CoinPublicKey::coin_bit(value);
  host_.trace("abba", tag_ + " coin r" + std::to_string(round) + " = " +
                          std::to_string(static_cast<int>(*state.coin)));

  // Validate pre-votes that were waiting on this coin.
  auto deferred = std::move(state.deferred_coin_prevotes);
  state.deferred_coin_prevotes.clear();
  for (auto& [from, value_bit, shares] : deferred) {
    if (value_bit != *state.coin) continue;  // contradiction: drop
    if (!decided_) accept_prevote(round + 1, from, value_bit, std::move(shares));
  }
  if (state.waiting_for_coin && !decided_) {
    state.waiting_for_coin = false;
    SINTRA_INVARIANT(state.sigma_main_abstain.has_value(), "abba: coin wait without cert");
    advance(round + 1, *state.coin, kJustCoin, *state.sigma_main_abstain);
  }
}

void Abba::advance(int round, bool value, Justification justification, const BigInt& evidence) {
  if (decided_) return;
  if (round > current_round_) {
    current_round_ = round;
    host_.trace("abba", tag_ + " advancing to round " + std::to_string(round));
  }
  send_prevote(round, value, justification, evidence);

  // Replay parked far-future messages that are now in range (their budget
  // charge is released as they leave the buffer; re-parked entries keep
  // theirs).  Parked messages were never validated — a bad one is dropped
  // without disturbing the rest.
  auto parked = std::move(deferred_);
  deferred_.clear();
  for (auto& [msg_round, from, raw] : parked) {
    if (decided_) break;  // decide() already released every charge
    if (msg_round <= current_round_ + 1) {
      host_.budget().release(from, tag_, raw.size() + 16);
      try {
        Reader reader(raw);
        handle(from, reader);
      } catch (const ProtocolError&) {
      }
    } else {
      deferred_.emplace_back(msg_round, from, std::move(raw));
    }
  }
}

void Abba::on_decide(int from, Reader& reader) {
  (void)from;
  const int round = static_cast<int>(reader.u32());
  const std::uint8_t value = reader.u8();
  SINTRA_REQUIRE(value <= 1, "abba: bad decide value");
  BigInt sigma = BigInt::decode(reader);
  reader.expect_done();
  SINTRA_REQUIRE(host_.public_keys().cert_sig.verify(statement("main", round, value), sigma),
                 "abba: bad decide certificate");
  decide(value == 1, round, sigma);
}

void Abba::decide(bool value, int round, const BigInt& sigma_main) {
  if (decided_) return;
  decided_ = true;
  decision_ = value;
  decide_round_ = round;
  Writer w;
  w.u8(kDecide);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(value ? 1 : 0);
  sigma_main.encode(w);
  decide_raw_ = w.take();
  broadcast(decide_raw_);
  host_.trace("abba", tag_ + " decided " + std::to_string(static_cast<int>(value)) +
                          " in round " + std::to_string(round));
  // Instance GC: the transferable decide certificate (kept in decide_raw_)
  // subsumes every tally, share and parked message — free them now.  Safe
  // inline: no caller touches round state after decide() returns (audited:
  // on_mainvote returns immediately, on_decide holds no Round reference,
  // and maybe_combine_coin's chain cannot reach decide()).
  rounds_.clear();
  deferred_.clear();
  for (VoteTally& tally : inputs_) tally.release_shares();
  host_.budget().release_instance(tag_);
  if (compaction_) {
    // WAL compaction: the checkpoint carries the decision across restarts,
    // so replaying this instance's message history is dead weight.
    host_.prune_wal(tag_, [](const net::Message&) { return true; });
  }
  if (decide_) decide_(value, round);
}

}  // namespace sintra::protocols
