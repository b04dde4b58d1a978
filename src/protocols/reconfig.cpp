#include "protocols/reconfig.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace sintra::protocols {

using crypto::BigInt;
using crypto::Element;
using crypto::FeldmanDealing;
using crypto::RsaReshareDealing;

namespace {

enum KeyIndex : std::uint32_t { kKeyCoin = 0, kKeyTdh2 = 1, kKeyReply = 2, kKeyCert = 3 };

/// Shared derivation input for every sub-share mask: binds the mask to the
/// instance, the epoch, the key, and the (dealer, recipient) pair.
Bytes mask_input(std::string_view tag, std::uint32_t epoch, std::uint32_t key, int dealer,
                 int new_slot, BytesView pair_key) {
  Writer w;
  w.str(tag);
  w.u32(epoch);
  w.u32(key);
  w.u32(static_cast<std::uint32_t>(dealer));
  w.u32(static_cast<std::uint32_t>(new_slot));
  w.bytes(pair_key);
  return w.take();
}

BigInt derive_dl_mask(const crypto::Group& group, std::string_view tag, std::uint32_t epoch,
                      std::uint32_t key, int dealer, int new_slot, BytesView pair_key) {
  return group.hash_to_scalar("sintra/reconfig/mask",
                              mask_input(tag, epoch, key, dealer, new_slot, pair_key));
}

/// Non-negative integer mask of a PUBLIC width (so any holder of the pair
/// key can strip it exactly); width = sub-share bound + 64 slack bits.
BigInt derive_rsa_mask(std::string_view tag, std::uint32_t epoch, std::uint32_t key, int dealer,
                       int new_slot, BytesView pair_key, std::size_t width_bits) {
  const Bytes expanded = crypto::hash_expand(
      "sintra/reconfig/imask", mask_input(tag, epoch, key, dealer, new_slot, pair_key),
      (width_bits + 7) / 8);
  return BigInt::from_bytes(expanded);
}

void encode_elements(Writer& w, const crypto::Group& group, const std::vector<Element>& v) {
  w.vec(v, [&](Writer& wr, const Element& e) { group.encode_element(wr, e); });
}

std::vector<Element> decode_elements(Reader& r, const crypto::Group& group) {
  return r.vec<Element>([&](Reader& rr) { return group.decode_element(rr); });
}

void encode_bigints(Writer& w, const std::vector<BigInt>& v) {
  w.vec(v, [](Writer& wr, const BigInt& x) { x.encode(wr); });
}

std::vector<BigInt> decode_bigints(Reader& r) {
  return r.vec<BigInt>([](Reader& rr) { return BigInt::decode(rr); });
}

}  // namespace

// ---- ReconfigPlan --------------------------------------------------------

ReconfigPlan ReconfigPlan::same_committee(std::uint32_t new_epoch, int n, int t) {
  ReconfigPlan plan;
  plan.new_epoch = new_epoch;
  plan.n_old = plan.n_new = n;
  plan.t_old = plan.t_new = t;
  for (int slot = 0; slot < n; ++slot) plan.old_slot.push_back(slot);
  return plan;
}

int ReconfigPlan::new_slot_of(int old) const {
  for (std::size_t i = 0; i < old_slot.size(); ++i) {
    if (old_slot[i] == old) return static_cast<int>(i);
  }
  return -1;
}

void ReconfigPlan::validate() const {
  SINTRA_REQUIRE(n_old >= 1 && n_old <= 64 && n_new >= 1 && n_new <= 64,
                 "reconfig: committee size out of range");
  SINTRA_REQUIRE(t_old >= 0 && n_old > 3 * t_old, "reconfig: old committee violates n > 3t");
  SINTRA_REQUIRE(t_new >= 0 && n_new > 3 * t_new, "reconfig: new committee violates n > 3t");
  SINTRA_REQUIRE(static_cast<std::int32_t>(old_slot.size()) == n_new,
                 "reconfig: old_slot map size mismatch");
  crypto::PartySet used = 0;
  for (std::int32_t old : old_slot) {
    if (old < 0) continue;  // joining slot
    SINTRA_REQUIRE(old < n_old, "reconfig: old slot out of range");
    SINTRA_REQUIRE(!crypto::contains(used, old), "reconfig: old slot mapped twice");
    used |= crypto::party_bit(old);
  }
  SINTRA_REQUIRE(endpoints.empty() || static_cast<std::int32_t>(endpoints.size()) == n_new,
                 "reconfig: endpoint list size mismatch");
}

void ReconfigPlan::encode(Writer& w) const {
  w.u32(new_epoch);
  w.u32(static_cast<std::uint32_t>(n_old));
  w.u32(static_cast<std::uint32_t>(t_old));
  w.u32(static_cast<std::uint32_t>(n_new));
  w.u32(static_cast<std::uint32_t>(t_new));
  w.vec(old_slot, [](Writer& wr, std::int32_t v) { wr.u32(static_cast<std::uint32_t>(v)); });
  w.vec(endpoints, [](Writer& wr, const std::string& e) { wr.str(e); });
}

ReconfigPlan ReconfigPlan::decode(Reader& r) {
  ReconfigPlan plan;
  plan.new_epoch = r.u32();
  plan.n_old = static_cast<std::int32_t>(r.u32());
  plan.t_old = static_cast<std::int32_t>(r.u32());
  plan.n_new = static_cast<std::int32_t>(r.u32());
  plan.t_new = static_cast<std::int32_t>(r.u32());
  plan.old_slot =
      r.vec<std::int32_t>([](Reader& rr) { return static_cast<std::int32_t>(rr.u32()); });
  plan.endpoints = r.vec<std::string>([](Reader& rr) { return rr.str(); });
  plan.validate();
  return plan;
}

// ---- NewConfig -----------------------------------------------------------

namespace {

void encode_config_body(Writer& w, const NewConfig& config, const crypto::Group& group) {
  config.plan.encode(w);
  config.fence.encode(w);
  encode_elements(w, group, config.coin_verification);
  encode_elements(w, group, config.tdh2_verification);
  encode_bigints(w, config.reply_verification);
  encode_bigints(w, config.cert_verification);
  config.reply_scale.encode(w);
  config.cert_scale.encode(w);
  w.u32(config.reply_share_bits);
  w.u32(config.cert_share_bits);
}

}  // namespace

Bytes NewConfig::statement(std::string_view tag, const crypto::Group& group) const {
  Writer w;
  w.str("sintra/reconfig/newconfig");
  w.str(tag);
  encode_config_body(w, *this, group);
  return w.take();
}

bool NewConfig::verify(const crypto::ThresholdSigPublicKey& old_reply, std::string_view tag,
                       const crypto::Group& group) const {
  return old_reply.verify(statement(tag, group), signature);
}

void NewConfig::encode(Writer& w, const crypto::Group& group) const {
  encode_config_body(w, *this, group);
  signature.encode(w);
}

NewConfig NewConfig::decode(Reader& r, const crypto::Group& group) {
  NewConfig config;
  config.plan = ReconfigPlan::decode(r);
  config.fence = crypto::CheckpointCert::decode(r);
  config.coin_verification = decode_elements(r, group);
  config.tdh2_verification = decode_elements(r, group);
  config.reply_verification = decode_bigints(r);
  config.cert_verification = decode_bigints(r);
  config.reply_scale = BigInt::decode(r);
  config.cert_scale = BigInt::decode(r);
  config.reply_share_bits = r.u32();
  config.cert_share_bits = r.u32();
  config.signature = BigInt::decode(r);
  const std::size_t n = static_cast<std::size_t>(config.plan.n_new);
  SINTRA_REQUIRE(config.coin_verification.size() == n && config.tdh2_verification.size() == n &&
                     config.reply_verification.size() == n &&
                     config.cert_verification.size() == n,
                 "reconfig: verification vector size mismatch");
  return config;
}

// ---- JoinPackage ---------------------------------------------------------

void JoinPackage::encode(Writer& w, const crypto::Group& group) const {
  config.encode(w, group);
  w.vec(applied, [](Writer& wr, std::int32_t v) { wr.u32(static_cast<std::uint32_t>(v)); });
  w.vec(coin_commitments,
        [&](Writer& wr, const std::vector<Element>& c) { encode_elements(wr, group, c); });
  w.vec(tdh2_commitments,
        [&](Writer& wr, const std::vector<Element>& c) { encode_elements(wr, group, c); });
  w.vec(reply_commitments,
        [](Writer& wr, const std::vector<BigInt>& c) { encode_bigints(wr, c); });
  w.vec(cert_commitments,
        [](Writer& wr, const std::vector<BigInt>& c) { encode_bigints(wr, c); });
  encode_bigints(w, coin_subshares);
  encode_bigints(w, tdh2_subshares);
  encode_bigints(w, reply_subshares);
  encode_bigints(w, cert_subshares);
}

JoinPackage JoinPackage::decode(Reader& r, const crypto::Group& group) {
  JoinPackage package;
  package.config = NewConfig::decode(r, group);
  package.applied =
      r.vec<std::int32_t>([](Reader& rr) { return static_cast<std::int32_t>(rr.u32()); });
  package.coin_commitments =
      r.vec<std::vector<Element>>([&](Reader& rr) { return decode_elements(rr, group); });
  package.tdh2_commitments =
      r.vec<std::vector<Element>>([&](Reader& rr) { return decode_elements(rr, group); });
  package.reply_commitments =
      r.vec<std::vector<BigInt>>([](Reader& rr) { return decode_bigints(rr); });
  package.cert_commitments =
      r.vec<std::vector<BigInt>>([](Reader& rr) { return decode_bigints(rr); });
  package.coin_subshares = decode_bigints(r);
  package.tdh2_subshares = decode_bigints(r);
  package.reply_subshares = decode_bigints(r);
  package.cert_subshares = decode_bigints(r);
  return package;
}

// ---- Reconfig ------------------------------------------------------------

Reconfig::Reconfig(net::Party& host, std::string tag, ReconfigPlan plan,
                   std::optional<crypto::CheckpointCert> fence, ReconfigOptions options,
                   DoneFn done)
    : ProtocolInstance(host, std::move(tag)), plan_(std::move(plan)), fence_(std::move(fence)),
      options_(std::move(options)), done_(std::move(done)),
      abc_(host_, tag_ + "/abc",
           [this](int origin, Bytes payload) { on_ordered(origin, std::move(payload)); }) {
  plan_.validate();
  SINTRA_REQUIRE(host_.n() == plan_.n_old, "reconfig: plan does not match committee size");
}

Bytes Reconfig::pair_key(int dealer, int new_slot) const {
  const int old = plan_.old_slot.at(static_cast<std::size_t>(new_slot));
  if (old < 0) {
    // Joining slot: out-of-band provisioned secret (only the dealer itself
    // needs it on the old committee — other members forward the masked
    // value verbatim).
    return options_.join_keys.at(new_slot);
  }
  const int peer = dealer == me() ? old : dealer;
  return host_.keys().channel_keys.at(static_cast<std::size_t>(peer));
}

BigInt Reconfig::dl_mask(int key, int dealer, int new_slot) const {
  return derive_dl_mask(host_.public_keys().coin.group(), tag_, plan_.new_epoch,
                        static_cast<std::uint32_t>(key), dealer, new_slot,
                        pair_key(dealer, new_slot));
}

BigInt Reconfig::rsa_mask(int key, int dealer, int new_slot, std::size_t subshare_bits) const {
  return derive_rsa_mask(tag_, plan_.new_epoch, static_cast<std::uint32_t>(key), dealer,
                         new_slot, pair_key(dealer, new_slot), subshare_bits + 64);
}

std::size_t Reconfig::reply_subshare_width() const {
  const auto& pk = host_.public_keys().reply_sig;
  return crypto::rsa_subshare_bits(crypto::rsa_reshare_coeff_bits(pk.share_bits()), plan_.n_new,
                                   plan_.low_degree());
}

std::size_t Reconfig::cert_subshare_width() const {
  const auto& pk = host_.public_keys().cert_sig;
  return crypto::rsa_subshare_bits(crypto::rsa_reshare_coeff_bits(pk.share_bits()), plan_.n_new,
                                   plan_.high_degree());
}

void Reconfig::start() {
  // Replay-safe: after a crash-restore the WAL re-runs our original
  // submission through the embedded ABC, and started_ is also set when our
  // own dealing comes out of the total order.
  if (started_) return;
  started_ = true;
  const auto& group = host_.public_keys().coin.group();
  const auto& keys = host_.keys();
  const auto& pub = host_.public_keys();

  const BigInt& coin_share = keys.coin.unit_shares().at(me());
  const BigInt& tdh2_share = keys.decryption.unit_shares().at(me());
  const BigInt& reply_share = keys.reply_sig.unit_shares().at(me());
  const BigInt& cert_share = keys.cert_sig.unit_shares().at(me());

  FeldmanDealing coin_dealing =
      crypto::dl_reshare_deal(group, coin_share, plan_.n_new, plan_.low_degree(), host_.rng());
  FeldmanDealing tdh2_dealing =
      crypto::dl_reshare_deal(group, tdh2_share, plan_.n_new, plan_.low_degree(), host_.rng());
  RsaReshareDealing reply_dealing = RsaReshareDealing::deal(
      reply_share, pub.reply_sig.verification(me()),
      crypto::rsa_reshare_coeff_bits(pub.reply_sig.share_bits()), plan_.n_new,
      plan_.low_degree(), pub.reply_sig.v(), pub.reply_sig.mont(), host_.rng());
  RsaReshareDealing cert_dealing = RsaReshareDealing::deal(
      cert_share, pub.cert_sig.verification(me()),
      crypto::rsa_reshare_coeff_bits(pub.cert_sig.share_bits()), plan_.n_new,
      plan_.high_degree(), pub.cert_sig.v(), pub.cert_sig.mont(), host_.rng());

  std::vector<BigInt> coin_masked, tdh2_masked, reply_masked, cert_masked;
  for (int i = 0; i < plan_.n_new; ++i) {
    const std::size_t slot = static_cast<std::size_t>(i);
    coin_masked.push_back(
        group.scalar_add(coin_dealing.shares[slot], dl_mask(kKeyCoin, me(), i)));
    tdh2_masked.push_back(
        group.scalar_add(tdh2_dealing.shares[slot], dl_mask(kKeyTdh2, me(), i)));
    reply_masked.push_back(reply_dealing.subshares[slot] +
                           rsa_mask(kKeyReply, me(), i, reply_subshare_width()));
    cert_masked.push_back(cert_dealing.subshares[slot] +
                          rsa_mask(kKeyCert, me(), i, cert_subshare_width()));
  }
  if (options_.deal_garbage) {
    // Byzantine test hook: commitments bind to the real old shares, but
    // every sub-share is off by one — verification fails at every new slot
    // and honest verdicts exclude (finger) this dealer.
    for (BigInt& s : coin_masked) s = group.scalar_add(s, BigInt(1));
    for (BigInt& s : tdh2_masked) s = group.scalar_add(s, BigInt(1));
    for (BigInt& s : reply_masked) s += BigInt(1);
    for (BigInt& s : cert_masked) s += BigInt(1);
  }

  Writer w;
  w.u8(kDealing);
  // Dealer id inside the payload: ABC dedupes identical payloads and the
  // id must be cross-checked against the batch origin.
  w.u32(static_cast<std::uint32_t>(me()));
  encode_elements(w, group, coin_dealing.commitments);
  encode_bigints(w, coin_masked);
  encode_elements(w, group, tdh2_dealing.commitments);
  encode_bigints(w, tdh2_masked);
  encode_bigints(w, reply_dealing.commitments);
  encode_bigints(w, reply_masked);
  encode_bigints(w, cert_dealing.commitments);
  encode_bigints(w, cert_masked);
  abc_.submit(w.take());
}

void Reconfig::on_ordered(int origin, Bytes payload) {
  if (result_.has_value()) return;
  try {
    Reader reader(payload);
    const std::uint8_t type = reader.u8();
    const int embedded = static_cast<int>(reader.u32());
    SINTRA_REQUIRE(embedded == origin, "reconfig: embedded id does not match batch origin");
    if (type == kDealing) {
      handle_dealing(origin, reader);
    } else if (type == kVerdict) {
      handle_verdict(origin, reader);
    } else if (type == kSig) {
      if (!pending_.has_value()) {
        // Ordered before this member concluded — only a Byzantine early
        // submitter can cause this (honest kSig is ordered after the
        // verdict quorum that concluded its sender).  Stash and replay.
        sig_stash_.emplace(origin, std::move(payload));
        return;
      }
      handle_sig(origin, reader);
    }
  } catch (const ProtocolError& error) {
    host_.trace("reconfig", tag_ + " dropped ordered payload from " + std::to_string(origin) +
                                ": " + error.what());
  }
}

void Reconfig::handle_dealing(int origin, Reader& reader) {
  if (origin == me()) started_ = true;
  if (crypto::contains(dealers_seen_, origin)) return;  // one dealing per dealer
  if (pending_.has_value()) return;                     // applied set already fixed
  const auto& group = host_.public_keys().coin.group();
  const auto& pub = host_.public_keys();
  const std::size_t n_new = static_cast<std::size_t>(plan_.n_new);

  Dealing d;
  d.dealer = origin;
  d.coin_commitments = decode_elements(reader, group);
  d.coin_subshares = decode_bigints(reader);
  d.tdh2_commitments = decode_elements(reader, group);
  d.tdh2_subshares = decode_bigints(reader);
  d.reply_commitments = decode_bigints(reader);
  d.reply_subshares = decode_bigints(reader);
  d.cert_commitments = decode_bigints(reader);
  d.cert_subshares = decode_bigints(reader);
  reader.expect_done();
  const std::size_t low = static_cast<std::size_t>(plan_.low_degree()) + 1;
  const std::size_t high = static_cast<std::size_t>(plan_.high_degree()) + 1;
  SINTRA_REQUIRE(d.coin_commitments.size() == low && d.tdh2_commitments.size() == low &&
                     d.reply_commitments.size() == low && d.cert_commitments.size() == high,
                 "reconfig: wrong commitment count");
  SINTRA_REQUIRE(d.coin_subshares.size() == n_new && d.tdh2_subshares.size() == n_new &&
                     d.reply_subshares.size() == n_new && d.cert_subshares.size() == n_new,
                 "reconfig: wrong sub-share count");

  // Public binding: C_0 must be the dealer's OLD verification value for
  // each key — this is what ties the dealing to the share it really holds.
  bool valid = d.coin_commitments[0] == pub.coin.verification(origin) &&
               d.tdh2_commitments[0] == pub.encryption.verification(origin) &&
               d.reply_commitments[0] == pub.reply_sig.verification(origin) &&
               d.cert_commitments[0] == pub.cert_sig.verification(origin);

  // Private check: my own sub-shares (members retiring this epoch hold no
  // new slot and can only attest the public binding).
  const int my_new = plan_.new_slot_of(me());
  if (valid && my_new >= 0) {
    const BigInt coin_sub = group.scalar_sub(
        d.coin_subshares[static_cast<std::size_t>(my_new)], dl_mask(kKeyCoin, origin, my_new));
    const BigInt tdh2_sub = group.scalar_sub(
        d.tdh2_subshares[static_cast<std::size_t>(my_new)], dl_mask(kKeyTdh2, origin, my_new));
    const BigInt reply_sub = d.reply_subshares[static_cast<std::size_t>(my_new)] -
                             rsa_mask(kKeyReply, origin, my_new, reply_subshare_width());
    const BigInt cert_sub = d.cert_subshares[static_cast<std::size_t>(my_new)] -
                            rsa_mask(kKeyCert, origin, my_new, cert_subshare_width());
    valid = FeldmanDealing::verify_share(group, d.coin_commitments, my_new, coin_sub) &&
            FeldmanDealing::verify_share(group, d.tdh2_commitments, my_new, tdh2_sub) &&
            RsaReshareDealing::verify_subshare(d.reply_commitments, my_new, reply_sub,
                                               pub.reply_sig.v(), pub.reply_sig.mont()) &&
            RsaReshareDealing::verify_subshare(d.cert_commitments, my_new, cert_sub,
                                               pub.cert_sig.v(), pub.cert_sig.mont());
  }
  d.valid = valid;
  dealers_seen_ |= crypto::party_bit(origin);
  if (valid) dealers_valid_ |= crypto::party_bit(origin);
  dealings_.push_back(std::move(d));
  maybe_submit_verdict();
}

void Reconfig::maybe_submit_verdict() {
  if (verdict_sent_) return;
  // Wait until enough VALID dealings are in (a garbage dealing must not
  // consume the quorum slot of an honest one still in flight) — or until
  // every dealer has been heard, whichever comes first.  Honest dealers
  // alone form a quorum, so this always triggers.
  const bool enough_valid = quorum().is_quorum(dealers_valid_);
  const bool all_heard = dealers_seen_ == crypto::full_set(host_.n());
  if (!enough_valid && !all_heard) return;
  verdict_sent_ = true;
  Writer w;
  w.u8(kVerdict);
  w.u32(static_cast<std::uint32_t>(me()));
  w.u64(dealers_seen_);
  w.u64(dealers_valid_);
  abc_.submit(w.take());
}

void Reconfig::handle_verdict(int origin, Reader& reader) {
  const std::uint64_t seen = reader.u64();
  const std::uint64_t valid = reader.u64();
  reader.expect_done();
  if (crypto::contains(verdict_from_, origin)) return;
  if (quorum().is_quorum(verdict_from_)) return;  // verdict set already fixed
  verdict_from_ |= crypto::party_bit(origin);
  verdicts_.push_back(Verdict{seen, valid});
  maybe_conclude();
}

void Reconfig::maybe_conclude() {
  if (pending_.has_value() || result_.has_value() || !quorum().is_quorum(verdict_from_)) return;
  const auto& group = host_.public_keys().coin.group();
  const auto& pub = host_.public_keys();

  // Applied = dealers seen AND approved by EVERY first-quorum verdict
  // (total order makes every verdict's seen-set a subset of the dealings
  // this member has already processed).
  crypto::PartySet applied = dealers_seen_;
  for (const Verdict& v : verdicts_) applied &= v.seen & v.valid;

  // Fingered = seen by some first-quorum verdict and judged INVALID there.
  // A dealing that merely arrived after the verdicts were cast is excluded
  // from this epoch, but lateness is not evidence: its dealer stays clean.
  crypto::PartySet suspected = 0;
  for (const Verdict& v : verdicts_) suspected |= v.seen & ~v.valid;
  applied_order_.clear();
  for (const Dealing& d : dealings_) {
    if (crypto::contains(applied, d.dealer)) applied_order_.push_back(d.dealer);
  }

  // The certificate key has sharing degree n-t-1: its redistribution needs
  // n-t applied sub-sharings, or the epoch cannot complete.
  const std::size_t need_high = static_cast<std::size_t>(plan_.n_old - plan_.t_old);
  if (applied_order_.size() < need_high) {
    finish_abort(suspected);
    return;
  }
  applied_order_.resize(need_high);  // deterministic: first n-t in ABC order
  const std::vector<int> s_high = applied_order_;
  const std::vector<int> s_low(s_high.begin(), s_high.begin() + plan_.t_old + 1);

  // Drop everything but the applied dealings (join packages need those).
  std::vector<Dealing> kept;
  for (Dealing& d : dealings_) {
    if (std::find(s_high.begin(), s_high.end(), d.dealer) != s_high.end()) {
      kept.push_back(std::move(d));
    }
  }
  dealings_ = std::move(kept);

  auto dealing_of = [&](int dealer) -> const Dealing& {
    for (const Dealing& d : dealings_) {
      if (d.dealer == dealer) return d;
    }
    throw ProtocolError("reconfig: applied dealing missing");
  };

  const BigInt delta_base = BigInt::factorial(static_cast<unsigned>(plan_.n_old));

  ReconfigResult result;
  result.completed = true;
  result.new_slot = plan_.new_slot_of(me());
  result.suspected = suspected;
  result.dealings_applied = static_cast<int>(s_high.size());

  if (result.new_slot >= 0) {
    const std::size_t slot = static_cast<std::size_t>(result.new_slot);
    bool all_valid = true;
    std::vector<BigInt> coin_subs, tdh2_subs, reply_subs, cert_subs;
    for (int dealer : s_low) {
      const Dealing& d = dealing_of(dealer);
      coin_subs.push_back(group.scalar_sub(d.coin_subshares[slot],
                                           dl_mask(kKeyCoin, dealer, result.new_slot)));
      tdh2_subs.push_back(group.scalar_sub(d.tdh2_subshares[slot],
                                           dl_mask(kKeyTdh2, dealer, result.new_slot)));
      reply_subs.push_back(d.reply_subshares[slot] - rsa_mask(kKeyReply, dealer, result.new_slot,
                                                              reply_subshare_width()));
    }
    for (int dealer : s_high) {
      const Dealing& d = dealing_of(dealer);
      cert_subs.push_back(d.cert_subshares[slot] - rsa_mask(kKeyCert, dealer, result.new_slot,
                                                            cert_subshare_width()));
      all_valid = all_valid && d.valid;
    }
    result.coin_share = crypto::dl_combine_subshares(group, s_low, coin_subs);
    result.tdh2_share = crypto::dl_combine_subshares(group, s_low, tdh2_subs);
    result.reply_share = crypto::rsa_combine_subshares(s_low, reply_subs, delta_base);
    result.cert_share = crypto::rsa_combine_subshares(s_high, cert_subs, delta_base);
    // A dealing can be applied over this member's objection when its
    // verdict missed the first quorum: the member then KNOWS its new share
    // is unusable and must recover before serving (see header).
    result.share_valid = all_valid;
  } else {
    result.share_valid = true;  // retiring: nothing to hold
  }

  NewConfig config;
  config.plan = plan_;
  if (fence_.has_value()) {
    config.fence = *fence_;
  } else {
    // Unfenced epoch (key rotation without a checkpoint anchor): the
    // placeholder still has to survive the wire, so it carries the initial
    // chain digest at round 0 — no verifier treats that as a real fence.
    config.fence.chain_digest = crypto::chain_initial();
  }
  {
    std::vector<std::vector<Element>> coin_c, tdh2_c;
    std::vector<std::vector<BigInt>> reply_c, cert_c;
    for (int dealer : s_low) {
      const Dealing& d = dealing_of(dealer);
      coin_c.push_back(d.coin_commitments);
      tdh2_c.push_back(d.tdh2_commitments);
      reply_c.push_back(d.reply_commitments);
    }
    for (int dealer : s_high) cert_c.push_back(dealing_of(dealer).cert_commitments);
    config.coin_verification = crypto::dl_new_verification(group, s_low, coin_c, plan_.n_new);
    config.tdh2_verification = crypto::dl_new_verification(group, s_low, tdh2_c, plan_.n_new);
    config.reply_verification = crypto::rsa_new_verification(s_low, reply_c, plan_.n_new,
                                                             delta_base, pub.reply_sig.mont());
    config.cert_verification = crypto::rsa_new_verification(s_high, cert_c, plan_.n_new,
                                                            delta_base, pub.cert_sig.mont());
  }
  // Δ compounding (crypto/reshare.hpp): the new effective clearing
  // constant is Δ(n') x the OLD scheme's effective delta.
  config.reply_scale = pub.reply_sig.scheme().delta();
  config.cert_scale = pub.cert_sig.scheme().delta();
  config.reply_share_bits = static_cast<std::uint32_t>(crypto::rsa_reshare_share_bits(
      crypto::rsa_reshare_coeff_bits(pub.reply_sig.share_bits()), plan_.n_old, plan_.t_old,
      plan_.n_new, plan_.low_degree()));
  config.cert_share_bits = static_cast<std::uint32_t>(crypto::rsa_reshare_share_bits(
      crypto::rsa_reshare_coeff_bits(pub.cert_sig.share_bits()), plan_.n_old,
      plan_.n_old - plan_.t_old - 1, plan_.n_new, plan_.high_degree()));

  result.config = std::move(config);
  pending_ = std::move(result);
  pending_statement_ = pending_->config.statement(tag_, group);
  submit_sig_shares();

  // Replay any kSig payloads a Byzantine member pushed ahead of schedule.
  auto stash = std::move(sig_stash_);
  sig_stash_.clear();
  for (auto& [origin, payload] : stash) {
    try {
      Reader reader(payload);
      reader.u8();
      reader.u32();
      handle_sig(origin, reader);
    } catch (const ProtocolError&) {
    }
  }
}

void Reconfig::finish_abort(crypto::PartySet suspected) {
  ReconfigResult result;
  result.completed = false;
  result.new_slot = plan_.new_slot_of(me());
  result.suspected = suspected;
  result.dealings_applied = static_cast<int>(applied_order_.size());
  host_.trace("reconfig",
              tag_ + " epoch aborted: only " + std::to_string(applied_order_.size()) +
                  " applied dealings");
  result_ = std::move(result);
  dealings_.clear();
  dealings_.shrink_to_fit();
  verdicts_.clear();
  if (done_) done_(*result_);
}

void Reconfig::submit_sig_shares() {
  const auto& pub = host_.public_keys();
  std::vector<crypto::SigShare> shares =
      host_.keys().reply_sig.sign(pub.reply_sig, pending_statement_, host_.rng());
  Writer w;
  w.u8(kSig);
  w.u32(static_cast<std::uint32_t>(me()));
  w.vec(shares, [](Writer& wr, const crypto::SigShare& s) { s.encode(wr); });
  abc_.submit(w.take());
}

void Reconfig::handle_sig(int origin, Reader& reader) {
  if (result_.has_value() || !pending_.has_value() || sig_shares_.seen(origin)) return;
  auto shares =
      reader.vec<crypto::SigShare>([](Reader& rr) { return crypto::SigShare::decode(rr); });
  reader.expect_done();
  const auto& reply_pk = host_.public_keys().reply_sig;
  const bool admitted = sig_shares_.admit(
      reply_pk.scheme(), origin, std::move(shares), "reconfig: shares not the member's units",
      [&](const std::vector<crypto::SigShare>& incoming) {
        SINTRA_REQUIRE(
            crypto::batch::verify_sig_shares(reply_pk, pending_statement_, incoming, host_.rng()),
            "reconfig: invalid signature share");
      });
  if (!admitted || !reply_pk.scheme().qualified(sig_shares_.support())) return;
  auto combined = reply_pk.combine(pending_statement_, sig_shares_.shares());
  if (!combined.has_value()) return;
  pending_->config.signature = std::move(*combined);
  result_ = std::move(pending_);
  pending_.reset();
  sig_shares_.release_shares();
  verdicts_.clear();
  host_.trace("reconfig", tag_ + " epoch " + std::to_string(plan_.new_epoch) + " completed (" +
                              std::to_string(result_->dealings_applied) + " dealings applied)");
  if (done_) done_(*result_);
}

JoinPackage Reconfig::join_package(int joiner_slot) const {
  SINTRA_REQUIRE(result_.has_value() && result_->completed,
                 "reconfig: epoch not completed");
  SINTRA_REQUIRE(plan_.joining(joiner_slot), "reconfig: slot is not a joining slot");
  const std::size_t slot = static_cast<std::size_t>(joiner_slot);
  JoinPackage package;
  package.config = result_->config;
  for (int dealer : applied_order_) {
    package.applied.push_back(dealer);
    for (const Dealing& d : dealings_) {
      if (d.dealer != dealer) continue;
      package.coin_commitments.push_back(d.coin_commitments);
      package.tdh2_commitments.push_back(d.tdh2_commitments);
      package.reply_commitments.push_back(d.reply_commitments);
      package.cert_commitments.push_back(d.cert_commitments);
      package.coin_subshares.push_back(d.coin_subshares[slot]);
      package.tdh2_subshares.push_back(d.tdh2_subshares[slot]);
      package.reply_subshares.push_back(d.reply_subshares[slot]);
      package.cert_subshares.push_back(d.cert_subshares[slot]);
      break;
    }
  }
  SINTRA_REQUIRE(package.applied.size() == applied_order_.size(),
                 "reconfig: applied dealing missing from store");
  return package;
}

// ---- helpers -------------------------------------------------------------

Bytes reconfig_channel_key(std::uint32_t epoch, BytesView pair_key) {
  Writer w;
  w.u32(epoch);
  w.bytes(pair_key);
  return crypto::hash_expand("sintra/reconfig/chan", w.data(), 32);
}

namespace {

/// New-committee public key material, rebuilt from the announcement alone
/// (shared by members and share-less observers like clients).
crypto::PublicKeys rebuild_public_keys(const NewConfig& config, const crypto::GroupPtr& group,
                                       const crypto::PublicKeys& old_public) {
  const ReconfigPlan& plan = config.plan;
  auto low = std::make_shared<const crypto::ThresholdScheme>(plan.n_new, plan.t_new);
  auto high =
      std::make_shared<const crypto::ThresholdScheme>(plan.n_new, plan.high_degree());
  auto reply_scheme = std::make_shared<const crypto::ScaledScheme>(low, config.reply_scale);
  auto cert_scheme = std::make_shared<const crypto::ScaledScheme>(high, config.cert_scale);
  return crypto::PublicKeys{
      crypto::CoinPublicKey(group, low, config.coin_verification),
      crypto::ThresholdSigPublicKey(old_public.cert_sig.modulus(), old_public.cert_sig.exponent(),
                                    old_public.cert_sig.v(), config.cert_verification,
                                    cert_scheme, config.cert_share_bits),
      crypto::ThresholdSigPublicKey(old_public.reply_sig.modulus(),
                                    old_public.reply_sig.exponent(), old_public.reply_sig.v(),
                                    config.reply_verification, reply_scheme,
                                    config.reply_share_bits),
      crypto::Tdh2PublicKey(group, low, old_public.encryption.h(), config.tdh2_verification)};
}

}  // namespace

adversary::Deployment reconfig_deployment(const ReconfigResult& result, crypto::GroupPtr group,
                                          const crypto::PublicKeys& old_public,
                                          std::vector<Bytes> channel_keys) {
  SINTRA_REQUIRE(result.completed && result.new_slot >= 0,
                 "reconfig: no new-committee membership to deploy");
  const NewConfig& config = result.config;
  const ReconfigPlan& plan = config.plan;
  SINTRA_REQUIRE(static_cast<std::int32_t>(channel_keys.size()) == plan.n_new,
                 "reconfig: channel key vector size mismatch");

  crypto::PublicKeys public_keys = rebuild_public_keys(config, group, old_public);

  std::vector<crypto::PartyKeyShare> shares;
  for (int slot = 0; slot < plan.n_new; ++slot) {
    if (slot == result.new_slot) {
      shares.push_back(crypto::PartyKeyShare{
          crypto::CoinSecretKey(slot, {{slot, result.coin_share}}),
          crypto::ThresholdSigSecretKey(slot, {{slot, result.cert_share}}),
          crypto::ThresholdSigSecretKey(slot, {{slot, result.reply_share}}),
          crypto::Tdh2SecretKey(slot, {{slot, result.tdh2_share}}), channel_keys});
    } else {
      // Placeholder: a member only ever reads its own slot's share.
      shares.push_back(crypto::PartyKeyShare{crypto::CoinSecretKey(slot, {}),
                                             crypto::ThresholdSigSecretKey(slot, {}),
                                             crypto::ThresholdSigSecretKey(slot, {}),
                                             crypto::Tdh2SecretKey(slot, {}),
                                             std::vector<Bytes>()});
    }
  }

  adversary::Deployment deployment;
  deployment.quorum = std::make_shared<const adversary::ThresholdQuorum>(plan.n_new, plan.t_new);
  deployment.keys = std::make_shared<const crypto::KeyBundle>(std::move(public_keys),
                                                              std::move(shares));
  return deployment;
}

adversary::Deployment assemble_committee(const adversary::Deployment& old,
                                         const ReconfigPlan& plan,
                                         const std::vector<ReconfigResult>& results,
                                         const JoinKeyFn& join_key) {
  SINTRA_REQUIRE(!results.empty() &&
                     static_cast<std::int32_t>(results.size()) == plan.n_new &&
                     results.front().completed,
                 "reconfig: one completed result per new slot required");
  const auto base_key = [&](int a, int b) -> Bytes {
    const int oa = plan.old_slot.at(static_cast<std::size_t>(a));
    const int ob = plan.old_slot.at(static_cast<std::size_t>(b));
    if (oa >= 0 && ob >= 0) {
      return old.keys->share(oa).channel_keys.at(static_cast<std::size_t>(ob));
    }
    SINTRA_REQUIRE(static_cast<bool>(join_key), "reconfig: joiner pair without a join key");
    if (oa >= 0) return join_key(oa, b);  // b is the joiner
    return join_key(ob, a);               // a is the joiner
  };
  std::vector<crypto::PartyKeyShare> shares;
  for (int slot = 0; slot < plan.n_new; ++slot) {
    const ReconfigResult& r = results[static_cast<std::size_t>(slot)];
    std::vector<Bytes> channel_keys(static_cast<std::size_t>(plan.n_new));
    for (int peer = 0; peer < plan.n_new; ++peer) {
      if (peer == slot) continue;
      channel_keys[static_cast<std::size_t>(peer)] =
          reconfig_channel_key(plan.new_epoch, base_key(slot, peer));
    }
    shares.push_back(crypto::PartyKeyShare{
        crypto::CoinSecretKey(slot, {{slot, r.coin_share}}),
        crypto::ThresholdSigSecretKey(slot, {{slot, r.cert_share}}),
        crypto::ThresholdSigSecretKey(slot, {{slot, r.reply_share}}),
        crypto::Tdh2SecretKey(slot, {{slot, r.tdh2_share}}), std::move(channel_keys)});
  }
  const auto& old_public = old.keys->public_keys();
  adversary::Deployment committee = reconfig_public_deployment(
      results[0].config, old_public.coin.group_ptr(), old_public);
  committee.keys = std::make_shared<const crypto::KeyBundle>(committee.keys->public_keys(),
                                                             std::move(shares));
  return committee;
}

adversary::Deployment reconfig_public_deployment(const NewConfig& config, crypto::GroupPtr group,
                                                 const crypto::PublicKeys& old_public) {
  const ReconfigPlan& plan = config.plan;
  plan.validate();
  crypto::PublicKeys public_keys = rebuild_public_keys(config, group, old_public);
  std::vector<crypto::PartyKeyShare> shares;
  for (int slot = 0; slot < plan.n_new; ++slot) {
    shares.push_back(crypto::PartyKeyShare{crypto::CoinSecretKey(slot, {}),
                                           crypto::ThresholdSigSecretKey(slot, {}),
                                           crypto::ThresholdSigSecretKey(slot, {}),
                                           crypto::Tdh2SecretKey(slot, {}),
                                           std::vector<Bytes>()});
  }
  adversary::Deployment deployment;
  deployment.quorum = std::make_shared<const adversary::ThresholdQuorum>(plan.n_new, plan.t_new);
  deployment.keys = std::make_shared<const crypto::KeyBundle>(std::move(public_keys),
                                                              std::move(shares));
  return deployment;
}

// ---- JoinListener --------------------------------------------------------

JoinListener::JoinListener(std::string tag, int new_slot, std::map<int, Bytes> join_keys,
                           crypto::GroupPtr group, crypto::PublicKeys old_public)
    : tag_(std::move(tag)), new_slot_(new_slot), join_keys_(std::move(join_keys)),
      group_(std::move(group)), old_public_(std::move(old_public)) {}

bool JoinListener::offer(const JoinPackage& package) {
  if (result_.has_value()) return true;  // first valid package won already
  try {
    const NewConfig& config = package.config;
    const ReconfigPlan& plan = config.plan;
    plan.validate();
    SINTRA_REQUIRE(new_slot_ >= 0 && new_slot_ < plan.n_new && plan.joining(new_slot_),
                   "join: this slot is not joining in the announced plan");
    SINTRA_REQUIRE(config.verify(old_public_.reply_sig, tag_, *group_),
                   "join: announcement signature invalid");

    const std::size_t need_high = static_cast<std::size_t>(plan.n_old - plan.t_old);
    const std::size_t need_low = static_cast<std::size_t>(plan.t_old) + 1;
    SINTRA_REQUIRE(package.applied.size() == need_high, "join: wrong applied-dealer count");
    SINTRA_REQUIRE(package.coin_commitments.size() == need_high &&
                       package.tdh2_commitments.size() == need_high &&
                       package.reply_commitments.size() == need_high &&
                       package.cert_commitments.size() == need_high &&
                       package.coin_subshares.size() == need_high &&
                       package.tdh2_subshares.size() == need_high &&
                       package.reply_subshares.size() == need_high &&
                       package.cert_subshares.size() == need_high,
                   "join: package vector size mismatch");
    crypto::PartySet seen = 0;
    for (std::int32_t dealer : package.applied) {
      SINTRA_REQUIRE(dealer >= 0 && dealer < plan.n_old, "join: applied dealer out of range");
      SINTRA_REQUIRE(!crypto::contains(seen, dealer), "join: duplicate applied dealer");
      seen |= crypto::party_bit(dealer);
    }

    // Scales and widths must be exactly what the public derivation gives.
    SINTRA_REQUIRE(config.reply_scale == old_public_.reply_sig.scheme().delta() &&
                       config.cert_scale == old_public_.cert_sig.scheme().delta(),
                   "join: announced delta scale mismatch");
    const std::size_t reply_coeff_bits =
        crypto::rsa_reshare_coeff_bits(old_public_.reply_sig.share_bits());
    const std::size_t cert_coeff_bits =
        crypto::rsa_reshare_coeff_bits(old_public_.cert_sig.share_bits());
    SINTRA_REQUIRE(
        config.reply_share_bits ==
                crypto::rsa_reshare_share_bits(reply_coeff_bits, plan.n_old, plan.t_old,
                                               plan.n_new, plan.low_degree()) &&
            config.cert_share_bits ==
                crypto::rsa_reshare_share_bits(cert_coeff_bits, plan.n_old,
                                               plan.n_old - plan.t_old - 1, plan.n_new,
                                               plan.high_degree()),
        "join: announced share width mismatch");

    const std::size_t low_count = static_cast<std::size_t>(plan.low_degree()) + 1;
    const std::size_t high_count = static_cast<std::size_t>(plan.high_degree()) + 1;
    std::vector<int> s_high(package.applied.begin(), package.applied.end());
    std::vector<int> s_low(s_high.begin(), s_high.begin() + static_cast<long>(need_low));

    // Per-dealer checks: commitment geometry + C_0 binding to the dealer's
    // OLD public verification value.
    for (std::size_t k = 0; k < need_high; ++k) {
      const int dealer = s_high[k];
      SINTRA_REQUIRE(package.coin_commitments[k].size() == low_count &&
                         package.tdh2_commitments[k].size() == low_count &&
                         package.reply_commitments[k].size() == low_count &&
                         package.cert_commitments[k].size() == high_count,
                     "join: wrong commitment count");
      SINTRA_REQUIRE(
          package.coin_commitments[k][0] == old_public_.coin.verification(dealer) &&
              package.tdh2_commitments[k][0] == old_public_.encryption.verification(dealer) &&
              package.reply_commitments[k][0] == old_public_.reply_sig.verification(dealer) &&
              package.cert_commitments[k][0] == old_public_.cert_sig.verification(dealer),
          "join: dealing not bound to the dealer's old share");
    }

    // The announced verification vectors must be what the commitments give
    // — this binds the package's dealings to the signed announcement.
    const BigInt delta_base = BigInt::factorial(static_cast<unsigned>(plan.n_old));
    {
      std::vector<std::vector<Element>> coin_c, tdh2_c;
      std::vector<std::vector<BigInt>> reply_c, cert_c;
      for (std::size_t k = 0; k < need_low; ++k) {
        coin_c.push_back(package.coin_commitments[k]);
        tdh2_c.push_back(package.tdh2_commitments[k]);
        reply_c.push_back(package.reply_commitments[k]);
      }
      for (std::size_t k = 0; k < need_high; ++k) cert_c.push_back(package.cert_commitments[k]);
      SINTRA_REQUIRE(
          crypto::dl_new_verification(*group_, s_low, coin_c, plan.n_new) ==
                  config.coin_verification &&
              crypto::dl_new_verification(*group_, s_low, tdh2_c, plan.n_new) ==
                  config.tdh2_verification &&
              crypto::rsa_new_verification(s_low, reply_c, plan.n_new, delta_base,
                                           old_public_.reply_sig.mont()) ==
                  config.reply_verification &&
              crypto::rsa_new_verification(s_high, cert_c, plan.n_new, delta_base,
                                           old_public_.cert_sig.mont()) ==
                  config.cert_verification,
          "join: announced verification values do not match the dealings");
    }

    // Unmask and verify my own sub-shares; a failure here inside an
    // APPLIED dealing is provable dealer misbehavior targeting the joiner.
    const std::size_t reply_width =
        crypto::rsa_subshare_bits(reply_coeff_bits, plan.n_new, plan.low_degree()) + 64;
    const std::size_t cert_width =
        crypto::rsa_subshare_bits(cert_coeff_bits, plan.n_new, plan.high_degree()) + 64;
    std::vector<BigInt> coin_subs, tdh2_subs, reply_subs, cert_subs;
    for (std::size_t k = 0; k < need_high; ++k) {
      const int dealer = s_high[k];
      const Bytes& jkey = join_keys_.at(dealer);
      const BigInt cert_sub =
          package.cert_subshares[k] - derive_rsa_mask(tag_, plan.new_epoch, kKeyCert, dealer,
                                                      new_slot_, jkey, cert_width);
      if (!RsaReshareDealing::verify_subshare(package.cert_commitments[k], new_slot_, cert_sub,
                                              old_public_.cert_sig.v(),
                                              old_public_.cert_sig.mont())) {
        suspected_ |= crypto::party_bit(dealer);
        throw ProtocolError("join: cert sub-share fails verification");
      }
      cert_subs.push_back(cert_sub);
      if (k >= need_low) continue;
      const BigInt coin_sub = group_->scalar_sub(
          package.coin_subshares[k],
          derive_dl_mask(*group_, tag_, plan.new_epoch, kKeyCoin, dealer, new_slot_, jkey));
      const BigInt tdh2_sub = group_->scalar_sub(
          package.tdh2_subshares[k],
          derive_dl_mask(*group_, tag_, plan.new_epoch, kKeyTdh2, dealer, new_slot_, jkey));
      const BigInt reply_sub =
          package.reply_subshares[k] - derive_rsa_mask(tag_, plan.new_epoch, kKeyReply, dealer,
                                                       new_slot_, jkey, reply_width);
      if (!FeldmanDealing::verify_share(*group_, package.coin_commitments[k], new_slot_,
                                        coin_sub) ||
          !FeldmanDealing::verify_share(*group_, package.tdh2_commitments[k], new_slot_,
                                        tdh2_sub) ||
          !RsaReshareDealing::verify_subshare(package.reply_commitments[k], new_slot_, reply_sub,
                                              old_public_.reply_sig.v(),
                                              old_public_.reply_sig.mont())) {
        suspected_ |= crypto::party_bit(dealer);
        throw ProtocolError("join: sub-share fails verification");
      }
      coin_subs.push_back(coin_sub);
      tdh2_subs.push_back(tdh2_sub);
      reply_subs.push_back(reply_sub);
    }

    ReconfigResult result;
    result.completed = true;
    result.config = config;
    result.new_slot = new_slot_;
    result.share_valid = true;
    result.coin_share = crypto::dl_combine_subshares(*group_, s_low, coin_subs);
    result.tdh2_share = crypto::dl_combine_subshares(*group_, s_low, tdh2_subs);
    result.reply_share = crypto::rsa_combine_subshares(s_low, reply_subs, delta_base);
    result.cert_share = crypto::rsa_combine_subshares(s_high, cert_subs, delta_base);
    result.dealings_applied = static_cast<int>(need_high);
    result_ = std::move(result);
    return true;
  } catch (const ProtocolError&) {
    return false;
  }
}

}  // namespace sintra::protocols
