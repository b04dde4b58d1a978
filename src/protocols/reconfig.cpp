#include "protocols/reconfig.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace sintra::protocols {

using crypto::BigInt;
using crypto::Element;
using crypto::FeldmanDealing;
using crypto::PartyKeyShare;
using crypto::PublicKeys;
using crypto::RsaReshareDealing;

namespace {

using ShareMap = std::map<int, BigInt>;

/// One entry of the dealt-key table kKeys (in DealtKey order): `rsa` is a
/// threshold-RSA key's old public key (null for a discrete-log key), `high`
/// marks the high sharing degree n-t-1.
struct KeySpec {
  const crypto::ThresholdSigPublicKey PublicKeys::*rsa;
  bool high;
  Element (*old_verification)(const PublicKeys& p, int party);  ///< RSA: as a residue
  const ShareMap& (*old_shares)(const PartyKeyShare& s);
};

constexpr std::array<KeySpec, kDealtKeys> kKeys{{
    {nullptr, false, [](const PublicKeys& p, int j) { return p.coin.verification(j); },
     [](const PartyKeyShare& s) -> const ShareMap& { return s.coin.unit_shares(); }},
    {nullptr, false, [](const PublicKeys& p, int j) { return p.encryption.verification(j); },
     [](const PartyKeyShare& s) -> const ShareMap& { return s.decryption.unit_shares(); }},
    {&PublicKeys::reply_sig, false,
     [](const PublicKeys& p, int j) { return Element::from_residue(p.reply_sig.verification(j)); },
     [](const PartyKeyShare& s) -> const ShareMap& { return s.reply_sig.unit_shares(); }},
    {&PublicKeys::cert_sig, true,
     [](const PublicKeys& p, int j) { return Element::from_residue(p.cert_sig.verification(j)); },
     [](const PartyKeyShare& s) -> const ShareMap& { return s.cert_sig.unit_shares(); }},
    {nullptr, true, [](const PublicKeys& p, int j) { return p.quorum_sig.verification(j); },
     [](const PartyKeyShare& s) -> const ShareMap& { return s.quorum_sig.unit_shares(); }},
}};

constexpr bool is_rsa(std::size_t k) { return kKeys[k].rsa != nullptr; }

std::vector<BigInt> residues(const std::vector<Element>& values) {
  std::vector<BigInt> out;
  for (const Element& e : values) out.push_back(e.residue());
  return out;
}

std::vector<Element> as_elements(std::vector<BigInt> values) {
  std::vector<Element> out;
  for (BigInt& x : values) out.push_back(Element::from_residue(std::move(x)));
  return out;
}

void encode_values(Writer& w, const crypto::Group& group, std::size_t k,
                   const std::vector<Element>& v) {
  w.vec(v, [&](Writer& wr, const Element& e) {
    if (is_rsa(k)) {
      e.residue().encode(wr);
    } else {
      group.encode_element(wr, e);
    }
  });
}

std::vector<Element> decode_values(Reader& r, const crypto::Group& group, std::size_t k) {
  return r.vec<Element>([&](Reader& rr) {
    return is_rsa(k) ? Element::from_residue(BigInt::decode(rr)) : group.decode_element(rr);
  });
}

void encode_bigints(Writer& w, const std::vector<BigInt>& v) {
  w.vec(v, [](Writer& wr, const BigInt& x) { x.encode(wr); });
}

std::vector<BigInt> decode_bigints(Reader& r) {
  return r.vec<BigInt>([](Reader& rr) { return BigInt::decode(rr); });
}

/// Post-epoch channel key for a surviving pair: both ends derive it from
/// the old dealer-dealt pair key, domain-separated by epoch.  Joiner pairs
/// run the same derivation over the provisioned join key.
Bytes reconfig_channel_key(std::uint32_t epoch, BytesView pair_key) {
  Writer w;
  w.u32(epoch);
  w.bytes(pair_key);
  return crypto::hash_expand("sintra/reconfig/chan", w.data(), 32);
}

/// Position of joining slot `slot` among the plan's joining slots.
std::size_t joiner_index(const ReconfigPlan& plan, int slot) {
  std::size_t index = 0;
  for (int i = 0; i < slot; ++i) index += plan.joining(i) ? 1 : 0;
  return index;
}

/// The dealt keys as one epoch sees them: the old public keys and the plan
/// fix every degree, mask width and interpolation, for members and joiners.
struct EpochKeys {
  using Dealt = std::pair<std::vector<Element>, std::vector<BigInt>>;

  const crypto::Group& group;  ///< the discrete-log keys' group
  const PublicKeys& old;
  const ReconfigPlan& plan;
  std::string_view tag;

  [[nodiscard]] const crypto::ThresholdSigPublicKey& rsa(std::size_t k) const {
    return old.*kKeys[k].rsa;
  }
  /// Key k's old sharing degree: it interpolates old_degree(k)+1 dealings.
  [[nodiscard]] std::size_t old_degree(std::size_t k) const {
    return static_cast<std::size_t>(kKeys[k].high ? plan.n_old - plan.t_old - 1 : plan.t_old);
  }
  [[nodiscard]] int new_degree(std::size_t k) const {
    return kKeys[k].high ? plan.high_degree() : plan.low_degree();
  }
  [[nodiscard]] std::size_t coeff_bits(std::size_t k) const {
    return crypto::rsa_reshare_coeff_bits(rsa(k).share_bits());
  }
  [[nodiscard]] BigInt delta_base() const {
    return BigInt::factorial(static_cast<unsigned>(plan.n_old));
  }

  /// Whether C_0 is `dealer`'s OLD verification value of key k — this is
  /// what ties a dealing to the share the dealer really holds.
  [[nodiscard]] bool bound(std::size_t k, int dealer, const std::vector<Element>& c) const {
    SINTRA_REQUIRE(c.size() == static_cast<std::size_t>(new_degree(k)) + 1,
                   "reconfig: wrong commitment count");
    return c[0] == kKeys[k].old_verification(old, dealer);
  }

  /// Key k's redistribution of `dealer`'s old share: commitments, sub-shares.
  [[nodiscard]] Dealt deal(std::size_t k, const BigInt& share, int dealer, Rng& rng) const {
    if (!is_rsa(k)) {
      FeldmanDealing d = crypto::dl_reshare_deal(group, share, plan.n_new, new_degree(k), rng);
      return {std::move(d.commitments), std::move(d.shares)};
    }
    const auto& pk = rsa(k);
    RsaReshareDealing d = RsaReshareDealing::deal(share, pk.verification(dealer), coeff_bits(k),
                                                  plan.n_new, new_degree(k), pk.v(), pk.mont(),
                                                  rng);
    return {as_elements(std::move(d.commitments)), std::move(d.subshares)};
  }

  /// Mask of key k's sub-share from `dealer` to `slot`, bound to the
  /// instance, epoch, key and pair.  For RSA a non-negative integer of a
  /// PUBLIC width (sub-share bound + 64 slack bits), so any holder of the
  /// pair key can strip it exactly.
  [[nodiscard]] BigInt mask(std::size_t k, int dealer, int slot, BytesView pair_key) const {
    Writer w;
    w.str(tag);
    w.u32(plan.new_epoch);
    w.u32(static_cast<std::uint32_t>(k));
    w.u32(static_cast<std::uint32_t>(dealer));
    w.u32(static_cast<std::uint32_t>(slot));
    w.bytes(pair_key);
    if (!is_rsa(k)) return group.hash_to_scalar("sintra/reconfig/mask", w.data());
    const std::size_t width =
        crypto::rsa_subshare_bits(coeff_bits(k), plan.n_new, new_degree(k)) + 64;
    return BigInt::from_bytes(
        crypto::hash_expand("sintra/reconfig/imask", w.data(), (width + 7) / 8));
  }

  /// a + b over Z_q, or over the integers for RSA.
  [[nodiscard]] BigInt add(std::size_t k, const BigInt& a, const BigInt& b) const {
    return is_rsa(k) ? a + b : group.scalar_add(a, b);
  }

  [[nodiscard]] BigInt unmask(std::size_t k, const BigInt& masked, int dealer, int slot,
                              BytesView pair_key) const {
    const BigInt m = mask(k, dealer, slot, pair_key);
    return is_rsa(k) ? masked - m : group.scalar_sub(masked, m);
  }

  [[nodiscard]] bool verify(std::size_t k, const std::vector<Element>& commitments, int slot,
                            const BigInt& sub) const {
    if (!is_rsa(k)) return FeldmanDealing::verify_share(group, commitments, slot, sub);
    return RsaReshareDealing::verify_subshare(residues(commitments), slot, sub, rsa(k).v(),
                                              rsa(k).mont());
  }

  /// A slot's new share from its sub-shares of the first applied dealers.
  [[nodiscard]] BigInt combine(std::size_t k, std::vector<int> dealers,
                               const std::vector<BigInt>& subs) const {
    dealers.resize(subs.size());
    if (!is_rsa(k)) return crypto::dl_combine_subshares(group, dealers, subs);
    return crypto::rsa_combine_subshares(dealers, subs, delta_base());
  }

  /// Every new slot's verification value, from the commitments of the
  /// first old_degree(k)+1 applied dealers alone.
  [[nodiscard]] std::vector<Element> new_verification(
      std::size_t k, std::vector<int> dealers,
      std::vector<std::vector<Element>> commitments) const {
    dealers.resize(old_degree(k) + 1);
    commitments.resize(dealers.size());
    if (!is_rsa(k)) return crypto::dl_new_verification(group, dealers, commitments, plan.n_new);
    std::vector<std::vector<BigInt>> rsa_commitments;
    for (const auto& c : commitments) rsa_commitments.push_back(residues(c));
    return as_elements(crypto::rsa_new_verification(dealers, rsa_commitments, plan.n_new,
                                                    delta_base(), rsa(k).mont()));
  }

  [[nodiscard]] std::uint32_t share_bits(std::size_t k) const {
    return static_cast<std::uint32_t>(crypto::rsa_reshare_share_bits(
        coeff_bits(k), plan.n_old, static_cast<int>(old_degree(k)), plan.n_new, new_degree(k)));
  }
};

/// The one apply path, for members and joiners: from the applied dealings
/// as new slot `slot` receives them, derive the new public values, unmask
/// the slot's sub-shares and interpolate its new shares (slot -1 retires:
/// public values only).  A member checked its dealings on arrival; a
/// joiner passes `fingered` and the package must first prove itself
/// against public values and the signed announcement, after which a bad
/// sub-share is its dealer's provable fault: fingered, package refused.
ReconfigResult apply_dealings(const EpochKeys& keys, const JoinPackage& package, int slot,
                              const std::function<Bytes(int dealer)>& pair_key,
                              crypto::PartySet* fingered) {
  const std::vector<int> dealers(package.applied.begin(), package.applied.end());
  const bool joiner = fingered != nullptr;
  if (joiner) {
    SINTRA_REQUIRE(dealers.size() == static_cast<std::size_t>(keys.plan.n_old - keys.plan.t_old) &&
                       package.macs.size() == dealers.size(),
                   "join: wrong applied-dealer or MAC count");
    crypto::PartySet seen = 0;
    for (int dealer : dealers) {
      SINTRA_REQUIRE(dealer >= 0 && dealer < keys.plan.n_old, "join: applied dealer out of range");
      SINTRA_REQUIRE(!crypto::contains(seen, dealer), "join: duplicate applied dealer");
      seen |= crypto::party_bit(dealer);
    }
    for (std::size_t k = 0; k < kDealtKeys; ++k) {
      SINTRA_REQUIRE(package.commitments[k].size() == dealers.size() &&
                         package.subshares[k].size() == dealers.size(),
                     "join: package vector size mismatch");
      for (std::size_t a = 0; a < dealers.size(); ++a) {
        SINTRA_REQUIRE(keys.bound(k, dealers[a], package.commitments[k][a]),
                       "join: dealing not bound to the dealer's old share");
      }
    }
  }

  ReconfigResult result;
  result.completed = true;
  result.new_slot = slot;
  result.dealings_applied = static_cast<int>(dealers.size());
  NewConfig& config = result.config;
  config.plan = keys.plan;
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    config.verification[k] = keys.new_verification(k, dealers, package.commitments[k]);
    if (is_rsa(k)) {
      // Δ compounding (crypto/reshare.hpp): the new effective clearing
      // constant is Δ(n') x the OLD scheme's effective delta.
      config.scale[k] = keys.rsa(k).scheme().delta();
      config.share_bits[k] = keys.share_bits(k);
    }
    // The announced values must be what the dealings give: this binds the
    // package's dealings to the signed announcement.
    SINTRA_REQUIRE(!joiner || (config.verification[k] == package.config.verification[k] &&
                               config.scale[k] == package.config.scale[k] &&
                               config.share_bits[k] == package.config.share_bits[k]),
                   "join: announced public values do not match the dealings");
  }
  if (slot < 0) return result;

  std::array<std::vector<BigInt>, kDealtKeys> subs;
  for (std::size_t a = 0; a < dealers.size(); ++a) {
    const Bytes key = pair_key(dealers[a]);
    // Rows their dealer did not MAC were altered by the member providing
    // the package: that proves nothing about the dealer, so nobody is
    // fingered.
    SINTRA_REQUIRE(!joiner || constant_time_equal(join_rows_mac(key, keys.tag, keys.plan.new_epoch,
                                                                dealers[a], slot,
                                                                package.subshares, a),
                                                  package.macs[a]),
                   "join: sub-share rows fail their dealer's MAC");
    for (std::size_t k = 0; k < kDealtKeys; ++k) {
      if (a > keys.old_degree(k)) continue;
      BigInt sub = keys.unmask(k, package.subshares[k][a], dealers[a], slot, key);
      if (joiner && !keys.verify(k, package.commitments[k][a], slot, sub)) {
        *fingered |= crypto::party_bit(dealers[a]);
        throw ProtocolError("join: sub-share fails verification");
      }
      subs[k].push_back(std::move(sub));
    }
  }
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    result.shares[k] = keys.combine(k, dealers, subs[k]);
  }
  return result;
}

}  // namespace

Bytes join_rows_mac(BytesView join_key, std::string_view tag, std::uint32_t epoch, int dealer,
                    int slot, const std::array<std::vector<BigInt>, kDealtKeys>& rows,
                    std::size_t index) {
  Writer w;
  w.str(tag);
  w.u32(epoch);
  w.u32(static_cast<std::uint32_t>(dealer));
  w.u32(static_cast<std::uint32_t>(slot));
  for (const auto& row : rows) row.at(index).encode(w);
  const crypto::Digest mac =
      crypto::hmac_sha256(crypto::hash_expand("sintra/reconfig/join-mac", join_key, 32), w.data());
  return Bytes(mac.begin(), mac.end());
}

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
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    encode_values(w, group, k, config.verification[k]);
  }
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    if (is_rsa(k)) config.scale[k].encode(w);
  }
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    if (is_rsa(k)) w.u32(config.share_bits[k]);
  }
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
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    config.verification[k] = decode_values(r, group, k);
    SINTRA_REQUIRE(config.verification[k].size() == static_cast<std::size_t>(config.plan.n_new),
                   "reconfig: verification vector size mismatch");
  }
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    if (is_rsa(k)) config.scale[k] = BigInt::decode(r);
  }
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    if (is_rsa(k)) config.share_bits[k] = r.u32();
  }
  config.signature = BigInt::decode(r);
  return config;
}

// ---- JoinPackage ---------------------------------------------------------

void JoinPackage::encode(Writer& w, const crypto::Group& group) const {
  config.encode(w, group);
  w.vec(applied, [](Writer& wr, std::int32_t v) { wr.u32(static_cast<std::uint32_t>(v)); });
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    w.vec(commitments[k],
          [&](Writer& wr, const std::vector<Element>& c) { encode_values(wr, group, k, c); });
  }
  for (const auto& s : subshares) encode_bigints(w, s);
  w.vec(macs, [](Writer& wr, const Bytes& mac) { wr.bytes(mac); });
}

JoinPackage JoinPackage::decode(Reader& r, const crypto::Group& group) {
  JoinPackage package;
  package.config = NewConfig::decode(r, group);
  package.applied =
      r.vec<std::int32_t>([](Reader& rr) { return static_cast<std::int32_t>(rr.u32()); });
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    package.commitments[k] = r.vec<std::vector<Element>>(
        [&](Reader& rr) { return decode_values(rr, group, k); });
  }
  for (auto& s : package.subshares) s = decode_bigints(r);
  package.macs = r.vec<Bytes>([](Reader& rr) { return rr.bytes(); });
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

void Reconfig::start() {
  // Replay-safe: after a crash-restore the WAL re-runs our original
  // submission through the embedded ABC, and started_ is also set when our
  // own dealing comes out of the total order.
  if (started_) return;
  started_ = true;
  const EpochKeys keys{host_.public_keys().coin.group(), host_.public_keys(), plan_, tag_};
  Writer w;
  w.u8(kDealing);
  // Dealer id inside the payload: ABC dedupes identical payloads and the
  // id must be cross-checked against the batch origin.
  w.u32(static_cast<std::uint32_t>(me()));
  std::array<std::vector<BigInt>, kDealtKeys> rows;  // masked sub-shares, per key
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    auto [commitments, subshares] =
        keys.deal(k, kKeys[k].old_shares(host_.keys()).at(me()), me(), host_.rng());
    for (int i = 0; i < plan_.n_new; ++i) {
      BigInt& sub = subshares[static_cast<std::size_t>(i)];
      sub = keys.add(k, sub, keys.mask(k, me(), i, pair_key(me(), i)));
      // Byzantine test hook: commitments bind to the real old shares, but
      // every sub-share is off by one — verification fails at every new
      // slot and honest verdicts exclude (finger) this dealer.
      if (options_.deal_garbage) sub = keys.add(k, sub, BigInt(1));
    }
    encode_values(w, keys.group, k, commitments);
    encode_bigints(w, subshares);
    rows[k] = std::move(subshares);
  }
  std::vector<Bytes> join_macs;
  for (int i = 0; i < plan_.n_new; ++i) {
    if (!plan_.joining(i)) continue;
    join_macs.push_back(join_rows_mac(pair_key(me(), i), tag_, plan_.new_epoch, me(), i, rows,
                                      static_cast<std::size_t>(i)));
  }
  w.vec(join_macs, [](Writer& wr, const Bytes& mac) { wr.bytes(mac); });
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
  const EpochKeys keys{host_.public_keys().coin.group(), host_.public_keys(), plan_, tag_};

  Dealing d;
  d.dealer = origin;
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    d.commitments[k] = decode_values(reader, keys.group, k);
    d.subshares[k] = decode_bigints(reader);
    SINTRA_REQUIRE(d.subshares[k].size() == static_cast<std::size_t>(plan_.n_new),
                   "reconfig: wrong sub-share count");
  }
  d.join_macs = reader.vec<Bytes>([](Reader& rr) { return rr.bytes(); });
  SINTRA_REQUIRE(d.join_macs.size() == joiner_index(plan_, plan_.n_new),
                 "reconfig: wrong join MAC count");
  reader.expect_done();
  // Public binding of every key to the dealer's old share.
  bool valid = true;
  for (std::size_t k = 0; k < kDealtKeys; ++k) {
    valid = keys.bound(k, origin, d.commitments[k]) && valid;
  }

  // Private check: my own sub-shares (members retiring this epoch hold no
  // new slot and can only attest the public binding).
  const int my_new = plan_.new_slot_of(me());
  for (std::size_t k = 0; valid && my_new >= 0 && k < kDealtKeys; ++k) {
    valid = keys.verify(k, d.commitments[k], my_new,
                        keys.unmask(k, d.subshares[k][static_cast<std::size_t>(my_new)], origin,
                                    my_new, pair_key(origin, my_new)));
  }
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

  // Applied = dealers seen AND approved by EVERY first-quorum verdict
  // (total order makes every verdict's seen-set a subset of the dealings
  // this member has already processed).
  crypto::PartySet applied = dealers_seen_;
  for (const Verdict& v : verdicts_) applied &= v.seen & v.valid;

  // Fingered = seen by some first-quorum verdict and judged INVALID there.
  // A dealing that merely arrived after the verdicts were cast is excluded
  // from this epoch, but lateness is not evidence: its dealer stays clean.
  // So is a member that sent this one a badly signed batch: with a wrong
  // certificate-key share its dealing is never ordered at all.
  crypto::PartySet suspected = abc_.suspected();
  for (const Verdict& v : verdicts_) suspected |= v.seen & ~v.valid;
  // Keep only the applied dealings, in ABC order (join packages need them).
  std::erase_if(dealings_, [&](const Dealing& d) { return !crypto::contains(applied, d.dealer); });

  // The certificate key has sharing degree n-t-1: its redistribution needs
  // n-t applied sub-sharings, or the epoch cannot complete.
  const std::size_t need_high = static_cast<std::size_t>(plan_.n_old - plan_.t_old);
  if (dealings_.size() < need_high) {
    ReconfigResult result;
    result.new_slot = plan_.new_slot_of(me());
    result.suspected = suspected;
    result.dealings_applied = static_cast<int>(dealings_.size());
    host_.trace("reconfig", tag_ + " epoch aborted: only " +
                                std::to_string(dealings_.size()) + " applied dealings");
    result_ = std::move(result);
    dealings_.clear();
    dealings_.shrink_to_fit();
    verdicts_.clear();
    if (done_) done_(*result_);
    return;
  }
  dealings_.resize(need_high);  // deterministic: first n-t in ABC order

  const int slot = plan_.new_slot_of(me());
  const EpochKeys keys{host_.public_keys().coin.group(), host_.public_keys(), plan_, tag_};
  ReconfigResult result = apply_dealings(
      keys, applied_dealings(slot), slot, [&](int dealer) { return pair_key(dealer, slot); },
      nullptr);
  result.suspected = suspected;
  // A dealing can be applied over this member's objection when its
  // verdict missed the first quorum: the member then KNOWS its new share
  // is unusable and must recover before serving (see header).
  result.share_valid =
      slot < 0 || std::all_of(dealings_.begin(), dealings_.end(), [&](const Dealing& d) {
        return crypto::contains(dealers_valid_, d.dealer);
      });
  if (fence_.has_value()) {
    result.config.fence = *fence_;
  } else {
    // Unfenced epoch (key rotation without a checkpoint anchor): the
    // placeholder still has to survive the wire, so it carries the initial
    // chain digest at round 0 — no verifier treats that as a real fence.
    result.config.fence.chain_digest = crypto::chain_initial();
  }
  pending_ = std::move(result);
  pending_statement_ = pending_->config.statement(tag_, keys.group);
  submit_sig_shares();

  // Replay any kSig payloads a Byzantine member pushed ahead of schedule.
  auto stash = std::move(sig_stash_);
  sig_stash_.clear();
  for (auto& [origin, payload] : stash) on_ordered(origin, std::move(payload));
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
      reply_pk.scheme(), origin, me(), std::move(shares), "reconfig: shares not the member's units",
      "reconfig: invalid signature share", [&](const std::vector<crypto::SigShare>& incoming) {
        return crypto::batch::verify_sig_shares(reply_pk, pending_statement_, incoming,
                                                host_.rng());
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

JoinPackage Reconfig::applied_dealings(int slot) const {
  JoinPackage package;
  for (const Dealing& d : dealings_) {
    package.applied.push_back(d.dealer);
    for (std::size_t k = 0; k < kDealtKeys; ++k) {
      package.commitments[k].push_back(d.commitments[k]);
      if (slot >= 0) package.subshares[k].push_back(d.subshares[k][static_cast<std::size_t>(slot)]);
    }
    if (slot >= 0 && plan_.joining(slot)) {
      package.macs.push_back(d.join_macs[joiner_index(plan_, slot)]);
    }
  }
  return package;
}

JoinPackage Reconfig::join_package(int joiner_slot) const {
  SINTRA_REQUIRE(result_.has_value() && result_->completed,
                 "reconfig: epoch not completed");
  SINTRA_REQUIRE(plan_.joining(joiner_slot), "reconfig: slot is not a joining slot");
  JoinPackage package = applied_dealings(joiner_slot);
  package.config = result_->config;
  return package;
}

// ---- new committee -------------------------------------------------------

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
    const auto& r = results[static_cast<std::size_t>(slot)].shares;
    std::vector<Bytes> channel_keys(static_cast<std::size_t>(plan.n_new));
    for (int peer = 0; peer < plan.n_new; ++peer) {
      if (peer == slot) continue;
      channel_keys[static_cast<std::size_t>(peer)] =
          reconfig_channel_key(plan.new_epoch, base_key(slot, peer));
    }
    shares.push_back(crypto::PartyKeyShare{
        crypto::CoinSecretKey(slot, {{slot, r[kKeyCoin]}}),
        crypto::ThresholdSigSecretKey(slot, {{slot, r[kKeyCert]}}),
        crypto::ThresholdSigSecretKey(slot, {{slot, r[kKeyReply]}}),
        crypto::Tdh2SecretKey(slot, {{slot, r[kKeyTdh2]}}),
        crypto::QuorumSigSecretKey(slot, {{slot, r[kKeyQuorum]}}), std::move(channel_keys)});
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
  // DL keys over fresh ThresholdSchemes, RSA keys over ScaledSchemes
  // carrying the compounded Δ and grown share-width bounds.
  auto low = std::make_shared<const crypto::ThresholdScheme>(plan.n_new, plan.t_new);
  auto high =
      std::make_shared<const crypto::ThresholdScheme>(plan.n_new, plan.high_degree());
  const auto rsa = [&](DealtKey k) {
    const crypto::ThresholdSigPublicKey& pk = old_public.*kKeys[k].rsa;
    return crypto::ThresholdSigPublicKey(
        pk.modulus(), pk.exponent(), pk.v(), residues(config.verification[k]),
        std::make_shared<const crypto::ScaledScheme>(kKeys[k].high ? high : low, config.scale[k]),
        config.share_bits[k]);
  };
  PublicKeys public_keys{
      crypto::CoinPublicKey(group, low, config.verification[kKeyCoin]), rsa(kKeyCert),
      rsa(kKeyReply),
      crypto::Tdh2PublicKey(group, low, old_public.encryption.h(),
                            config.verification[kKeyTdh2]),
      crypto::QuorumSigPublicKey(group, high, config.verification[kKeyQuorum])};
  std::vector<crypto::PartyKeyShare> shares;
  for (int slot = 0; slot < plan.n_new; ++slot) {
    shares.push_back(crypto::PartyKeyShare{crypto::CoinSecretKey(slot, {}),
                                           crypto::ThresholdSigSecretKey(slot, {}),
                                           crypto::ThresholdSigSecretKey(slot, {}),
                                           crypto::Tdh2SecretKey(slot, {}),
                                           crypto::QuorumSigSecretKey(slot, {}),
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
    result_ = apply_dealings(EpochKeys{*group_, old_public_, plan, tag_}, package, new_slot_,
                             [&](int dealer) { return join_keys_.at(dealer); }, &suspected_);
    result_->config = config;
    result_->share_valid = true;
    return true;
  } catch (const ProtocolError&) {
    return false;
  }
}

}  // namespace sintra::protocols
