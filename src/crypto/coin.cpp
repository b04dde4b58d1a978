#include "crypto/coin.hpp"

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace sintra::crypto {

namespace {
constexpr std::string_view kCoinBaseDomain = "sintra/coin/base";
constexpr std::string_view kCoinOutDomain = "sintra/coin/out";

}  // namespace

std::string coin_share_context(int unit) {
  return "coin-share/" + std::to_string(unit);
}

void CoinShare::encode(Writer& w, const Group& group) const {
  w.u32(static_cast<std::uint32_t>(unit));
  group.encode_element(w, value);
  proof.encode(w, group);
}

CoinShare CoinShare::decode(Reader& r, const Group& group) {
  CoinShare share;
  share.unit = static_cast<int>(r.u32());
  share.value = group.decode_element(r);
  share.proof = DleqProof::decode(r, group);
  return share;
}

std::vector<CoinShare> CoinSecretKey::share(const CoinPublicKey& pk, BytesView name,
                                            Rng& rng) const {
  const Group& group = pk.group();
  const Element base = pk.coin_base(name);
  std::vector<CoinShare> out;
  out.reserve(unit_shares_.size());
  for (const auto& [unit, x] : unit_shares_) {
    CoinShare share;
    share.unit = unit;
    share.value = group.exp(base, x);
    share.proof = DleqProof::prove(group, coin_share_context(unit), group.g(), pk.verification(unit),
                                   base, share.value, x, rng);
    out.push_back(std::move(share));
  }
  return out;
}

Element CoinPublicKey::coin_base(BytesView name) const {
  return group_->hash_to_element(kCoinBaseDomain, name);
}

bool CoinPublicKey::verify_share(BytesView name, const CoinShare& share) const {
  return verify_share_at(coin_base(name), share);
}

bool CoinPublicKey::verify_share_at(const Element& base, const CoinShare& share) const {
  if (share.unit < 0 || share.unit >= scheme_->num_units()) return false;
  return share.proof.verify(*group_, coin_share_context(share.unit), group_->g(),
                            verification_.at(static_cast<std::size_t>(share.unit)), base,
                            share.value);
}

std::optional<Bytes> CoinPublicKey::combine(BytesView name,
                                            const std::vector<CoinShare>& shares) const {
  PartySet parties = 0;
  std::map<int, Element> by_unit;
  for (const CoinShare& share : shares) {
    by_unit.emplace(share.unit, share.value);
    parties |= party_bit(scheme_->unit_owner(share.unit));
  }
  if (!scheme_->qualified(parties)) return std::nullopt;

  // Recombine in the exponent: prod sigma_j^{c_j} = base^{Delta * x}, then
  // clear Delta modulo the group order.  One simultaneous multi-exponent
  // shares the squaring chain across all shares.
  std::vector<std::pair<Element, BigInt>> powers;
  for (const auto& [unit, coeff] : scheme_->coefficients(parties)) {
    auto it = by_unit.find(unit);
    SINTRA_INVARIANT(it != by_unit.end(), "coin: coefficient for missing share");
    powers.emplace_back(it->second, coeff);
  }
  const Element combined = group_->multi_exp(powers);
  const BigInt delta_inv = group_->scalar_inv(scheme_->delta().mod(group_->q()));
  const Element sigma = group_->exp(combined, delta_inv);

  Writer w;
  w.bytes(name);
  group_->encode_element(w, sigma);
  Digest digest = hash_domain(kCoinOutDomain, w.data());
  return Bytes(digest.begin(), digest.end());
}

bool CoinPublicKey::coin_bit(BytesView coin_value) {
  SINTRA_REQUIRE(!coin_value.empty(), "coin: empty value");
  return coin_value[0] & 1;
}

CoinDeal CoinDeal::deal(GroupPtr group, std::shared_ptr<const LinearScheme> scheme, Rng& rng) {
  const BigInt secret = BigInt::random_below(rng, group->q());
  std::vector<BigInt> unit_values = scheme->deal(secret, group->q(), rng);

  std::vector<Element> verification;
  verification.reserve(unit_values.size());
  for (const BigInt& x : unit_values) verification.push_back(group->exp_g(x));

  std::vector<CoinSecretKey> secret_keys;
  secret_keys.reserve(static_cast<std::size_t>(scheme->num_parties()));
  for (int party = 0; party < scheme->num_parties(); ++party) {
    std::map<int, BigInt> held;
    for (int unit : scheme->units_of(party)) {
      held.emplace(unit, unit_values[static_cast<std::size_t>(unit)]);
    }
    secret_keys.emplace_back(party, std::move(held));
  }

  return CoinDeal{CoinPublicKey(std::move(group), std::move(scheme), std::move(verification)),
                  std::move(secret_keys)};
}

}  // namespace sintra::crypto
