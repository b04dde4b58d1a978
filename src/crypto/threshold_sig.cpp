#include "crypto/threshold_sig.hpp"


#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace sintra::crypto {

namespace {
constexpr int kChallengeBytes = 16;  // 128-bit Fiat–Shamir challenges
constexpr int kSlackBits = 64;       // statistical hiding slack for responses
const BigInt kPublicExponent(65537);

// Precomputed safe-prime pairs (generated offline, re-verified in tests).
struct PrimePair {
  const char* p;
  const char* q;
};
constexpr PrimePair kRsa128 = {"0xcbb238ed0b80bcc05d1272bcb195c2ab",
                               "0xfc6a87312a8cde7b80fe720bb65521df"};
constexpr PrimePair kRsa256 = {
    "0x8ae6dc1067c0315a91688ea460719bfafa2669cd902a61f828219164074770c7",
    "0xfde5b03a851b5a2ca1b5bb9b3824fd64c3d288751749d2a3ce96d0d82777a933"};
constexpr PrimePair kRsa512 = {
    "0xd8f3d88e06db1b9b3590bdcb235b56c40b0ed3c027ecc49c08eea134ff6ad2e7"
    "4a26d556dace4306555f4415d5e542e15d1e705210b84886d7249e509b7c810b",
    "0xee9844956870c9fb5890681b7adb224748fe51c2715fd187c6b2e350f6b61b1f"
    "4ad2244739279d34d54c38e9b69cfc42b4303571c02b4b2fae67dadf0ac64cc7"};

}  // namespace

BigInt pow_signed(const BigInt& base, const BigInt& exponent, const Montgomery& mont) {
  if (exponent.is_negative()) {
    return mont.pow(BigInt::inverse_mod(base, mont.modulus()), -exponent);
  }
  return mont.pow(base, exponent);
}

BigInt sig_share_challenge(const BigInt& modulus, int unit, const BigInt& v,
                           const BigInt& v_unit, const BigInt& x_squared, const BigInt& share,
                           const BigInt& a1, const BigInt& a2) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(unit));
  w.bytes(modulus.to_bytes());
  w.bytes(v.to_bytes());
  w.bytes(v_unit.to_bytes());
  w.bytes(x_squared.to_bytes());
  w.bytes(share.to_bytes());
  w.bytes(a1.to_bytes());
  w.bytes(a2.to_bytes());
  return BigInt::from_bytes(hash_expand("sintra/tsig/challenge", w.data(), kChallengeBytes));
}

RsaParams RsaParams::precomputed(int prime_bits) {
  const PrimePair* pair = nullptr;
  switch (prime_bits) {
    case 128: pair = &kRsa128; break;
    case 256: pair = &kRsa256; break;
    case 512: pair = &kRsa512; break;
    default: break;
  }
  SINTRA_REQUIRE(pair != nullptr, "RsaParams: no precomputed pair of that size");
  return RsaParams{BigInt::from_string(pair->p), BigInt::from_string(pair->q)};
}

RsaParams RsaParams::generate(Rng& rng, int prime_bits) {
  BigInt p = BigInt::random_safe_prime(rng, static_cast<std::size_t>(prime_bits));
  BigInt q = BigInt::random_safe_prime(rng, static_cast<std::size_t>(prime_bits));
  while (q == p) q = BigInt::random_safe_prime(rng, static_cast<std::size_t>(prime_bits));
  return RsaParams{std::move(p), std::move(q)};
}

void SigShare::encode(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(unit));
  value.encode(w);
  a1.encode(w);
  a2.encode(w);
  response.encode(w);
}

SigShare SigShare::decode(Reader& r) {
  SigShare share;
  share.unit = static_cast<int>(r.u32());
  share.value = BigInt::decode(r);
  share.a1 = BigInt::decode(r);
  share.a2 = BigInt::decode(r);
  share.response = BigInt::decode(r);
  return share;
}

ThresholdSigPublicKey::ThresholdSigPublicKey(BigInt modulus, BigInt e, BigInt v,
                                             std::vector<BigInt> verification,
                                             std::shared_ptr<const LinearScheme> scheme,
                                             std::size_t share_bits)
    : modulus_(std::move(modulus)), e_(std::move(e)), v_(std::move(v)),
      verification_(std::move(verification)), scheme_(std::move(scheme)),
      mont_(std::make_shared<const Montgomery>(modulus_)),
      share_bits_(share_bits == 0 ? modulus_.bit_length() : share_bits) {
  // Responses are bounded by r_max + c_max * d_max; see sign().
  response_bytes_ = (share_bits_ + 8 * kChallengeBytes + kSlackBits) / 8 + 2;
  v_table_ = std::make_shared<const Montgomery::FixedBase>(
      mont_->fixed_base(v_, 8 * response_bytes_));
}

BigInt ThresholdSigPublicKey::hash_to_base(BytesView message) const {
  const std::size_t width = (modulus_.bit_length() + 7) / 8 + 16;
  BigInt x = BigInt::from_bytes(hash_expand("sintra/tsig/base", message, width)).mod(modulus_);
  // gcd(x, Nm) != 1 would factor the modulus; probability is negligible but
  // keep the oracle a total function.
  if (x.is_zero() || !BigInt::gcd(x, modulus_).is_one()) x = BigInt(2);
  return x;
}

std::vector<SigShare> ThresholdSigSecretKey::sign(const ThresholdSigPublicKey& pk,
                                                  BytesView message, Rng& rng) const {
  const BigInt& modulus = pk.modulus();
  const BigInt x = pk.hash_to_base(message);
  const BigInt x_squared = BigInt::mul_mod(x, x, modulus);
  const std::size_t r_bits = pk.share_bits() + 8 * kChallengeBytes + kSlackBits;

  std::vector<SigShare> out;
  out.reserve(unit_shares_.size());
  const Montgomery& mont = pk.mont();
  // One squaring chain for x² serves x²^d and x²^r of every unit held.
  const Montgomery::FixedBase x_squared_table = mont.fixed_base(x_squared, r_bits);
  for (const auto& [unit, d] : unit_shares_) {
    SigShare share;
    share.unit = unit;
    // Reshared shares are signed integers (crypto/reshare.hpp); x² is a
    // unit, so the negative branch inverts cleanly.
    share.value = d.is_negative() ? pow_signed(x_squared, d, mont)
                                  : mont.pow_fixed(x_squared_table, d);

    // z = r + c*d must come out non-negative (verifiers reject negative
    // responses); for a negative d that fails with probability ~2^-64 —
    // redraw r rather than leak the sign through a rejected share.
    for (;;) {
      const BigInt r = BigInt::random_bits(rng, r_bits);
      share.a1 = mont.pow_fixed(*pk.v_table_, r);
      share.a2 = mont.pow_fixed(x_squared_table, r);
      const BigInt c = sig_share_challenge(modulus, unit, pk.v(), pk.verification(unit),
                                           x_squared, share.value, share.a1, share.a2);
      share.response = r + c * d;
      if (!share.response.is_negative()) break;
    }
    out.push_back(std::move(share));
  }
  return out;
}

bool ThresholdSigPublicKey::verify_share(BytesView message, const SigShare& share) const {
  if (share.unit < 0 || share.unit >= scheme_->num_units()) return false;
  if (share.value.is_negative() || share.value.is_zero() || share.value >= modulus_) return false;
  if (share.a1.is_negative() || share.a1.is_zero() || share.a1 >= modulus_) return false;
  if (share.a2.is_negative() || share.a2.is_zero() || share.a2 >= modulus_) return false;
  if (share.response.is_negative() ||
      share.response.to_bytes().size() > response_bytes_) {
    return false;
  }

  const BigInt x = hash_to_base(message);
  const BigInt x_squared = BigInt::mul_mod(x, x, modulus_);
  const BigInt& v_unit = verification_.at(static_cast<std::size_t>(share.unit));
  const BigInt c = sig_share_challenge(modulus_, share.unit, v_, v_unit, x_squared, share.value,
                                       share.a1, share.a2);
  // Batch-invert v_unit and share.value (Montgomery's trick): one extended
  // Euclid pass instead of two, and its failure doubles as the
  // gcd(share.value, Nm) != 1 rejection (v_unit is a unit by construction,
  // so a shared factor can only come from the adversarial share value).
  BigInt inv_prod;
  try {
    inv_prod = BigInt::inverse_mod(BigInt::mul_mod(v_unit, share.value, modulus_), modulus_);
  } catch (const ProtocolError&) {
    return false;
  }
  const BigInt v_unit_inv = BigInt::mul_mod(inv_prod, share.value, modulus_);
  const BigInt value_inv = BigInt::mul_mod(inv_prod, v_unit, modulus_);
  // Check base^z * target^{-c} == a; the negative exponent becomes a
  // positive one on the inverse.  v^z comes from the key's table, so the
  // v equation pays no squaring chain for z, only the 128-bit one for c.
  // x² changes per message, so its equation folds both factors into one
  // simultaneous double exponentiation over the response's squaring chain.
  const BigInt v_side = BigInt::mul_mod(mont_->pow_fixed(*v_table_, share.response),
                                        mont_->pow(v_unit_inv, c), modulus_);
  return v_side == share.a1 &&
         mont_->pow2(x_squared, share.response, value_inv, c) == share.a2;
}

std::optional<BigInt> ThresholdSigPublicKey::combine(BytesView message,
                                                     const std::vector<SigShare>& shares) const {
  PartySet parties = 0;
  std::map<int, BigInt> by_unit;
  for (const SigShare& share : shares) {
    // Unverified shares reach here on the combine-then-verify path; a value
    // outside Z_N* has no inverse to take, so it simply fails to combine.
    if (share.value.is_negative() || share.value.is_zero() || share.value >= modulus_) {
      return std::nullopt;
    }
    by_unit.emplace(share.unit, share.value);
    parties |= party_bit(scheme_->unit_owner(share.unit));
  }
  if (!scheme_->qualified(parties)) return std::nullopt;

  // w = prod x_j^{2 c_j} = x^{4 Delta d} in QR_Nm.
  BigInt w(1);
  for (const auto& [unit, coeff] : scheme_->coefficients(parties)) {
    auto it = by_unit.find(unit);
    // Unverified input can name a party without all of its units; the
    // set it covers is then not the set the coefficients assume.
    if (it == by_unit.end()) return std::nullopt;
    w = BigInt::mul_mod(w, pow_signed(it->second, coeff * BigInt(2), *mont_), modulus_);
  }

  // a * (4 Delta) + b * e = 1; requires gcd(4 Delta, e) = 1, which holds for
  // the prime e = 65537 > any factor of Delta.
  const BigInt four_delta = scheme_->delta() * BigInt(4);
  BigInt a;
  BigInt b;
  const BigInt g = BigInt::extended_gcd(four_delta, e_, a, b);
  SINTRA_INVARIANT(g.is_one(), "tsig: e not coprime to 4*Delta");

  const BigInt x = hash_to_base(message);
  const BigInt y =
      BigInt::mul_mod(pow_signed(w, a, *mont_), pow_signed(x, b, *mont_), modulus_);
  if (!verify(message, y)) return std::nullopt;
  return y;
}

bool ThresholdSigPublicKey::verify(BytesView message, const BigInt& signature) const {
  if (signature.is_negative() || signature.is_zero() || signature >= modulus_) return false;
  return mont_->pow(signature, e_) == hash_to_base(message);
}

ThresholdSigDeal ThresholdSigDeal::deal(const RsaParams& params,
                                        std::shared_ptr<const LinearScheme> scheme, Rng& rng) {
  const BigInt modulus = params.p * params.q;
  const BigInt p_prime = (params.p - BigInt(1)).shifted_right(1);
  const BigInt q_prime = (params.q - BigInt(1)).shifted_right(1);
  const BigInt m = p_prime * q_prime;

  const BigInt e = kPublicExponent;
  const BigInt d = BigInt::inverse_mod(e, m);
  std::vector<BigInt> unit_values = scheme->deal(d, m, rng);

  // QR generator: v = r^2 for random r in Z_Nm*.
  BigInt r = BigInt::random_below(rng, modulus);
  while (r.is_zero() || !BigInt::gcd(r, modulus).is_one()) {
    r = BigInt::random_below(rng, modulus);
  }
  const BigInt v = BigInt::mul_mod(r, r, modulus);

  std::vector<BigInt> verification;
  verification.reserve(unit_values.size());
  for (const BigInt& d_unit : unit_values) {
    verification.push_back(BigInt::pow_mod(v, d_unit, modulus));
  }

  std::vector<ThresholdSigSecretKey> secret_keys;
  secret_keys.reserve(static_cast<std::size_t>(scheme->num_parties()));
  for (int party = 0; party < scheme->num_parties(); ++party) {
    std::map<int, BigInt> held;
    for (int unit : scheme->units_of(party)) {
      held.emplace(unit, unit_values[static_cast<std::size_t>(unit)]);
    }
    secret_keys.emplace_back(party, std::move(held));
  }

  return ThresholdSigDeal{
      ThresholdSigPublicKey(modulus, e, v, std::move(verification), std::move(scheme)),
      std::move(secret_keys)};
}

}  // namespace sintra::crypto
