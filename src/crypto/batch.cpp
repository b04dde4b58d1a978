#include "crypto/batch.hpp"

#include "common/assert.hpp"
#include "crypto/group_curve.hpp"
#include "crypto/nizk.hpp"

namespace sintra::crypto::batch {

namespace {

// Weight length of the small-exponent test.  For the prime-order group the
// acceptance probability of a bad batch is 2^-min(ell, |q|).  For Z_Nm* the
// weights must stay below the prime factors of |QR_Nm| = p'q' so that they
// are invertible mod the (secret) group order; p' and q' are at least
// 127 bits for the smallest supported modulus, so 112-bit weights are safe
// and give 2^-112 soundness per batch attempt.
constexpr std::size_t kGroupWeightBits = 128;
constexpr std::size_t kRsaWeightBits = 112;

// Discrete-log proof sets below the backend's crossover verify one proof
// at a time (bench_e7 BM_CoinVerifyShareSet, 4-CPU EPYC VM, medians of 8,
// batched vs one at a time over one coin base).  On secp256k1 a single
// check runs both bases on comb tables while the batch walks every
// commitment on the variable-base chain, so up to four proofs the two are
// within about 10% either way and the batch wins from six (2: 609 vs
// 557 us, 3: 789 vs 910 us, 4: 1.29 vs 1.22 ms, 6: 1.42 vs 1.72 ms).  The Schnorr backends' exp2 is one pow2
// with no tables, so the shared squaring chain pays from two proofs
// (production 768-bit 2: 1.01 vs 1.55 ms, 3: 1.31 vs 2.09 ms; test group
// 2: 108 vs 122 us).
constexpr std::size_t kMinCurveDlBatch = 4;
constexpr std::size_t kMinSchnorrDlBatch = 2;

/// True iff `count` discrete-log proofs on `group` go through one batch.
bool batches(const Group& group, std::size_t count) {
  const bool curve = dynamic_cast<const EcGroup*>(&group) != nullptr;
  return count >= (curve ? kMinCurveDlBatch : kMinSchnorrDlBatch);
}

/// True iff `strict(i)` holds for every i < count.
template <typename StrictOk>
bool each_ok(std::size_t count, const StrictOk& strict) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!strict(i)) return false;
  }
  return true;
}

/// One prepared verification equation over batch-shared bases (g1, g2):
///   g1^z == a1 * h1^c   and   g2^z == a2 * h2^c.
/// `ok` is false when the item failed its structural pre-checks (range,
/// subgroup membership) and can never verify.
struct DleqEquation {
  bool ok = false;
  Element h1;
  Element h2;
  Element a1;
  Element a2;
  BigInt c;
  BigInt z;
};

bool check_dleq_equations(const Group& group, const Element& g1, const Element& g2,
                          const std::vector<const DleqEquation*>& eqs, Rng& rng) {
  for (const DleqEquation* eq : eqs) {
    if (!eq->ok) return false;
  }
  if (eqs.empty()) return true;
  // Random linear combination with independent weights per equation:
  //   g1^{sum z r} * g2^{sum z r'}
  //     == prod a1^{r} * h1^{c r} * a2^{r'} * h2^{c r'}
  // checked as one multi-exponentiation against the identity, so g1 and
  // registered h1 keys stay on their fixed-base tables (Group::multi_exp).
  BigInt lhs1(0);
  BigInt lhs2(0);
  std::vector<std::pair<Element, BigInt>> rhs;
  rhs.reserve(4 * eqs.size() + 2);
  for (const DleqEquation* eq : eqs) {
    const BigInt r = BigInt::random_bits(rng, kGroupWeightBits);
    const BigInt r2 = BigInt::random_bits(rng, kGroupWeightBits);
    lhs1 = group.scalar_add(lhs1, group.scalar_mul(eq->z, r));
    lhs2 = group.scalar_add(lhs2, group.scalar_mul(eq->z, r2));
    rhs.emplace_back(eq->a1, r);
    rhs.emplace_back(eq->h1, group.scalar_mul(eq->c, r));
    rhs.emplace_back(eq->a2, r2);
    rhs.emplace_back(eq->h2, group.scalar_mul(eq->c, r2));
  }
  rhs.emplace_back(g1, group.scalar_sub(BigInt(0), lhs1));
  rhs.emplace_back(g2, group.scalar_sub(BigInt(0), lhs2));
  return group.multi_exp(rhs) == group.identity();
}

std::vector<const DleqEquation*> all_of(const std::vector<DleqEquation>& eqs) {
  std::vector<const DleqEquation*> out;
  out.reserve(eqs.size());
  for (const DleqEquation& eq : eqs) out.push_back(&eq);
  return out;
}

DleqEquation prepare_dleq(const Group& group, std::string_view context, const Element& g1,
                          const Element& h1, const Element& g2, const Element& h2,
                          const DleqProof& proof) {
  DleqEquation eq;
  if (!group.is_scalar(proof.z)) return eq;
  if (!group.is_residue(proof.a1) || !group.is_residue(proof.a2)) return eq;
  if (!group.is_element(h1) || !group.is_element(h2)) return eq;
  eq.ok = true;
  eq.h1 = h1;
  eq.h2 = h2;
  eq.a1 = proof.a1;
  eq.a2 = proof.a2;
  eq.c = dleq_challenge(group, context, g1, h1, g2, h2, proof.a1, proof.a2);
  eq.z = proof.z;
  return eq;
}

std::vector<DleqEquation> prepare_coin(const CoinPublicKey& pk, const Element& base,
                                       const std::vector<CoinShare>& shares) {
  const Group& group = pk.group();
  std::vector<DleqEquation> eqs;
  eqs.reserve(shares.size());
  for (const CoinShare& share : shares) {
    if (share.unit < 0 || share.unit >= pk.scheme().num_units()) {
      eqs.emplace_back();
      continue;
    }
    eqs.push_back(prepare_dleq(group, coin_share_context(share.unit), group.g(),
                               pk.verification(share.unit), base, share.value, share.proof));
  }
  return eqs;
}

std::vector<DleqEquation> prepare_dec(const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
                                      const std::vector<Tdh2DecShare>& shares) {
  const Group& group = pk.group();
  const Bytes ct_id = ct.id(group);
  std::vector<DleqEquation> eqs;
  eqs.reserve(shares.size());
  for (const Tdh2DecShare& share : shares) {
    if (share.unit < 0 || share.unit >= pk.scheme().num_units()) {
      eqs.emplace_back();
      continue;
    }
    eqs.push_back(prepare_dleq(group, tdh2_share_context(share.unit, ct_id), group.g(),
                               pk.verification(share.unit), ct.u, share.value, share.proof));
  }
  return eqs;
}

}  // namespace

bool verify_coin_shares(const CoinPublicKey& pk, BytesView name,
                        const std::vector<CoinShare>& shares, Rng& rng) {
  if (shares.empty()) return true;
  const Element base = pk.coin_base(name);
  if (!batches(pk.group(), shares.size())) {
    return each_ok(shares.size(),
                   [&](std::size_t i) { return pk.verify_share_at(base, shares[i]); });
  }
  const std::vector<DleqEquation> eqs = prepare_coin(pk, base, shares);
  return check_dleq_equations(pk.group(), pk.group().g(), base, all_of(eqs), rng);
}

bool verify_dec_shares(const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
                       const std::vector<Tdh2DecShare>& shares, Rng& rng) {
  if (!batches(pk.group(), shares.size())) {
    return each_ok(shares.size(), [&](std::size_t i) { return pk.verify_share(ct, shares[i]); });
  }
  const std::vector<DleqEquation> eqs = prepare_dec(pk, ct, shares);
  return check_dleq_equations(pk.group(), pk.group().g(), ct.u, all_of(eqs), rng);
}

namespace {

/// Prepared threshold-RSA share equation:
///   v^z == a1 * v_unit^c   and   x2^z == a2 * value^c   (mod Nm)
/// kept in positive-exponent two-sided form (no inverses exist cheaply in
/// the unknown-order group).
struct SigEquation {
  bool ok = false;
  BigInt v_unit;
  BigInt value;
  BigInt a1;
  BigInt a2;
  BigInt c;
  BigInt z;
};

SigEquation prepare_sig(const ThresholdSigPublicKey& pk, const BigInt& x_squared,
                        const SigShare& share) {
  const BigInt& modulus = pk.modulus();
  SigEquation eq;
  const auto in_range = [&](const BigInt& a) {
    return !a.is_negative() && !a.is_zero() && a < modulus;
  };
  if (share.unit < 0 || share.unit >= pk.scheme().num_units()) return eq;
  if (!in_range(share.value) || !in_range(share.a1) || !in_range(share.a2)) return eq;
  if (share.response.is_negative() || share.response.to_bytes().size() > pk.response_bytes()) {
    return eq;
  }
  eq.ok = true;
  eq.v_unit = pk.verification(share.unit);
  eq.value = share.value;
  eq.a1 = share.a1;
  eq.a2 = share.a2;
  eq.c = sig_share_challenge(modulus, share.unit, pk.v(), eq.v_unit, x_squared, share.value,
                             share.a1, share.a2);
  eq.z = share.response;
  return eq;
}

/// `x_squared` is the statement base of every equation.  One shared
/// squaring chain covers the long accumulated exponents of v and x^2; a
/// second covers the short per-share terms.
bool check_sig_equations(const ThresholdSigPublicKey& pk, const BigInt& x_squared,
                         const std::vector<const SigEquation*>& eqs, Rng& rng) {
  for (const SigEquation* eq : eqs) {
    if (!eq->ok) return false;
  }
  if (eqs.empty()) return true;
  const Montgomery& mont = pk.mont();
  BigInt acc_v(0);
  BigInt acc_x(0);
  std::vector<std::pair<BigInt, BigInt>> rhs;
  rhs.reserve(4 * eqs.size());
  for (const SigEquation* eq : eqs) {
    const BigInt r = BigInt::random_bits(rng, kRsaWeightBits);
    const BigInt r2 = BigInt::random_bits(rng, kRsaWeightBits);
    acc_v = acc_v + eq->z * r;
    acc_x = acc_x + eq->z * r2;
    rhs.emplace_back(eq->a1, r);
    rhs.emplace_back(eq->v_unit, eq->c * r);
    rhs.emplace_back(eq->a2, r2);
    rhs.emplace_back(eq->value, eq->c * r2);
  }
  const std::vector<std::pair<BigInt, BigInt>> lhs = {{pk.v(), std::move(acc_v)},
                                                      {x_squared, std::move(acc_x)}};
  return mont.multi_pow(lhs) == mont.multi_pow(rhs);
}

/// Recursive bisection: ranges that batch-verify are clean; single-share
/// leaves fall back to the strict individual verifier.
template <typename BatchOk, typename StrictOk>
void bisect(std::size_t lo, std::size_t hi, const BatchOk& batch_ok, const StrictOk& strict_ok,
            std::vector<std::size_t>& out) {
  if (lo >= hi) return;
  if (hi - lo == 1) {
    if (!strict_ok(lo)) out.push_back(lo);
    return;
  }
  if (batch_ok(lo, hi)) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  bisect(lo, mid, batch_ok, strict_ok, out);
  bisect(mid, hi, batch_ok, strict_ok, out);
}

/// `shares` without the `bad` ones and without any other share of their
/// senders: the combiner needs complete per-party unit sets, and a sender
/// who faked one share forfeits its others.
std::vector<SigShare> without_culprits(const LinearScheme& scheme,
                                       const std::vector<SigShare>& shares,
                                       const std::vector<std::size_t>& bad) {
  PartySet culprits = 0;
  for (std::size_t i : bad) {
    const int unit = shares[i].unit;
    if (unit >= 0 && unit < scheme.num_units()) culprits |= party_bit(scheme.unit_owner(unit));
  }
  std::vector<SigShare> good;
  good.reserve(shares.size());
  std::size_t next_bad = 0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const bool listed = next_bad < bad.size() && bad[next_bad] == i;
    if (listed) ++next_bad;
    if (listed || contains(culprits, scheme.unit_owner(shares[i].unit))) continue;
    good.push_back(shares[i]);
  }
  return good;
}

BigInt statement_base(const ThresholdSigPublicKey& pk, BytesView message) {
  const BigInt x = pk.hash_to_base(message);
  return BigInt::mul_mod(x, x, pk.modulus());
}

}  // namespace

bool verify_sig_shares(const ThresholdSigPublicKey& pk, BytesView message,
                       const std::vector<SigShare>& shares, Rng& rng) {
  if (shares.size() == 1) return pk.verify_share(message, shares[0]);
  if (shares.empty()) return true;
  const BigInt x_squared = statement_base(pk, message);
  std::vector<SigEquation> eqs;
  eqs.reserve(shares.size());
  for (const SigShare& share : shares) eqs.push_back(prepare_sig(pk, x_squared, share));
  std::vector<const SigEquation*> refs;
  refs.reserve(eqs.size());
  for (const SigEquation& eq : eqs) refs.push_back(&eq);
  return check_sig_equations(pk, x_squared, refs, rng);
}

std::vector<std::size_t> find_invalid_sig_shares(const ThresholdSigPublicKey& pk,
                                                 BytesView message,
                                                 const std::vector<SigShare>& shares, Rng& rng) {
  const BigInt x_squared = statement_base(pk, message);
  std::vector<SigEquation> eqs;
  eqs.reserve(shares.size());
  for (const SigShare& share : shares) eqs.push_back(prepare_sig(pk, x_squared, share));
  std::vector<std::size_t> bad;
  bisect(
      0, eqs.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<const SigEquation*> range;
        range.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) range.push_back(&eqs[i]);
        return check_sig_equations(pk, x_squared, range, rng);
      },
      [&](std::size_t i) { return pk.verify_share(message, shares[i]); }, bad);
  return bad;
}

CombineResult combine_sig_optimistic(const ThresholdSigPublicKey& pk, BytesView message,
                                     const std::vector<SigShare>& shares, Rng& rng) {
  CombineResult result;
  // Combining is cheap relative to verifying shares (Lagrange-in-the-
  // exponent plus one e = 65537 check), so try the unverified set first.
  result.value = pk.combine(message, shares);
  if (result.value) return result;
  result.bad = find_invalid_sig_shares(pk, message, shares, rng);
  if (result.bad.empty()) return result;  // unqualified set, nothing to blame
  const auto good = without_culprits(pk.scheme(), shares, result.bad);
  if (!good.empty()) result.value = pk.combine(message, good);
  return result;
}

}  // namespace sintra::crypto::batch
