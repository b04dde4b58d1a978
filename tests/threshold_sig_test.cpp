// Threshold RSA signature tests (Shoup's scheme): share validity,
// combination, robustness, dual thresholds, and the generalized-structure
// instantiation used for protocol certificates.
#include <gtest/gtest.h>

#include "adversary/examples.hpp"
#include "crypto/reshare.hpp"
#include "crypto/shamir.hpp"
#include "crypto/share_tally.hpp"
#include "crypto/threshold_sig.hpp"

namespace sintra::crypto {
namespace {

class ThresholdSigTest : public ::testing::Test {
 protected:
  ThresholdSigTest()
      : rng_(123),
        deal_(ThresholdSigDeal::deal(RsaParams::precomputed(128),
                                     std::make_shared<ThresholdScheme>(5, 1), rng_)) {}

  std::vector<SigShare> shares_for(BytesView message, std::initializer_list<int> parties) {
    std::vector<SigShare> out;
    for (int p : parties) {
      for (auto& s : deal_.secret_keys[static_cast<std::size_t>(p)].sign(deal_.public_key,
                                                                         message, rng_)) {
        out.push_back(s);
      }
    }
    return out;
  }

  Rng rng_;
  ThresholdSigDeal deal_;
};

TEST_F(ThresholdSigTest, PrecomputedParamsAreSafePrimes) {
  Rng rng(1);
  for (int bits : {128, 256, 512}) {
    RsaParams params = RsaParams::precomputed(bits);
    EXPECT_TRUE(params.p.is_probable_prime(rng));
    EXPECT_TRUE(params.q.is_probable_prime(rng));
    EXPECT_TRUE(((params.p - BigInt(1)).shifted_right(1)).is_probable_prime(rng));
    EXPECT_TRUE(((params.q - BigInt(1)).shifted_right(1)).is_probable_prime(rng));
    EXPECT_EQ(params.p.bit_length(), static_cast<std::size_t>(bits));
  }
  EXPECT_THROW(RsaParams::precomputed(100), ProtocolError);
}

TEST_F(ThresholdSigTest, SharesVerify) {
  Bytes message = bytes_of("sign me");
  for (const auto& share : shares_for(message, {0, 1, 2, 3, 4})) {
    EXPECT_TRUE(deal_.public_key.verify_share(message, share));
  }
}

TEST_F(ThresholdSigTest, CombineAndVerify) {
  Bytes message = bytes_of("attack at dawn");
  auto sig = deal_.public_key.combine(message, shares_for(message, {0, 1}));
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(deal_.public_key.verify(message, *sig));
  EXPECT_FALSE(deal_.public_key.verify(bytes_of("attack at dusk"), *sig));
}

TEST_F(ThresholdSigTest, DisjointSubsetsProduceVerifyingSignatures) {
  Bytes message = bytes_of("consistent");
  auto a = deal_.public_key.combine(message, shares_for(message, {0, 1}));
  auto b = deal_.public_key.combine(message, shares_for(message, {2, 3}));
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(deal_.public_key.verify(message, *a));
  EXPECT_TRUE(deal_.public_key.verify(message, *b));
  // RSA signatures are unique: both subsets yield the same signature.
  EXPECT_EQ(*a, *b);
}

TEST_F(ThresholdSigTest, UnqualifiedSetFails) {
  Bytes message = bytes_of("too few");
  EXPECT_FALSE(deal_.public_key.combine(message, shares_for(message, {0})).has_value());
}

TEST_F(ThresholdSigTest, TamperedShareFieldsRejected) {
  Bytes message = bytes_of("robust");
  const SigShare share = shares_for(message, {3})[0];
  const BigInt& modulus = deal_.public_key.modulus();
  ASSERT_TRUE(deal_.public_key.verify_share(message, share));
  SigShare bad_value = share;
  bad_value.value = BigInt::mul_mod(share.value, BigInt(2), modulus);
  SigShare bad_a1 = share;
  bad_a1.a1 = BigInt::mul_mod(share.a1, BigInt(2), modulus);
  SigShare bad_a2 = share;
  bad_a2.a2 = BigInt::mul_mod(share.a2, BigInt(2), modulus);
  SigShare bad_response = share;
  bad_response.response = share.response + BigInt(1);
  // A share under the wrong secret, whose proof is consistent on the x^2
  // side: only the v equation can reject it.
  const BigInt& d = deal_.secret_keys[3].unit_shares().at(3);
  SigShare wrong_secret =
      ThresholdSigSecretKey(3, {{3, d + BigInt(1)}}).sign(deal_.public_key, message, rng_)[0];
  for (const SigShare* bad : {&bad_value, &bad_a1, &bad_a2, &bad_response, &wrong_secret}) {
    EXPECT_FALSE(deal_.public_key.verify_share(message, *bad));
  }
}

TEST_F(ThresholdSigTest, ShareForOtherMessageRejected) {
  Bytes m1 = bytes_of("message one");
  Bytes m2 = bytes_of("message two");
  auto shares = shares_for(m1, {2});
  EXPECT_FALSE(deal_.public_key.verify_share(m2, shares[0]));
}

TEST_F(ThresholdSigTest, OversizedProofFieldsRejected) {
  Bytes message = bytes_of("bounds");
  auto shares = shares_for(message, {0});
  SigShare bad = shares[0];
  bad.a1 = deal_.public_key.modulus() + BigInt(1);  // commitment out of range
  EXPECT_FALSE(deal_.public_key.verify_share(message, bad));
  SigShare bad2 = shares[0];
  bad2.response = BigInt(1).shifted_left(4096);
  EXPECT_FALSE(deal_.public_key.verify_share(message, bad2));
  SigShare bad3 = shares[0];
  bad3.unit = 77;
  EXPECT_FALSE(deal_.public_key.verify_share(message, bad3));
  SigShare bad4 = shares[0];
  bad4.a2 = BigInt(0);
  EXPECT_FALSE(deal_.public_key.verify_share(message, bad4));
}

TEST_F(ThresholdSigTest, ResponseOneByteWiderRejectedByWidthBoundAlone) {
  Bytes message = bytes_of("width bound");
  const SigShare share = shares_for(message, {1})[0];
  const ThresholdSigPublicKey& pk = deal_.public_key;
  // v and x^2 lie in QR_N, whose order is m = p'q', so a response shifted
  // by any multiple of m satisfies both proof equations.
  const RsaParams params = RsaParams::precomputed(128);
  const BigInt order =
      (params.p - BigInt(1)).shifted_right(1) * (params.q - BigInt(1)).shifted_right(1);
  SigShare shifted = share;
  shifted.response = share.response + order;
  ASSERT_LE(shifted.response.to_bytes().size(), pk.response_bytes());
  EXPECT_TRUE(pk.verify_share(message, shifted));
  // So a response one byte over the bound can only be rejected by the width
  // check that runs before any exponentiation.
  SigShare wide = share;
  const BigInt past_bound = BigInt(1).shifted_left(8 * pk.response_bytes());
  wide.response = share.response + order * (past_bound / order + BigInt(1));
  ASSERT_EQ(wide.response.to_bytes().size(), pk.response_bytes() + 1);
  EXPECT_FALSE(pk.verify_share(message, wide));
}

TEST_F(ThresholdSigTest, ForgedSignatureRejected) {
  Bytes message = bytes_of("forge me");
  EXPECT_FALSE(deal_.public_key.verify(message, BigInt(12345)));
  EXPECT_FALSE(deal_.public_key.verify(message, BigInt(0)));
  EXPECT_FALSE(deal_.public_key.verify(message, deal_.public_key.modulus()));
}

TEST_F(ThresholdSigTest, SerializationRoundTrip) {
  Bytes message = bytes_of("serialize");
  auto shares = shares_for(message, {3});
  Writer w;
  shares[0].encode(w);
  Reader r(w.data());
  SigShare decoded = SigShare::decode(r);
  r.expect_done();
  EXPECT_TRUE(deal_.public_key.verify_share(message, decoded));
}

TEST(ThresholdSigDualTest, HighThresholdScheme) {
  // The certificate key uses the n−t threshold: with n = 7, t = 2 any 5
  // combine and 4 do not — the quorum-certificate semantics of the stack.
  Rng rng(5);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(128),
                                     std::make_shared<ThresholdScheme>(7, 4), rng);
  Bytes message = bytes_of("quorum cert");
  std::vector<SigShare> shares;
  for (int p = 0; p < 5; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].sign(deal.public_key, message,
                                                                      rng)) {
      shares.push_back(s);
    }
  }
  std::vector<SigShare> four(shares.begin(), shares.begin() + 4);
  EXPECT_FALSE(deal.public_key.combine(message, four).has_value());
  auto sig = deal.public_key.combine(message, shares);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(deal.public_key.verify(message, *sig));
}

TEST(ThresholdSigGeneralTest, WorksOverExample1QuorumLsss) {
  // Certificate signatures over the generalized quorum structure of
  // Example 1: P ∖ S for S ∈ A* qualifies, a corruptible set does not.
  Rng rng(9);
  auto structure = adversary::example1_access().to_adversary_structure(9);
  auto scheme = std::make_shared<adversary::LsssScheme>(
      adversary::Formula::quorum_formula(structure), 9);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(128), scheme, rng);
  Bytes message = bytes_of("general cert");

  auto sign_set = [&](std::vector<int> parties) {
    std::vector<SigShare> out;
    for (int p : parties) {
      for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].sign(deal.public_key,
                                                                        message, rng)) {
        EXPECT_TRUE(deal.public_key.verify_share(message, s));
        out.push_back(s);
      }
    }
    return out;
  };

  // Complement of the class-a set {0,1,2,3}: a legitimate quorum.
  auto sig = deal.public_key.combine(message, sign_set({4, 5, 6, 7, 8}));
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(deal.public_key.verify(message, *sig));
  // Complement of a pair: also a quorum.
  auto sig2 = deal.public_key.combine(message, sign_set({0, 1, 2, 3, 6, 7, 8}));
  ASSERT_TRUE(sig2.has_value());
  EXPECT_EQ(*sig, *sig2);  // RSA uniqueness across recombination sets
  // The class-a set itself: corruptible, cannot certify.
  EXPECT_FALSE(deal.public_key.combine(message, sign_set({0, 1, 2, 3})).has_value());
}

TEST(ThresholdSigGeneralTest, Example2MultiUnitKeySignsVerifiesAndCombines) {
  // Under Example 2 every party holds several units of the cert key; one
  // sign call covers all of them from one x^2 table.
  Rng rng(11);
  const auto deployment = adversary::example2_deployment(rng);
  const ThresholdSigPublicKey& pk = deployment.keys->public_keys().cert_sig;
  const Bytes message = bytes_of("example 2 cert");
  // Every server outside location 0 and outside OS 0: the complement of a
  // corruptible set, hence a quorum.
  std::vector<SigShare> shares;
  for (int location = 1; location < 4; ++location) {
    for (int os = 1; os < 4; ++os) {
      const int party = adversary::example2_party(location, os);
      const auto own = deployment.keys->share(party).cert_sig.sign(pk, message, rng);
      EXPECT_GT(own.size(), 1u);
      EXPECT_TRUE(covers_own_units(pk.scheme(), party, own));
      for (const SigShare& share : own) {
        EXPECT_TRUE(pk.verify_share(message, share)) << "party " << party << " unit "
                                                     << share.unit;
        shares.push_back(share);
      }
    }
  }
  const auto sig = pk.combine(message, shares);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(pk.verify(message, *sig));
}

TEST(ThresholdSigGeneralTest, Example2CombineMissingOneOfANeededSignersUnitsIsNullopt) {
  // A qualified Example 2 set in which signer 15's nine units are needed
  // but one is missing combines to nullopt, never an invariant.
  Rng rng(29);
  const auto deployment = adversary::example2_deployment(rng);
  const ThresholdSigPublicKey& pk = deployment.keys->public_keys().cert_sig;
  constexpr int kSigner = 15;
  ASSERT_EQ(pk.scheme().units_of(kSigner).size(), 9u);
  const Bytes message = bytes_of("certify me");
  PartySet others = 0;
  for (int i = 0; i < deployment.n(); ++i) {
    if (i != kSigner) others |= party_bit(i);
  }
  for (int i = 0; i < deployment.n(); ++i) {  // shrink to a set that needs the signer
    const PartySet without = others & ~party_bit(i);
    if (pk.scheme().qualified(without | party_bit(kSigner))) others = without;
  }
  ASSERT_FALSE(pk.scheme().qualified(others));
  std::vector<SigShare> shares;
  Rng sign_rng(37);
  for (int i : set_members(others | party_bit(kSigner))) {
    for (SigShare& s : deployment.keys->share(i).cert_sig.sign(pk, message, sign_rng)) {
      shares.push_back(std::move(s));
    }
  }
  ASSERT_TRUE(pk.combine(message, shares).has_value());
  int unsigned_sets = 0;
  for (std::size_t drop = 0; drop < shares.size(); ++drop) {
    if (pk.scheme().unit_owner(shares[drop].unit) != kSigner) continue;
    std::vector<SigShare> partial = shares;
    partial.erase(partial.begin() + static_cast<std::ptrdiff_t>(drop));
    std::optional<BigInt> sigma;
    EXPECT_NO_THROW(sigma = pk.combine(message, partial));
    if (!sigma.has_value()) ++unsigned_sets;
  }
  EXPECT_GT(unsigned_sets, 0);
}

TEST(ThresholdSigReshareTest, NegativeReshareSharesSignVerifyAndCombine) {
  // Dealers 2 and 3 of a (4, 1) key reshare to a (5, 1) committee.  The new
  // shares are signed integers wider than the modulus, and under this seed
  // negative: sign must take pow_signed for them, and verify_share must
  // accept the responses of the grown share_bits from the key's v table.
  Rng rng(6);
  auto scheme = std::make_shared<const ThresholdScheme>(4, 1);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(128), scheme, rng);
  const ThresholdSigPublicKey& pk = deal.public_key;
  const std::vector<int> dealers = {2, 3};
  const std::size_t coeff_bits = rsa_reshare_coeff_bits(pk.modulus().bit_length());
  std::vector<std::vector<BigInt>> commitments;
  std::vector<RsaReshareDealing> dealings;
  for (int j : dealers) {
    dealings.push_back(RsaReshareDealing::deal(
        deal.secret_keys[static_cast<std::size_t>(j)].unit_shares().at(j), pk.verification(j),
        coeff_bits, 5, 1, pk.v(), pk.mont(), rng));
    commitments.push_back(dealings.back().commitments);
  }
  auto scaled = std::make_shared<const ScaledScheme>(
      std::make_shared<const ThresholdScheme>(5, 1), scheme->delta());
  const ThresholdSigPublicKey new_pk(
      pk.modulus(), pk.exponent(), pk.v(),
      rsa_new_verification(dealers, commitments, 5, scheme->delta(), pk.mont()), scaled,
      rsa_reshare_share_bits(coeff_bits, 4, 1, 5, 1));
  ASSERT_GT(new_pk.share_bits(), pk.modulus().bit_length());

  const Bytes message = bytes_of("after the epoch");
  std::vector<std::vector<SigShare>> by_slot;
  for (std::size_t slot = 0; slot < 5; ++slot) {
    std::vector<BigInt> subshares;
    for (const auto& dealing : dealings) subshares.push_back(dealing.subshares[slot]);
    const BigInt d = rsa_combine_subshares(dealers, subshares, scheme->delta());
    EXPECT_TRUE(d.is_negative()) << "slot " << slot;
    EXPECT_LE(d.bit_length(), new_pk.share_bits());
    const int unit = static_cast<int>(slot);
    by_slot.push_back(ThresholdSigSecretKey(unit, {{unit, d}}).sign(new_pk, message, rng));
    for (const SigShare& share : by_slot.back()) {
      EXPECT_TRUE(new_pk.verify_share(message, share)) << "slot " << slot;
    }
  }
  // Two disjoint pairs combine into the same signature under the ORIGINAL key.
  auto pair_of = [&](std::size_t a, std::size_t b) {
    std::vector<SigShare> shares = by_slot[a];
    shares.insert(shares.end(), by_slot[b].begin(), by_slot[b].end());
    return new_pk.combine(message, shares);
  };
  const auto sig = pair_of(0, 1);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(pk.verify(message, *sig));
  EXPECT_EQ(pair_of(3, 4), sig);
}

TEST(ThresholdSigGenerateTest, FreshSafePrimesWork) {
  // End-to-end with generated (small) safe primes instead of precomputed.
  Rng rng(17);
  RsaParams params = RsaParams::generate(rng, 96);
  auto deal =
      ThresholdSigDeal::deal(params, std::make_shared<ThresholdScheme>(4, 1), rng);
  Bytes message = bytes_of("fresh params");
  std::vector<SigShare> shares;
  for (int p = 0; p < 2; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].sign(deal.public_key, message,
                                                                      rng)) {
      shares.push_back(s);
    }
  }
  auto sig = deal.public_key.combine(message, shares);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(deal.public_key.verify(message, *sig));
}

}  // namespace
}  // namespace sintra::crypto
