// Group backend tests.  The backend-generic suite runs identically over all
// four singletons (three Schnorr parameter sets + secp256k1) through the
// abstract interface; the Schnorr-specific suite re-verifies the hard-coded
// parameter sets and the Z_p* representation details.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/group.hpp"
#include "crypto/group_curve.hpp"
#include "crypto/group_schnorr.hpp"

namespace sintra::crypto {
namespace {

class GroupBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] GroupPtr group() const { return Group::by_name(GetParam()); }
};

TEST_P(GroupBackendTest, GeneratorIsMember) {
  GroupPtr g = group();
  EXPECT_TRUE(g->is_element(g->g()));
  EXPECT_NE(g->g(), g->identity());
}

TEST_P(GroupBackendTest, ExponentiationLaws) {
  GroupPtr g = group();
  Rng rng(2);
  BigInt a = g->random_scalar(rng);
  BigInt b = g->random_scalar(rng);
  // g^(a+b) = g^a * g^b
  EXPECT_EQ(g->exp_g(g->scalar_add(a, b)), g->mul(g->exp_g(a), g->exp_g(b)));
  // (g^a)^b = (g^b)^a
  EXPECT_EQ(g->exp(g->exp_g(a), b), g->exp(g->exp_g(b), a));
  // g^0 = identity
  EXPECT_EQ(g->exp_g(BigInt(0)), g->identity());
  // g^q = identity (generator has order q)
  EXPECT_EQ(g->exp(g->g(), g->q()), g->identity());
}

TEST_P(GroupBackendTest, InverseAndIdentity) {
  GroupPtr g = group();
  Rng rng(3);
  Element a = g->exp_g(g->random_scalar(rng));
  EXPECT_EQ(g->mul(a, g->inv(a)), g->identity());
  EXPECT_EQ(g->mul(a, g->identity()), a);
  EXPECT_TRUE(g->is_element(g->identity()));
}

TEST_P(GroupBackendTest, Exp2MatchesSeparateExps) {
  GroupPtr g = group();
  Rng rng(6);
  Element b1 = g->exp_g(g->random_scalar(rng));
  Element b2 = g->exp_g(g->random_scalar(rng));
  BigInt e1 = g->random_scalar(rng);
  BigInt e2 = g->random_scalar(rng);
  EXPECT_EQ(g->exp2(b1, e1, b2, e2), g->mul(g->exp(b1, e1), g->exp(b2, e2)));
}

TEST_P(GroupBackendTest, MultiExpMatchesProduct) {
  GroupPtr g = group();
  Rng rng(7);
  std::vector<std::pair<Element, BigInt>> pairs;
  Element expected = g->identity();
  for (int i = 0; i < 7; ++i) {
    Element base = g->exp_g(g->random_scalar(rng));
    BigInt e = g->random_scalar(rng);
    expected = g->mul(expected, g->exp(base, e));
    pairs.emplace_back(std::move(base), std::move(e));
  }
  EXPECT_EQ(g->multi_exp(pairs), expected);
}

TEST_P(GroupBackendTest, PrecomputedBaseMatchesGeneric) {
  GroupPtr g = group();
  Rng rng(8);
  Element base = g->exp_g(g->random_scalar(rng));
  BigInt e = g->random_scalar(rng);
  const Element generic = g->exp(base, e);
  g->precompute_base(base);
  EXPECT_EQ(g->exp(base, e), generic);
}

TEST_P(GroupBackendTest, EmptyElementNeverValidates) {
  GroupPtr g = group();
  Element empty;
  EXPECT_FALSE(g->is_element(empty));
  EXPECT_FALSE(g->is_residue(empty));
  EXPECT_NE(empty, g->identity());
  EXPECT_EQ(empty, Element());
}

TEST_P(GroupBackendTest, HashToElementLandsInGroup) {
  GroupPtr g = group();
  for (int i = 0; i < 5; ++i) {
    Bytes seed = bytes_of("seed" + std::to_string(i));
    Element e = g->hash_to_element("t", seed);
    EXPECT_TRUE(g->is_element(e));
    // Deterministic.
    EXPECT_EQ(e, g->hash_to_element("t", seed));
  }
  EXPECT_NE(g->hash_to_element("t", bytes_of("a")), g->hash_to_element("t", bytes_of("b")));
  EXPECT_NE(g->hash_to_element("t1", bytes_of("a")), g->hash_to_element("t2", bytes_of("a")));
}

TEST_P(GroupBackendTest, HashToScalarInRange) {
  GroupPtr g = group();
  for (int i = 0; i < 10; ++i) {
    BigInt s = g->hash_to_scalar("t", bytes_of("seed" + std::to_string(i)));
    EXPECT_TRUE(g->is_scalar(s));
  }
}

TEST_P(GroupBackendTest, ElementSerializationRoundTrip) {
  GroupPtr g = group();
  Rng rng(4);
  Element e = g->exp_g(g->random_scalar(rng));
  Writer w;
  g->encode_element(w, e);
  EXPECT_EQ(w.data().size(), g->element_bytes());
  Reader r(w.data());
  EXPECT_EQ(g->decode_element(r), e);
}

TEST_P(GroupBackendTest, IdentitySerializationRoundTrip) {
  GroupPtr g = group();
  Writer w;
  g->encode_element(w, g->identity());
  Reader r(w.data());
  EXPECT_EQ(g->decode_element(r), g->identity());
}

TEST_P(GroupBackendTest, DecodeRejectsGarbage) {
  GroupPtr g = group();
  // All-0xFF is never a canonical encoding in any backend (>= p for
  // schnorr, bad prefix for the curve).
  Writer w;
  w.raw(Bytes(g->element_bytes(), 0xFF));
  Reader r(w.data());
  EXPECT_THROW(g->decode_element(r), ProtocolError);
}

TEST_P(GroupBackendTest, ScalarSerializationRejectsOverflow) {
  GroupPtr g = group();
  Writer w;
  g->encode_scalar(w, g->q() - BigInt(1));
  Reader r(w.data());
  EXPECT_EQ(g->decode_scalar(r), g->q() - BigInt(1));
  Writer w2;
  w2.raw(g->q().to_bytes_padded(g->scalar_bytes()));
  Reader r2(w2.data());
  EXPECT_THROW(g->decode_scalar(r2), ProtocolError);
}

TEST_P(GroupBackendTest, ByNameRoundTrip) {
  GroupPtr g = group();
  EXPECT_EQ(Group::by_name(g->name()).get(), g.get());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GroupBackendTest,
                         ::testing::Values("test-256/128", "default-768/256", "big-1536/256",
                                           "secp256k1"));

TEST(GroupTest, ByNameRejectsUnknown) {
  EXPECT_THROW(Group::by_name("p-1024/160"), ProtocolError);
}

TEST(GroupTest, ScalarInverse) {
  GroupPtr g = Group::test_group();
  Rng rng(5);
  BigInt a = g->random_scalar(rng);
  while (a.is_zero()) a = g->random_scalar(rng);
  EXPECT_TRUE(g->scalar_mul(a, g->scalar_inv(a)).is_one());
}

// -- Schnorr-specific: hard-coded parameter sets and Z_p* representation ----

class SchnorrParamTest : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::shared_ptr<const SchnorrGroup> group() const {
    const std::string which = GetParam();
    if (which == "test") return SchnorrGroup::test();
    if (which == "default") return SchnorrGroup::production();
    return SchnorrGroup::big();
  }
};

TEST_P(SchnorrParamTest, ParametersAreValid) {
  auto g = group();
  Rng rng(1);
  EXPECT_TRUE(g->p().is_probable_prime(rng));
  EXPECT_TRUE(g->q().is_probable_prime(rng));
  EXPECT_TRUE(((g->p() - BigInt(1)) % g->q()).is_zero());
  EXPECT_TRUE(g->is_element(g->g()));
  const BigInt& gen = g->g().residue();
  EXPECT_FALSE(gen.is_one());
  // Generator has order exactly q (q prime, g != 1, g^q = 1).
  EXPECT_TRUE(BigInt::pow_mod(gen, g->q(), g->p()).is_one());
}

TEST_P(SchnorrParamTest, MembershipRejectsOutsiders) {
  auto g = group();
  EXPECT_FALSE(g->is_element(Element::from_residue(BigInt(0))));
  EXPECT_FALSE(g->is_element(Element::from_residue(g->p())));
  EXPECT_FALSE(g->is_element(Element::from_residue(g->p() + BigInt(1))));
  EXPECT_FALSE(g->is_element(Element::from_residue(BigInt(-2))));
  // p-1 has order 2, not in the order-q subgroup (q odd).
  EXPECT_FALSE(g->is_element(Element::from_residue(g->p() - BigInt(1))));
  // A point-represented element is never a member of a Schnorr group.
  EXPECT_FALSE(g->is_element(Group::curve_group()->g()));
}

TEST_P(SchnorrParamTest, DecodeRejectsNonSubgroupResidue) {
  auto g = group();
  // p - 1 is in range but not in the subgroup.
  Writer w;
  w.raw((g->p() - BigInt(1)).to_bytes_padded(g->element_bytes()));
  Reader r(w.data());
  EXPECT_THROW(g->decode_element(r), ProtocolError);
  // decode_residue only range-checks, so the same bytes pass there.
  Reader r2(w.data());
  EXPECT_EQ(g->decode_residue(r2), Element::from_residue(g->p() - BigInt(1)));
}

INSTANTIATE_TEST_SUITE_P(AllParameterSets, SchnorrParamTest,
                         ::testing::Values("test", "default", "big"));

/// Register 70 fresh bases in `group`'s bounded cache (64 entries): the
/// least recently used entries make room, and every base from the 65th on
/// is still served from a table on its second use.
template <class Backend>
void expect_late_bases_get_tables(const Backend& group) {
  const auto before = group.base_cache_stats();
  std::vector<Element> bases;
  for (int i = 0; i < 70; ++i) bases.push_back(group.exp_g(BigInt(7001 + i)));
  for (const Element& base : bases) group.precompute_base(base);
  const BigInt e(0x5eed);
  for (std::size_t i = 64; i < bases.size(); ++i) {
    const Element generic = group.multi_exp({{bases[i], e}});
    EXPECT_EQ(group.exp(bases[i], e), generic);  // first use: generic path
    const auto uses = group.base_cache_stats().table_uses;
    EXPECT_EQ(group.exp(bases[i], e), generic);  // second use: built table
    EXPECT_EQ(group.base_cache_stats().table_uses, uses + 1) << "base " << i;
  }
  const auto after = group.base_cache_stats();
  EXPECT_LE(after.registered, 64u);
  EXPECT_GE(after.evictions - before.evictions, 6u);
}

TEST(BaseCacheTest, CurveBasesPastTheBoundGetTables) {
  expect_late_bases_get_tables(*EcGroup::instance());
}

TEST(BaseCacheTest, SchnorrBasesPastTheBoundGetTables) {
  expect_late_bases_get_tables(*SchnorrGroup::test());
}

TEST(SchnorrGroupTest, BadConstructionRejected) {
  // q does not divide p-1.
  EXPECT_THROW(SchnorrGroup(BigInt(23), BigInt(7), BigInt(2), "bad"), LogicError);
}

}  // namespace
}  // namespace sintra::crypto
