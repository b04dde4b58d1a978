// Differential tests for the Montgomery/REDC fast path and the fixed-base /
// multi-exponentiation layers: every fast path must be bit-identical to the
// schoolbook reference path (pow_mod_reference, mul_mod) over random inputs
// for all built-in group moduli and the precomputed RSA moduli, including
// the edge cases (zero, one, base >= m, maximum-width operands).
#include "crypto/group_schnorr.hpp"
#include "crypto/threshold_sig.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace sintra::crypto {
namespace {

std::vector<BigInt> interesting_moduli() {
  std::vector<BigInt> moduli;
  moduli.push_back(SchnorrGroup::test()->p());
  moduli.push_back(SchnorrGroup::production()->p());
  moduli.push_back(SchnorrGroup::big()->p());
  moduli.push_back(SchnorrGroup::test()->q());
  for (int bits : {128, 256, 512}) {
    RsaParams params = RsaParams::precomputed(bits);
    moduli.push_back(params.p * params.q);
  }
  return moduli;
}

TEST(MontgomeryTest, MulModMatchesReferenceOnRandomInputs) {
  Rng rng(101);
  for (const BigInt& m : interesting_moduli()) {
    Montgomery mont(m);
    for (int i = 0; i < 50; ++i) {
      const BigInt a = BigInt::random_below(rng, m);
      const BigInt b = BigInt::random_below(rng, m);
      EXPECT_EQ(mont.mul_mod(a, b), BigInt::mul_mod(a, b, m));
    }
  }
}

TEST(MontgomeryTest, PowMatchesReferenceOnRandomInputs) {
  Rng rng(102);
  for (const BigInt& m : interesting_moduli()) {
    Montgomery mont(m);
    for (int i = 0; i < 12; ++i) {
      const BigInt base = BigInt::random_below(rng, m);
      const BigInt exp = BigInt::random_bits(rng, 1 + static_cast<std::size_t>(i) * 53 % 600);
      EXPECT_EQ(mont.pow(base, exp), BigInt::pow_mod_reference(base, exp, m));
      // The public dispatcher must agree with both paths.
      EXPECT_EQ(BigInt::pow_mod(base, exp, m), BigInt::pow_mod_reference(base, exp, m));
    }
  }
}

TEST(MontgomeryTest, PowEdgeCases) {
  for (const BigInt& m : interesting_moduli()) {
    Montgomery mont(m);
    const BigInt order_sized = m - BigInt(1);
    // Zero and one bases/exponents.
    EXPECT_TRUE(mont.pow(BigInt(0), BigInt(0)).is_one());
    EXPECT_TRUE(mont.pow(BigInt(7), BigInt(0)).is_one());
    EXPECT_TRUE(mont.pow(BigInt(1), order_sized).is_one());
    EXPECT_TRUE(mont.pow(BigInt(0), order_sized).is_zero());
    // Base at and beyond the modulus must be reduced first.
    EXPECT_EQ(mont.pow(m, BigInt(3)), BigInt(0));
    const BigInt beyond = m + BigInt(12345);
    EXPECT_EQ(mont.pow(beyond, order_sized),
              BigInt::pow_mod_reference(beyond, order_sized, m));
    // Maximum-width operands: m-1 raised to m-1.
    EXPECT_EQ(mont.pow(order_sized, order_sized),
              BigInt::pow_mod_reference(order_sized, order_sized, m));
    // mul_mod with maximum-width operands.
    EXPECT_EQ(mont.mul_mod(order_sized, order_sized),
              BigInt::mul_mod(order_sized, order_sized, m));
    // 15-18-bit exponents sit where pow picks between square-and-multiply
    // and the 4-bit window: sparse (65537, powers of two), dense (all ones)
    // and in between.
    const BigInt base = order_sized - BigInt(41);
    for (std::int64_t e : {16385LL, 32767LL, 32768LL, 43690LL, 65535LL, 65537LL, 65539LL,
                           98305LL, 131071LL, 131072LL, 174763LL, 262143LL}) {
      EXPECT_EQ(mont.pow(base, BigInt(e)), BigInt::pow_mod_reference(base, BigInt(e), m))
          << "e = " << e;
      EXPECT_EQ(mont.pow(beyond, BigInt(e)), BigInt::pow_mod_reference(beyond, BigInt(e), m))
          << "e = " << e;
    }
  }
}

TEST(MontgomeryTest, FixedBaseMatchesReference) {
  Rng rng(110);
  std::vector<BigInt> moduli = interesting_moduli();
  // Odd moduli from one limb to past the 1024-bit RSA modulus above,
  // including widths that are not whole limbs.
  for (std::size_t bits : {64u, 65u, 127u, 200u, 513u, 1100u}) {
    BigInt m = BigInt::random_bits(rng, bits);
    if (!m.is_odd()) m += BigInt(1);
    moduli.push_back(m);
  }
  constexpr std::size_t kW = Montgomery::kFixedWindow;
  for (const BigInt& m : moduli) {
    Montgomery mont(m);
    const std::vector<BigInt> bases = {BigInt(0), BigInt(1), m - BigInt(1), m,
                                       m + BigInt(12345), BigInt::random_below(rng, m)};
    for (std::size_t table_bits : {std::size_t{1}, std::size_t{64}, std::size_t{130},
                                   m.bit_length() + 192}) {
      for (const BigInt& base : bases) {
        const Montgomery::FixedBase table = mont.fixed_base(base, table_bits);
        const std::size_t width = table.max_bits();
        ASSERT_GE(width, table_bits);
        ASSERT_LT(width, table_bits + kW);
        std::vector<BigInt> exponents = {
            BigInt(0), BigInt(1), BigInt(2), BigInt(31), BigInt(32),
            BigInt(1).shifted_left(width) - BigInt(1),  // every digit 2^w - 1, full width
            BigInt::random_bits(rng, width),            // exactly the table's width
            BigInt(1).shifted_left(width),              // one bit wider: falls back
            BigInt::random_bits(rng, width + kW),       // one window wider: falls back
        };
        for (std::size_t k : {std::size_t{5}, std::size_t{6}, std::size_t{63}, std::size_t{64}}) {
          if (k <= width) exponents.push_back(BigInt(1).shifted_left(k) - BigInt(1));
        }
        if (width > 1) exponents.push_back(BigInt::random_bits(rng, width / 2 + 1));
        for (const BigInt& e : exponents) {
          EXPECT_EQ(mont.pow_fixed(table, e), BigInt::pow_mod_reference(base, e, m))
              << "m bits " << m.bit_length() << ", table bits " << width << ", e bits "
              << e.bit_length();
        }
      }
    }
  }
}

TEST(MontgomeryTest, Pow2MatchesProductOfReferencePowers) {
  Rng rng(103);
  for (const BigInt& m : interesting_moduli()) {
    Montgomery mont(m);
    for (int i = 0; i < 10; ++i) {
      const BigInt b1 = BigInt::random_below(rng, m);
      const BigInt b2 = BigInt::random_below(rng, m);
      // Deliberately unbalanced exponent widths (the threshold-RSA shape).
      const BigInt e1 = BigInt::random_bits(rng, 1 + static_cast<std::size_t>(i) * 131 % 700);
      const BigInt e2 = BigInt::random_bits(rng, 1 + static_cast<std::size_t>(i) * 17 % 130);
      const BigInt want = BigInt::mul_mod(BigInt::pow_mod_reference(b1, e1, m),
                                          BigInt::pow_mod_reference(b2, e2, m), m);
      EXPECT_EQ(mont.pow2(b1, e1, b2, e2), want);
      EXPECT_EQ(BigInt::pow2_mod(b1, e1, b2, e2, m), want);
    }
    // Degenerate exponents.
    const BigInt b = BigInt::random_below(rng, m);
    EXPECT_EQ(mont.pow2(b, BigInt(0), b, BigInt(0)), BigInt(1).mod(m));
    EXPECT_EQ(mont.pow2(b, BigInt(1), BigInt(0), BigInt(5)), BigInt(0));
  }
}

TEST(MontgomeryTest, MultiPowMatchesProductOfReferencePowers) {
  Rng rng(104);
  for (const BigInt& m : interesting_moduli()) {
    Montgomery mont(m);
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      std::vector<std::pair<BigInt, BigInt>> pairs;
      BigInt want(1);
      for (std::size_t i = 0; i < k; ++i) {
        BigInt base = BigInt::random_below(rng, m);
        BigInt exp = BigInt::random_bits(rng, 1 + (i * 97) % 250);
        want = BigInt::mul_mod(want, BigInt::pow_mod_reference(base, exp, m), m);
        pairs.emplace_back(std::move(base), std::move(exp));
      }
      EXPECT_EQ(mont.multi_pow(pairs), want);
    }
    EXPECT_TRUE(mont.multi_pow({}).is_one());
  }
}

TEST(MontgomeryTest, DispatcherFallsBackForEvenAndTinyModuli) {
  Rng rng(105);
  const BigInt even = BigInt::from_string("0x8ae6dc1067c0315a91688ea460719bfafa266000");
  const BigInt tiny(9223372036854775783LL);  // largest 63-bit prime, single limb
  for (const BigInt& m : {even, tiny}) {
    for (int i = 0; i < 8; ++i) {
      const BigInt base = BigInt::random_below(rng, m);
      const BigInt exp = BigInt::random_bits(rng, 1 + static_cast<std::size_t>(i) * 37 % 200);
      EXPECT_EQ(BigInt::pow_mod(base, exp, m), BigInt::pow_mod_reference(base, exp, m));
      EXPECT_EQ(BigInt::pow2_mod(base, exp, base, exp, m),
                BigInt::mul_mod(BigInt::pow_mod_reference(base, exp, m),
                                BigInt::pow_mod_reference(base, exp, m), m));
    }
  }
  EXPECT_TRUE(BigInt::pow_mod(BigInt(7), BigInt(100), BigInt(1)).is_zero());
  EXPECT_TRUE(BigInt::pow2_mod(BigInt(7), BigInt(3), BigInt(5), BigInt(2), BigInt(1)).is_zero());
}

class GroupFastPathTest : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::shared_ptr<const SchnorrGroup> group() const {
    std::string which = GetParam();
    if (which == "test") return SchnorrGroup::test();
    if (which == "default") return SchnorrGroup::production();
    return SchnorrGroup::big();
  }
};

TEST_P(GroupFastPathTest, ExpMatchesReference) {
  auto g = group();
  Rng rng(106);
  for (int i = 0; i < 8; ++i) {
    const BigInt s = g->random_scalar(rng);
    const Element h = g->exp_g(s);  // fixed-base path
    EXPECT_EQ(h.residue(), BigInt::pow_mod_reference(g->g().residue(), s, g->p()));
    // Generic-base path on a fresh element.
    const BigInt s2 = g->random_scalar(rng);
    EXPECT_EQ(g->exp(h, s2).residue(), BigInt::pow_mod_reference(h.residue(), s2, g->p()));
  }
  // Scalars at and beyond the group order reduce mod q on every path.
  EXPECT_EQ(g->exp_g(g->q()), g->identity());
  EXPECT_EQ(g->exp_g(g->q() + BigInt(5)), g->exp_g(BigInt(5)));
  EXPECT_EQ(g->exp_g(BigInt(0)), g->identity());
}

TEST_P(GroupFastPathTest, RegisteredBaseMatchesGenericPath) {
  auto g = group();
  Rng rng(107);
  const Element h = g->exp_g(g->random_scalar(rng));
  g->precompute_base(h);
  for (int i = 0; i < 8; ++i) {
    const BigInt s = g->random_scalar(rng);
    EXPECT_EQ(g->exp(h, s).residue(), BigInt::pow_mod_reference(h.residue(), s, g->p()));
  }
}

TEST_P(GroupFastPathTest, Exp2AndMultiExpMatchReference) {
  auto g = group();
  Rng rng(108);
  for (int i = 0; i < 6; ++i) {
    const Element b1 = g->exp_g(g->random_scalar(rng));
    const Element b2 = g->exp_g(g->random_scalar(rng));
    const BigInt e1 = g->random_scalar(rng);
    const BigInt e2 = g->random_scalar(rng);
    const Element want = g->mul(
        Element::from_residue(BigInt::pow_mod_reference(b1.residue(), e1, g->p())),
        Element::from_residue(BigInt::pow_mod_reference(b2.residue(), e2, g->p())));
    EXPECT_EQ(g->exp2(b1, e1, b2, e2), want);
    EXPECT_EQ(g->multi_exp({{b1, e1}, {b2, e2}}), want);
  }
  EXPECT_EQ(g->multi_exp({}), g->identity());
}

TEST_P(GroupFastPathTest, MembershipMemoPreservesStrictness) {
  auto g = group();
  Rng rng(109);
  const Element h = g->exp_g(g->random_scalar(rng));
  // Repeated checks (memoized after the first) stay positive...
  EXPECT_TRUE(g->is_element(h));
  EXPECT_TRUE(g->is_element(h));
  // ...and non-members stay negative on every retry.
  // p-1 has order 2, never in the q-subgroup.
  const Element outside = Element::from_residue(g->p() - BigInt(1));
  EXPECT_FALSE(g->is_element(outside));
  EXPECT_FALSE(g->is_element(outside));
  EXPECT_FALSE(g->is_element(Element::from_residue(BigInt(0))));
  EXPECT_FALSE(g->is_element(Element::from_residue(g->p())));
  // Round-trip decode twice: the second decode hits the memo and must
  // return the identical element.
  Writer w;
  g->encode_element(w, h);
  g->encode_element(w, h);
  Reader r(w.data());
  EXPECT_EQ(g->decode_element(r), h);
  EXPECT_EQ(g->decode_element(r), h);
}

INSTANTIATE_TEST_SUITE_P(AllParameterSets, GroupFastPathTest,
                         ::testing::Values("test", "default", "big"));

}  // namespace
}  // namespace sintra::crypto
