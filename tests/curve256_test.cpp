// Unit tests for the secp256k1 substrate: fe256 field laws against the
// square-and-multiply oracle, curve group laws, known-answer vectors for
// the standard generator multiples, the wNAF/comb/Strauss/Pippenger
// multiplication paths against naive double-and-add, batch normalization,
// and the strict point codec.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/curve256.hpp"
#include "crypto/fe256.hpp"

namespace sintra::crypto {
namespace {

using curve256::Point;
using curve256::Scalar;
using fe256::Fe;

// ---- helpers -----------------------------------------------------------

/// Uniform field element via rejection sampling on the strict decoder.
Fe random_fe(Rng& rng) {
  for (;;) {
    Bytes raw = rng.bytes(32);
    Fe out;
    if (fe256::from_bytes(raw.data(), out)) return out;
  }
}

/// Uniform nonzero scalar < n (rejection against the order limbs).
Scalar random_scalar(Rng& rng) {
  for (;;) {
    Bytes raw = rng.bytes(32);
    Scalar k;
    for (int limb = 0; limb < 4; ++limb) {
      std::uint64_t word = 0;
      for (int byte = 0; byte < 8; ++byte) {
        word = (word << 8) | raw[static_cast<std::size_t>(limb * 8 + byte)];
      }
      k.v[limb] = word;
    }
    bool below = false, zero = true;
    for (int limb = 3; limb >= 0; --limb) {
      if (k.v[limb] != 0) zero = false;
      if (!below && k.v[limb] != curve256::kOrder[limb]) {
        below = k.v[limb] < curve256::kOrder[limb];
        break;
      }
    }
    if (below && !zero) return k;
  }
}

/// Reference scalar multiplication: plain MSB-first double-and-add using
/// only the complete add/dbl primitives.
Point naive_mul(const Point& p, const Scalar& k) {
  Point acc = curve256::infinity();
  for (int bit = 255; bit >= 0; --bit) {
    acc = curve256::dbl(acc);
    if ((k.v[bit / 64] >> (bit % 64)) & 1) acc = curve256::add(acc, p);
  }
  return acc;
}

Fe fe_from_hex(const char* hex) {
  std::uint8_t raw[32] = {0};
  for (int i = 0; i < 64; ++i) {
    char c = hex[i];
    int nibble = c <= '9' ? c - '0' : (c & 0xDF) - 'A' + 10;
    raw[i / 2] = static_cast<std::uint8_t>(raw[i / 2] << 4 | nibble);
  }
  Fe out;
  EXPECT_TRUE(fe256::from_bytes(raw, out));
  return out;
}

Point affine(const char* x_hex, const char* y_hex) {
  Point p{fe_from_hex(x_hex), fe_from_hex(y_hex), fe256::one()};
  EXPECT_TRUE(curve256::on_curve(p));
  return p;
}

// ---- fe256 -------------------------------------------------------------

TEST(Fe256Test, FieldLaws) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    // Commutativity and associativity.
    EXPECT_TRUE(fe256::eq(fe256::add(a, b), fe256::add(b, a)));
    EXPECT_TRUE(fe256::eq(fe256::mul(a, b), fe256::mul(b, a)));
    EXPECT_TRUE(fe256::eq(fe256::add(fe256::add(a, b), c), fe256::add(a, fe256::add(b, c))));
    EXPECT_TRUE(fe256::eq(fe256::mul(fe256::mul(a, b), c), fe256::mul(a, fe256::mul(b, c))));
    // Distributivity.
    EXPECT_TRUE(fe256::eq(fe256::mul(a, fe256::add(b, c)),
                          fe256::add(fe256::mul(a, b), fe256::mul(a, c))));
    // Additive inverse, subtraction.
    EXPECT_TRUE(fe256::is_zero(fe256::add(a, fe256::neg(a))));
    EXPECT_TRUE(fe256::eq(fe256::sub(a, b), fe256::add(a, fe256::neg(b))));
    // Square matches self-multiplication.
    EXPECT_TRUE(fe256::eq(fe256::sqr(a), fe256::mul(a, a)));
  }
}

TEST(Fe256Test, InverseMatchesPowOracle) {
  // p - 2, little-endian limbs.
  const std::uint64_t p_minus_2[4] = {0xFFFFFFFEFFFFFC2DULL, 0xFFFFFFFFFFFFFFFFULL,
                                      0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL};
  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    Fe a = random_fe(rng);
    if (fe256::is_zero(a)) continue;
    Fe inv = fe256::inv(a);
    EXPECT_TRUE(fe256::eq(inv, fe256::pow(a, p_minus_2)));
    EXPECT_TRUE(fe256::eq(fe256::mul(a, inv), fe256::one()));
  }
  EXPECT_TRUE(fe256::is_zero(fe256::inv(fe256::zero())));
}

TEST(Fe256Test, SqrtChainMatchesPowOracle) {
  // (p+1)/4, little-endian limbs: the exponent the addition chain encodes.
  const std::uint64_t p_plus_1_over_4[4] = {0xFFFFFFFFBFFFFF0CULL, 0xFFFFFFFFFFFFFFFFULL,
                                            0xFFFFFFFFFFFFFFFFULL, 0x3FFFFFFFFFFFFFFFULL};
  Rng rng(5);
  int residues = 0;
  for (int i = 0; i < 40; ++i) {
    // Half squares (always residues), half raw draws (either class).
    Fe a = random_fe(rng);
    if (i % 2 == 0) a = fe256::sqr(a);
    const Fe oracle = fe256::pow(a, p_plus_1_over_4);
    Fe root;
    const bool found = fe256::sqrt(a, root);
    EXPECT_EQ(found, fe256::eq(fe256::sqr(oracle), a)) << "draw " << i;
    if (found) {
      ++residues;
      EXPECT_TRUE(fe256::eq(root, oracle)) << "draw " << i;
    }
  }
  EXPECT_GT(residues, 20);
  Fe root;
  ASSERT_TRUE(fe256::sqrt(fe256::zero(), root));
  EXPECT_TRUE(fe256::is_zero(root));
  ASSERT_TRUE(fe256::sqrt(fe256::one(), root));
  EXPECT_TRUE(fe256::eq(root, fe256::one()));
}

TEST(Fe256Test, SqrtRoundTripAndNonResidue) {
  Rng rng(3);
  int residues = 0, non_residues = 0;
  for (int i = 0; i < 40; ++i) {
    Fe a = random_fe(rng);
    Fe square = fe256::sqr(a);
    Fe root;
    ASSERT_TRUE(fe256::sqrt(square, root));
    // Either root or its negation.
    EXPECT_TRUE(fe256::eq(root, a) || fe256::eq(root, fe256::neg(a)));
    Fe maybe;
    fe256::sqrt(a, maybe) ? ++residues : ++non_residues;
  }
  // Residues have density 1/2; both classes must appear in 40 draws.
  EXPECT_GT(residues, 0);
  EXPECT_GT(non_residues, 0);
}

TEST(Fe256Test, BytesRoundTripAndCanonicalReject) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    Fe a = random_fe(rng);
    std::uint8_t raw[32];
    fe256::to_bytes(a, raw);
    Fe back;
    ASSERT_TRUE(fe256::from_bytes(raw, back));
    EXPECT_TRUE(fe256::eq(a, back));
  }
  // p itself and anything above must be rejected.
  std::uint8_t p_bytes[32];
  Fe big;
  fe256::to_bytes(fe256::neg(fe256::one()), p_bytes);  // p - 1: accepted
  ASSERT_TRUE(fe256::from_bytes(p_bytes, big));
  std::uint8_t all_ff[32];
  for (auto& b : all_ff) b = 0xFF;
  EXPECT_FALSE(fe256::from_bytes(all_ff, big));
}

// ---- curve256 group laws ------------------------------------------------

TEST(Curve256Test, GeneratorKnownAnswer) {
  // SEC2 test vectors: G, 2G, 3G in affine coordinates.
  const Point g = affine("79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798",
                         "483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8");
  const Point g2 = affine("C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5",
                          "1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A");
  const Point g3 = affine("F9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9",
                          "388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672");
  EXPECT_TRUE(curve256::eq(curve256::generator(), g));
  EXPECT_TRUE(curve256::eq(curve256::dbl(g), g2));
  EXPECT_TRUE(curve256::eq(curve256::add(g2, g), g3));
  Scalar three;
  three.v[0] = 3;
  EXPECT_TRUE(curve256::eq(curve256::mul(g, three), g3));
}

TEST(Curve256Test, OrderAnnihilatesGenerator) {
  // nG = infinity and (n-1)G = -G.
  Scalar n_minus_1;
  for (int i = 0; i < 4; ++i) n_minus_1.v[i] = curve256::kOrder[i];
  n_minus_1.v[0] -= 1;
  Point p = curve256::mul(curve256::generator(), n_minus_1);
  EXPECT_TRUE(curve256::eq(p, curve256::neg(curve256::generator())));
  EXPECT_TRUE(curve256::is_infinity(curve256::add(p, curve256::generator())));
}

TEST(Curve256Test, CompleteFormulaEdgeCases) {
  const Point& g = curve256::generator();
  const Point inf = curve256::infinity();
  // P + (-P) = 0, P + 0 = P, 0 + 0 = 0, P + P = dbl(P).
  EXPECT_TRUE(curve256::is_infinity(curve256::add(g, curve256::neg(g))));
  EXPECT_TRUE(curve256::eq(curve256::add(g, inf), g));
  EXPECT_TRUE(curve256::eq(curve256::add(inf, g), g));
  EXPECT_TRUE(curve256::is_infinity(curve256::add(inf, inf)));
  EXPECT_TRUE(curve256::eq(curve256::add(g, g), curve256::dbl(g)));
  EXPECT_TRUE(curve256::is_infinity(curve256::dbl(inf)));
  // Mixed addition agrees with full addition on affine operands.
  EXPECT_TRUE(curve256::eq(curve256::add_mixed(curve256::dbl(g), g), curve256::add(curve256::dbl(g), g)));
}

TEST(Curve256Test, WnafMulMatchesNaive) {
  Rng rng(5);
  Point base = curve256::mul(curve256::generator(), random_scalar(rng));
  curve256::normalize(base);
  for (int i = 0; i < 10; ++i) {
    Scalar k = random_scalar(rng);
    EXPECT_TRUE(curve256::eq(curve256::mul(base, k), naive_mul(base, k)));
  }
  // Degenerate scalars.
  Scalar zero;
  EXPECT_TRUE(curve256::is_infinity(curve256::mul(base, zero)));
  Scalar one;
  one.v[0] = 1;
  EXPECT_TRUE(curve256::eq(curve256::mul(base, one), base));
}

TEST(Curve256Test, FixedBaseCombMatchesNaive) {
  Rng rng(6);
  Point base = curve256::mul(curve256::generator(), random_scalar(rng));
  curve256::normalize(base);
  curve256::FixedBaseTable table = curve256::build_fixed_base(base);
  for (int i = 0; i < 10; ++i) {
    Scalar k = random_scalar(rng);
    EXPECT_TRUE(curve256::eq(curve256::mul_fixed(table, k), naive_mul(base, k)));
  }
  Scalar zero;
  EXPECT_TRUE(curve256::is_infinity(curve256::mul_fixed(table, zero)));
}

TEST(Curve256Test, Mul2MatchesSeparate) {
  Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    Point p = curve256::mul(curve256::generator(), random_scalar(rng));
    Point q = curve256::mul(curve256::generator(), random_scalar(rng));
    curve256::normalize(p);
    curve256::normalize(q);
    Scalar k1 = random_scalar(rng), k2 = random_scalar(rng);
    Point expected = curve256::add(curve256::mul(p, k1), curve256::mul(q, k2));
    EXPECT_TRUE(curve256::eq(curve256::mul2(p, k1, q, k2), expected));
  }
}

TEST(Curve256Test, MultiMulMatchesSum) {
  // Cover both the Strauss path (< 512 terms) and Pippenger (>= 512).
  Rng rng(8);
  for (std::size_t count : {std::size_t{1}, std::size_t{7}, std::size_t{40}, std::size_t{520}}) {
    std::vector<std::pair<Point, Scalar>> terms;
    Point expected = curve256::infinity();
    for (std::size_t i = 0; i < count; ++i) {
      Point p = curve256::mul(curve256::generator(), random_scalar(rng));
      curve256::normalize(p);
      Scalar k = random_scalar(rng);
      expected = curve256::add(expected, curve256::mul(p, k));
      terms.emplace_back(p, k);
    }
    EXPECT_TRUE(curve256::eq(curve256::multi_mul(terms), expected)) << count << " terms";
  }
  EXPECT_TRUE(curve256::is_infinity(curve256::multi_mul({})));
}

TEST(Curve256Test, BatchNormalizeMatchesNormalize) {
  Rng rng(9);
  std::vector<Point> pts;
  std::vector<Point> singly;
  for (int i = 0; i < 9; ++i) {
    // Unnormalized projective points straight out of the adder.
    Point p = curve256::add(curve256::mul(curve256::generator(), random_scalar(rng)),
                            curve256::generator());
    if (i == 4) p = curve256::infinity();  // mixed infinity survives
    pts.push_back(p);
    singly.push_back(p);
    curve256::normalize(singly.back());
  }
  curve256::batch_normalize(pts.data(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(curve256::eq(pts[i], singly[i])) << i;
    EXPECT_TRUE(curve256::on_curve(pts[i])) << i;
  }
}

TEST(Curve256Test, CodecRoundTripAndStrictReject) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) {
    Point p = curve256::mul(curve256::generator(), random_scalar(rng));
    curve256::normalize(p);
    std::uint8_t enc[curve256::kEncodedBytes];
    curve256::encode(p, enc);
    EXPECT_TRUE(enc[0] == 0x02 || enc[0] == 0x03);
    Point back;
    ASSERT_TRUE(curve256::decode(enc, back));
    EXPECT_TRUE(curve256::eq(p, back));
  }
  // Infinity: 33 zero bytes, round-trips; any nonzero tail rejects.
  std::uint8_t inf_enc[curve256::kEncodedBytes];
  curve256::encode(curve256::infinity(), inf_enc);
  for (std::size_t i = 0; i < curve256::kEncodedBytes; ++i) EXPECT_EQ(inf_enc[i], 0);
  Point back;
  ASSERT_TRUE(curve256::decode(inf_enc, back));
  EXPECT_TRUE(curve256::is_infinity(back));
  inf_enc[17] = 1;
  EXPECT_FALSE(curve256::decode(inf_enc, back));
  // Bad prefix, x >= p, off-curve x.
  std::uint8_t enc[curve256::kEncodedBytes];
  curve256::encode(curve256::generator(), enc);
  enc[0] = 0x04;
  EXPECT_FALSE(curve256::decode(enc, back));
  std::uint8_t big[curve256::kEncodedBytes];
  for (auto& b : big) b = 0xFF;
  big[0] = 0x02;
  EXPECT_FALSE(curve256::decode(big, back));
  std::uint8_t off[curve256::kEncodedBytes] = {0};  // x = 0: y^2 = 7 non-residue
  off[0] = 0x02;
  EXPECT_FALSE(curve256::decode(off, back));
}

TEST(Curve256Test, GlvEndomorphismDerivation) {
  const Fe beta = curve256::endo_beta();
  // beta is a nontrivial cube root of unity in GF(p)...
  EXPECT_FALSE(fe256::eq(beta, fe256::one()));
  EXPECT_TRUE(fe256::eq(fe256::mul(fe256::sqr(beta), beta), fe256::one()));
  // ...and specifically the standard secp256k1 beta or its square (the two
  // primitive roots are interchangeable as long as lambda matches, which
  // the phi(P) == lambda*P checks below pin down).
  const Fe known =
      fe_from_hex("7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE");
  EXPECT_TRUE(fe256::eq(beta, known) || fe256::eq(beta, fe256::sqr(known)));

  Rng rng(7);
  for (int i = 0; i < 4; ++i) {
    Point p = curve256::mul(curve256::generator(), random_scalar(rng));
    curve256::normalize(p);
    // phi(x, y) = (beta*x, y) stays on the curve and acts as *lambda.
    Point phi = p;
    phi.x = fe256::mul(phi.x, beta);
    EXPECT_TRUE(curve256::on_curve(phi));
    EXPECT_TRUE(curve256::eq(phi, naive_mul(p, curve256::endo_lambda())));
    // phi has order 3.
    Point phi3 = phi;
    phi3.x = fe256::mul(phi3.x, beta);
    phi3.x = fe256::mul(phi3.x, beta);
    EXPECT_TRUE(curve256::eq(phi3, p));
  }
}

TEST(Curve256Test, GlvMulEdgeScalars) {
  // The GLV split path must agree with the naive ladder on boundary scalars
  // (tiny values and n-1, whose halves exercise the negative branches).
  Scalar one;
  one.v[0] = 1;
  EXPECT_TRUE(curve256::eq(curve256::mul(curve256::generator(), one), curve256::generator()));
  Scalar n_minus_1;
  for (int i = 0; i < 4; ++i) n_minus_1.v[i] = curve256::kOrder[i];
  n_minus_1.v[0] -= 1;
  EXPECT_TRUE(curve256::eq(curve256::mul(curve256::generator(), n_minus_1),
                           curve256::neg(curve256::generator())));
  for (std::uint64_t small : {2ULL, 3ULL, 7ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    Scalar k;
    k.v[0] = small;
    EXPECT_TRUE(curve256::eq(curve256::mul(curve256::generator(), k),
                             naive_mul(curve256::generator(), k)));
  }
}

TEST(Curve256Test, HashToCurveLandsOnCurveDeterministically) {
  for (int i = 0; i < 5; ++i) {
    Bytes seed = bytes_of("seed" + std::to_string(i));
    Point p = curve256::hash_to_curve("domain", seed);
    EXPECT_TRUE(curve256::on_curve(p));
    EXPECT_FALSE(curve256::is_infinity(p));
    EXPECT_TRUE(curve256::eq(p, curve256::hash_to_curve("domain", seed)));
  }
  EXPECT_FALSE(curve256::eq(curve256::hash_to_curve("domain", bytes_of("a")),
                            curve256::hash_to_curve("domain", bytes_of("b"))));
}

}  // namespace
}  // namespace sintra::crypto
