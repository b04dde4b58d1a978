// Unit and property tests for the arbitrary-precision integer library —
// the numeric substrate under every threshold primitive.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"

namespace sintra::crypto {
namespace {

TEST(BigIntTest, ZeroProperties) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_negative());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_string(), "0");
  EXPECT_TRUE(zero.to_bytes().empty());
}

TEST(BigIntTest, SmallConstruction) {
  EXPECT_EQ(BigInt(42).to_string(), "42");
  EXPECT_EQ(BigInt(-42).to_string(), "-42");
  EXPECT_EQ(BigInt(1).low_u64(), 1u);
  EXPECT_TRUE(BigInt(1).is_one());
  EXPECT_FALSE(BigInt(-1).is_one());
}

TEST(BigIntTest, Int64MinSafe) {
  BigInt v(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.to_string(), "-9223372036854775808");
}

TEST(BigIntTest, ParseDecimalAndHex) {
  EXPECT_EQ(BigInt::from_string("123456789012345678901234567890").to_string(),
            "123456789012345678901234567890");
  EXPECT_EQ(BigInt::from_string("-987").to_string(), "-987");
  EXPECT_EQ(BigInt::from_string("0xff").to_string(), "255");
  EXPECT_EQ(BigInt::from_string("0xdeadbeef").to_hex(), "deadbeef");
  EXPECT_THROW(BigInt::from_string("12a"), ProtocolError);
  EXPECT_THROW(BigInt::from_string(""), ProtocolError);
}

TEST(BigIntTest, BytesRoundTrip) {
  BigInt v = BigInt::from_string("0x0102030405060708090a0b0c0d0e0f");
  Bytes raw = v.to_bytes();
  EXPECT_EQ(BigInt::from_bytes(raw), v);
  Bytes padded = v.to_bytes_padded(32);
  EXPECT_EQ(padded.size(), 32u);
  EXPECT_EQ(BigInt::from_bytes(padded), v);
}

TEST(BigIntTest, PaddingTooNarrowThrows) {
  BigInt v = BigInt::from_string("0x010203");
  EXPECT_THROW(v.to_bytes_padded(2), ProtocolError);
}

TEST(BigIntTest, Comparisons) {
  BigInt a(5);
  BigInt b(7);
  BigInt c(-5);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LT(c, a);
  EXPECT_LT(c, BigInt(0));
  EXPECT_EQ(a, BigInt(5));
  EXPECT_LE(a, a);
  EXPECT_GE(a, c);
  EXPECT_LT(BigInt(-7), BigInt(-5));
}

TEST(BigIntTest, AdditionSignCases) {
  EXPECT_EQ((BigInt(5) + BigInt(7)).to_string(), "12");
  EXPECT_EQ((BigInt(5) + BigInt(-7)).to_string(), "-2");
  EXPECT_EQ((BigInt(-5) + BigInt(7)).to_string(), "2");
  EXPECT_EQ((BigInt(-5) + BigInt(-7)).to_string(), "-12");
  EXPECT_TRUE((BigInt(5) + BigInt(-5)).is_zero());
}

TEST(BigIntTest, SubtractionSignCases) {
  EXPECT_EQ((BigInt(5) - BigInt(7)).to_string(), "-2");
  EXPECT_EQ((BigInt(7) - BigInt(5)).to_string(), "2");
  EXPECT_EQ((BigInt(-5) - BigInt(-7)).to_string(), "2");
  EXPECT_TRUE((BigInt(7) - BigInt(7)).is_zero());
}

TEST(BigIntTest, CarryPropagation) {
  BigInt max64 = BigInt::from_string("0xffffffffffffffff");
  EXPECT_EQ((max64 + BigInt(1)).to_hex(), "10000000000000000");
  EXPECT_EQ((max64 * max64).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigIntTest, MultiplicationKnownAnswer) {
  BigInt a = BigInt::from_string("123456789012345678901234567890");
  BigInt b = BigInt::from_string("987654321098765432109876543210");
  EXPECT_EQ((a * b).to_string(),
            "121932631137021795226185032733622923332237463801111263526900");
  EXPECT_EQ((a * BigInt(0)).to_string(), "0");
  EXPECT_EQ((a * BigInt(-1)).to_string(), "-123456789012345678901234567890");
}

TEST(BigIntTest, DivisionKnownAnswers) {
  EXPECT_EQ((BigInt(100) / BigInt(7)).to_string(), "14");
  EXPECT_EQ((BigInt(100) % BigInt(7)).to_string(), "2");
  // C semantics: truncation toward zero; remainder has dividend's sign.
  EXPECT_EQ((BigInt(-100) / BigInt(7)).to_string(), "-14");
  EXPECT_EQ((BigInt(-100) % BigInt(7)).to_string(), "-2");
  EXPECT_EQ((BigInt(100) / BigInt(-7)).to_string(), "-14");
  EXPECT_EQ((BigInt(100) % BigInt(-7)).to_string(), "2");
}

TEST(BigIntTest, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(5) / BigInt(0), ProtocolError);
}

TEST(BigIntTest, DivisionPropertyRandom) {
  Rng rng(101);
  for (int i = 0; i < 300; ++i) {
    const std::size_t abits = 1 + rng.below(512);
    const std::size_t bbits = 1 + rng.below(256);
    BigInt a = BigInt::random_bits(rng, abits);
    BigInt b = BigInt::random_bits(rng, bbits);
    BigInt q;
    BigInt r;
    BigInt::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a) << "iteration " << i;
    EXPECT_LT(r, b);
    EXPECT_FALSE(r.is_negative());
  }
}

TEST(BigIntTest, DivisionAddBackCase) {
  // Exercises the rare "add back" branch of Knuth D with crafted values.
  BigInt a = BigInt::from_string("0x80000000000000000000000000000000"
                                 "00000000000000000000000000000000");
  BigInt b = BigInt::from_string("0x80000000000000000000000000000001");
  BigInt q;
  BigInt r;
  BigInt::divmod(a, b, q, r);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

TEST(BigIntTest, Shifts) {
  BigInt v = BigInt::from_string("0x1234");
  EXPECT_EQ(v.shifted_left(4).to_hex(), "12340");
  EXPECT_EQ(v.shifted_left(64).to_hex(), "12340000000000000000");
  EXPECT_EQ(v.shifted_right(4).to_hex(), "123");
  EXPECT_EQ(v.shifted_right(16).to_hex(), "0");
  EXPECT_EQ(v.shifted_left(67).shifted_right(67), v);
}

TEST(BigIntTest, BitAccess) {
  BigInt v(5);  // binary 101
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(2));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 3u);
}

TEST(BigIntTest, MathematicalMod) {
  BigInt m(7);
  EXPECT_EQ(BigInt(-1).mod(m).to_string(), "6");
  EXPECT_EQ(BigInt(-8).mod(m).to_string(), "6");
  EXPECT_EQ(BigInt(13).mod(m).to_string(), "6");
  EXPECT_THROW(BigInt(5).mod(BigInt(-7)), ProtocolError);
}

TEST(BigIntTest, PowModKnownAnswers) {
  EXPECT_EQ(BigInt::pow_mod(BigInt(2), BigInt(10), BigInt(1000)).to_string(), "24");
  EXPECT_EQ(BigInt::pow_mod(BigInt(5), BigInt(0), BigInt(7)).to_string(), "1");
  EXPECT_EQ(BigInt::pow_mod(BigInt(5), BigInt(3), BigInt(1)).to_string(), "0");
  // Fermat: a^(p-1) = 1 mod p.
  BigInt p = BigInt::from_string("1000000007");
  EXPECT_TRUE(BigInt::pow_mod(BigInt(123456), p - BigInt(1), p).is_one());
}

TEST(BigIntTest, PowModLargeWindowedMatchesSquareMultiply) {
  Rng rng(55);
  BigInt m = BigInt::random_bits(rng, 256);
  if (!m.is_odd()) m += BigInt(1);
  for (int i = 0; i < 10; ++i) {
    BigInt base = BigInt::random_below(rng, m);
    BigInt small_exp = BigInt::from_u64(rng.below(65536));
    // Reference: repeated multiplication.
    BigInt expected(1);
    for (std::uint64_t k = 0; k < small_exp.low_u64(); ++k) {
      expected = BigInt::mul_mod(expected, base, m);
    }
    EXPECT_EQ(BigInt::pow_mod(base, small_exp, m), expected);
  }
}

TEST(BigIntTest, PowModNegativeExponentThrows) {
  EXPECT_THROW(BigInt::pow_mod(BigInt(2), BigInt(-1), BigInt(7)), ProtocolError);
}

TEST(BigIntTest, InverseMod) {
  BigInt p = BigInt::from_string("1000000007");
  Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt(1) + BigInt::random_below(rng, p - BigInt(1));
    BigInt inv = BigInt::inverse_mod(a, p);
    EXPECT_TRUE(BigInt::mul_mod(a, inv, p).is_one());
  }
  EXPECT_THROW(BigInt::inverse_mod(BigInt(6), BigInt(9)), ProtocolError);
}

TEST(BigIntTest, GcdAndExtendedGcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(18)).to_string(), "6");
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_string(), "5");
  EXPECT_EQ(BigInt::gcd(BigInt(-48), BigInt(18)).to_string(), "6");
  BigInt x;
  BigInt y;
  BigInt g = BigInt::extended_gcd(BigInt(240), BigInt(46), x, y);
  EXPECT_EQ(g.to_string(), "2");
  EXPECT_EQ(BigInt(240) * x + BigInt(46) * y, g);
}

// gcd and inverse_mod run binary (Stein) kernels over fixed-width limb
// buffers; extended_gcd keeps the textbook Euclid and serves as the oracle.
TEST(BigIntTest, BinaryGcdAndInverseMatchEuclidOracle) {
  auto oracle_gcd = [](const BigInt& a, const BigInt& b, BigInt& x) {
    BigInt y;
    return BigInt::extended_gcd(a.is_negative() ? -a : a, b, x, y);
  };
  Rng rng(79);
  for (int i = 0; i < 2000; ++i) {
    BigInt m = BigInt::random_bits(rng, 1 + rng.below(1100));
    if (rng.below(4) != 0 && !m.is_odd()) m += BigInt(1);  // mostly odd, some even
    BigInt a;
    switch (rng.below(5)) {
      case 0: break;  // a = 0
      case 1: a = m * BigInt::random_bits(rng, 1 + rng.below(64)) + BigInt(1 + rng.below(9));
        break;  // a >= m
      case 2: {  // shared factor f >= 2: never invertible
        const BigInt f = BigInt::random_bits(rng, 2 + rng.below(200));
        a = f * BigInt::random_bits(rng, 1 + rng.below(1000));
        m = f * m;
        break;
      }
      default: a = BigInt::random_bits(rng, 1 + rng.below(1100)); break;
    }
    if (rng.below(2) != 0) a = -a;
    BigInt x;
    const BigInt g = oracle_gcd(a, m, x);
    ASSERT_EQ(BigInt::gcd(a, m), g) << "case " << i;
    ASSERT_EQ(BigInt::gcd(m, a), g) << "case " << i;
    if (g.is_one()) {
      const BigInt inv = BigInt::inverse_mod(a, m);
      ASSERT_EQ(inv, (a.is_negative() ? -x : x).mod(m)) << "case " << i;
      if (!m.is_one()) {
        ASSERT_TRUE(BigInt::mul_mod(a, inv, m).is_one()) << "case " << i;
      }
    } else {
      ASSERT_THROW((void)BigInt::inverse_mod(a, m), ProtocolError) << "case " << i;
    }
  }
  EXPECT_TRUE(BigInt::gcd(BigInt(0), BigInt(0)).is_zero());
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(0)), BigInt(12));
  EXPECT_EQ(BigInt::gcd(BigInt(1).shifted_left(300), BigInt(3).shifted_left(200)),
            BigInt(1).shifted_left(200));
  // Z_1 = {0}: the inverse of anything mod 1 is 0, not an error.
  EXPECT_TRUE(BigInt::inverse_mod(BigInt(5), BigInt(1)).is_zero());
  EXPECT_TRUE(BigInt::inverse_mod(BigInt(-7), BigInt(1)).is_zero());
  EXPECT_TRUE(BigInt::inverse_mod(BigInt(0), BigInt(1)).is_zero());
  EXPECT_EQ(BigInt::inverse_mod(BigInt(3), BigInt(4)), BigInt(3));  // even modulus
  EXPECT_THROW((void)BigInt::inverse_mod(BigInt(0), BigInt(7)), ProtocolError);
  EXPECT_THROW((void)BigInt::inverse_mod(BigInt(3), BigInt(-7)), ProtocolError);
}

TEST(BigIntTest, Factorial) {
  EXPECT_EQ(BigInt::factorial(0).to_string(), "1");
  EXPECT_EQ(BigInt::factorial(5).to_string(), "120");
  EXPECT_EQ(BigInt::factorial(20).to_string(), "2432902008176640000");
  EXPECT_EQ(BigInt::factorial(30).to_string(), "265252859812191058636308480000000");
}

TEST(BigIntTest, RandomBelowInRange) {
  Rng rng(31);
  BigInt bound = BigInt::from_string("1000000000000000000000");
  for (int i = 0; i < 100; ++i) {
    BigInt v = BigInt::random_below(rng, bound);
    EXPECT_LT(v, bound);
    EXPECT_FALSE(v.is_negative());
  }
}

TEST(BigIntTest, RandomBitsExactLength) {
  Rng rng(33);
  for (std::size_t bits : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 255u}) {
    EXPECT_EQ(BigInt::random_bits(rng, bits).bit_length(), bits);
  }
}

TEST(BigIntTest, PrimalityKnownPrimes) {
  Rng rng(41);
  for (std::int64_t p : {2, 3, 5, 7, 97, 65537, 1000003}) {
    EXPECT_TRUE(BigInt(p).is_probable_prime(rng)) << p;
  }
  // A large known prime (2^127 - 1, Mersenne).
  BigInt m127 = BigInt(1).shifted_left(127) - BigInt(1);
  EXPECT_TRUE(m127.is_probable_prime(rng));
}

TEST(BigIntTest, PrimalityKnownComposites) {
  Rng rng(43);
  for (std::int64_t c : {0, 1, 4, 9, 15, 91, 561 /* Carmichael */, 65536, 1000001}) {
    EXPECT_FALSE(BigInt(c).is_probable_prime(rng)) << c;
  }
  // Product of two primes.
  BigInt composite = BigInt::from_string("1000003") * BigInt::from_string("1000033");
  EXPECT_FALSE(composite.is_probable_prime(rng));
}

TEST(BigIntTest, RandomPrimeGeneration) {
  Rng rng(47);
  BigInt p = BigInt::random_prime(rng, 64);
  EXPECT_EQ(p.bit_length(), 64u);
  EXPECT_TRUE(p.is_probable_prime(rng));
}

TEST(BigIntTest, SafePrimeGeneration) {
  Rng rng(49);
  BigInt p = BigInt::random_safe_prime(rng, 48);
  EXPECT_EQ(p.bit_length(), 48u);
  EXPECT_TRUE(p.is_probable_prime(rng));
  BigInt q = (p - BigInt(1)).shifted_right(1);
  EXPECT_TRUE(q.is_probable_prime(rng));
}

TEST(BigIntTest, SerializationRoundTrip) {
  Rng rng(51);
  for (int i = 0; i < 50; ++i) {
    BigInt v = BigInt::random_bits(rng, 1 + rng.below(300));
    if (rng.below(2) == 0) v = -v;
    Writer w;
    v.encode(w);
    Reader r(w.data());
    EXPECT_EQ(BigInt::decode(r), v);
    r.expect_done();
  }
}

TEST(BigIntTest, NegativeZeroRejected) {
  Writer w;
  w.boolean(true);   // negative flag
  w.bytes(Bytes{});  // zero magnitude
  Reader r(w.data());
  EXPECT_THROW(BigInt::decode(r), ProtocolError);
}

TEST(BigIntTest, ArithmeticPropertyRandom) {
  Rng rng(61);
  for (int i = 0; i < 200; ++i) {
    BigInt a = BigInt::random_bits(rng, 1 + rng.below(200));
    BigInt b = BigInt::random_bits(rng, 1 + rng.below(200));
    BigInt c = BigInt::random_bits(rng, 1 + rng.below(100));
    if (rng.below(2)) a = -a;
    if (rng.below(2)) b = -b;
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ(a - b, -(b - a));
    EXPECT_EQ((a + b) - b, a);
  }
}

TEST(BigIntTest, ModArithmeticConsistency) {
  Rng rng(63);
  BigInt m = BigInt::random_bits(rng, 128);
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::random_bits(rng, 200);
    BigInt b = BigInt::random_bits(rng, 200);
    EXPECT_EQ(BigInt::add_mod(a, b, m), (a + b).mod(m));
    EXPECT_EQ(BigInt::sub_mod(a, b, m), (a - b).mod(m));
    EXPECT_EQ(BigInt::mul_mod(a, b, m), (a * b).mod(m));
  }
}

}  // namespace
}  // namespace sintra::crypto
