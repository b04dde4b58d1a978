// Arbitrary-precision integers, implemented from scratch.
//
// This is the numeric substrate for the whole threshold-cryptography layer:
// Schnorr-group arithmetic (coin, TDH2), RSA (Shoup threshold signatures),
// Shamir sharing over Z_q, and integer-Lagrange interpolation with the
// Δ = n! clearing trick used by the threshold RSA scheme (which requires
// signed arithmetic — hence BigInt carries a sign).
//
// Representation: sign/magnitude, magnitude as little-endian vector of
// 64-bit limbs with no trailing zero limbs (zero is an empty vector,
// sign +1).  Multiplication is schoolbook with 128-bit accumulation;
// division is Knuth Algorithm D; modular exponentiation uses a fixed
// 4-bit window, or plain square-and-multiply when the exponent is sparse
// enough that it needs fewer products (e = 65537).  A base that stays
// fixed for a long time (threshold RSA's v) or across several
// exponentiations (its per-message x²) can instead be raised through a
// Montgomery::FixedBase table: one entry per 5-bit window, evaluated with
// Yao/BGMW in about bits/5 + 32 products and no squarings.  gcd and
// inverse_mod (odd moduli) are binary: Stein's
// GCD and a binary extended Euclid, in place over one fixed-width limb
// buffer; extended_gcd keeps the textbook Euclid for Bézout pairs and
// even moduli.  Performance targets the parameter sizes used by the
// benchmarks (up to ~2048-bit moduli), not production RSA-4096.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace sintra::crypto {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  BigInt(std::int64_t value);  // NOLINT(google-explicit-constructor) - numeric literal ergonomics
  BigInt(std::uint64_t value, int);  ///< tagged unsigned constructor

  static BigInt from_u64(std::uint64_t value);
  /// Parse decimal (optional leading '-') or, with prefix "0x", hex.
  static BigInt from_string(std::string_view text);
  /// Big-endian unsigned bytes.
  static BigInt from_bytes(BytesView data);

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_negative() const { return negative_; }
  [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  [[nodiscard]] bool is_one() const { return !negative_ && limbs_.size() == 1 && limbs_[0] == 1; }

  /// Number of significant bits of the magnitude (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;
  /// Bit i of the magnitude (little-endian bit order).
  [[nodiscard]] bool bit(std::size_t i) const;

  [[nodiscard]] std::string to_string() const;       ///< decimal
  [[nodiscard]] std::string to_hex() const;          ///< lowercase hex, no prefix
  /// Big-endian magnitude, minimal length (empty for zero).  Sign dropped.
  [[nodiscard]] Bytes to_bytes() const;
  /// Big-endian magnitude zero-padded/fit to exactly `width` bytes.
  [[nodiscard]] Bytes to_bytes_padded(std::size_t width) const;
  /// Low 64 bits of the magnitude (for small values / tests).
  [[nodiscard]] std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  // -- comparison ---------------------------------------------------------
  [[nodiscard]] int compare(const BigInt& other) const;  ///< -1 / 0 / +1
  friend bool operator==(const BigInt& a, const BigInt& b) { return a.compare(b) == 0; }
  friend bool operator!=(const BigInt& a, const BigInt& b) { return a.compare(b) != 0; }
  friend bool operator<(const BigInt& a, const BigInt& b) { return a.compare(b) < 0; }
  friend bool operator<=(const BigInt& a, const BigInt& b) { return a.compare(b) <= 0; }
  friend bool operator>(const BigInt& a, const BigInt& b) { return a.compare(b) > 0; }
  friend bool operator>=(const BigInt& a, const BigInt& b) { return a.compare(b) >= 0; }

  // -- arithmetic ---------------------------------------------------------
  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  /// Truncated division (C semantics: quotient rounds toward zero).
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  /// Remainder with the sign of the dividend (C semantics).
  friend BigInt operator%(const BigInt& a, const BigInt& b);
  BigInt operator-() const;

  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator-=(const BigInt& other) { return *this = *this - other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }

  [[nodiscard]] BigInt shifted_left(std::size_t bits) const;
  [[nodiscard]] BigInt shifted_right(std::size_t bits) const;

  /// Quotient and remainder in one division.
  static void divmod(const BigInt& a, const BigInt& b, BigInt& quotient, BigInt& remainder);

  // -- modular arithmetic (modulus must be positive) -----------------------
  /// Mathematical mod: result in [0, m).
  [[nodiscard]] BigInt mod(const BigInt& m) const;
  static BigInt add_mod(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt sub_mod(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt mul_mod(const BigInt& a, const BigInt& b, const BigInt& m);
  /// a^e mod m; e must be non-negative.  Dispatches to Montgomery REDC for
  /// odd multi-limb moduli and falls back to the schoolbook-divmod path
  /// otherwise; both paths return bit-identical results.
  static BigInt pow_mod(const BigInt& base, const BigInt& exponent, const BigInt& m);
  /// The original windowed square-and-multiply with full divmod reduction.
  /// Kept as the differential-testing oracle for the Montgomery fast path
  /// and as the fallback for even moduli.
  static BigInt pow_mod_reference(const BigInt& base, const BigInt& exponent, const BigInt& m);
  /// b1^e1 * b2^e2 mod m (Shamir's trick / interleaved windows when the
  /// Montgomery path applies); e1, e2 must be non-negative.
  static BigInt pow2_mod(const BigInt& b1, const BigInt& e1, const BigInt& b2, const BigInt& e2,
                         const BigInt& m);
  /// Multiplicative inverse mod m (m positive), in [0, m); throws
  /// ProtocolError if gcd(a, m) != 1.  Mod 1 every inverse is 0.
  static BigInt inverse_mod(const BigInt& a, const BigInt& m);

  /// Non-negative gcd of |a| and |b| (gcd(0, 0) = 0).
  static BigInt gcd(const BigInt& a, const BigInt& b);
  /// g = gcd(a,b) and Bézout coefficients: a*x + b*y = g.
  static BigInt extended_gcd(const BigInt& a, const BigInt& b, BigInt& x, BigInt& y);

  /// n! as a BigInt (the Δ of Shoup's threshold RSA scheme).
  static BigInt factorial(unsigned n);

  // -- randomness & primality ---------------------------------------------
  /// Uniform in [0, bound); bound must be positive.
  template <typename RngT>
  static BigInt random_below(RngT& rng, const BigInt& bound);
  /// Uniform with exactly `bits` bits (top bit set).
  template <typename RngT>
  static BigInt random_bits(RngT& rng, std::size_t bits);

  /// Miller–Rabin with `rounds` random bases (plus small-prime sieve).
  template <typename RngT>
  [[nodiscard]] bool is_probable_prime(RngT& rng, int rounds = 32) const;

  /// Random prime with exactly `bits` bits.
  template <typename RngT>
  static BigInt random_prime(RngT& rng, std::size_t bits);
  /// Random safe prime p = 2p' + 1 (p' prime) with exactly `bits` bits.
  template <typename RngT>
  static BigInt random_safe_prime(RngT& rng, std::size_t bits);

  // -- serialization -------------------------------------------------------
  void encode(Writer& w) const;
  static BigInt decode(Reader& r);

 private:
  void trim();
  [[nodiscard]] int compare_magnitude(const BigInt& other) const;
  static std::vector<std::uint64_t> add_magnitudes(const std::vector<std::uint64_t>& a,
                                                   const std::vector<std::uint64_t>& b);
  /// Requires |a| >= |b|.
  static std::vector<std::uint64_t> sub_magnitudes(const std::vector<std::uint64_t>& a,
                                                   const std::vector<std::uint64_t>& b);
  static std::vector<std::uint64_t> mul_magnitudes(const std::vector<std::uint64_t>& a,
                                                   const std::vector<std::uint64_t>& b);
  static void divmod_magnitudes(const std::vector<std::uint64_t>& a,
                                const std::vector<std::uint64_t>& b,
                                std::vector<std::uint64_t>& quotient,
                                std::vector<std::uint64_t>& remainder);
  [[nodiscard]] bool miller_rabin_witness(const BigInt& base) const;
  [[nodiscard]] bool divisible_by_small_prime() const;

  bool negative_ = false;
  std::vector<std::uint64_t> limbs_;  ///< little-endian, trimmed

  friend class Montgomery;
};

/// Montgomery-form modular arithmetic for a fixed odd modulus m.
///
/// Values in "Montgomery domain" represent x as x*R mod m with R = 2^(64*n)
/// for n the limb count of m.  The core operation is the fused CIOS
/// multiply-and-reduce (mont_mul), which replaces the schoolbook
/// multiply + Knuth-D divmod of the reference path with pure carry-save
/// limb work — the inner loop of every exponentiation in the threshold
/// stack.  Construction costs one wide divmod (R^2 mod m); every Group
/// caches one context per modulus so that cost is paid once per deployment.
class Montgomery {
 public:
  /// `modulus` must be positive and odd.
  explicit Montgomery(BigInt modulus);

  [[nodiscard]] const BigInt& modulus() const { return m_big_; }
  [[nodiscard]] std::size_t limb_count() const { return n_; }

  /// a*R mod m (a may be any integer; it is first reduced into [0, m)).
  [[nodiscard]] BigInt to_mont(const BigInt& a) const;
  /// a*R^{-1} mod m for a in [0, m).
  [[nodiscard]] BigInt from_mont(const BigInt& a) const;
  /// Montgomery product of two Montgomery-domain values: a*b*R^{-1} mod m.
  [[nodiscard]] BigInt mul(const BigInt& a_mont, const BigInt& b_mont) const;
  /// Normal-domain modular multiplication via two REDC passes.
  [[nodiscard]] BigInt mul_mod(const BigInt& a, const BigInt& b) const;
  /// Normal-domain base^exponent mod m; exponent must be non-negative.
  [[nodiscard]] BigInt pow(const BigInt& base, const BigInt& exponent) const;
  /// b1^e1 * b2^e2 mod m with interleaved 2-bit windows (one shared
  /// squaring chain); exponents must be non-negative.
  [[nodiscard]] BigInt pow2(const BigInt& b1, const BigInt& e1, const BigInt& b2,
                            const BigInt& e2) const;
  /// prod_i base_i^{exp_i} mod m, all exponents non-negative.  Generalizes
  /// pow2 to k bases with one shared squaring chain.
  [[nodiscard]] BigInt multi_pow(const std::vector<std::pair<BigInt, BigInt>>& pairs) const;

  /// Exponent window of a FixedBase table, in bits.
  static constexpr std::size_t kFixedWindow = 5;

  /// Fixed-base table for one base: base^(2^(w·i)) in Montgomery form, one
  /// entry per w-bit window of the exponent.  That is one power per window,
  /// not the 2^w - 1 multiples per window of SchnorrGroup's layout, so a
  /// table covering an RSA proof response stays near 9 KB.  Immutable once
  /// built: threads may share one table without a lock.
  class FixedBase {
   public:
    /// Widest exponent the table serves without falling back to pow.
    [[nodiscard]] std::size_t max_bits() const { return windows_ * kFixedWindow; }

   private:
    friend class Montgomery;
    BigInt base_;                        ///< reduced base, for the fallback
    std::size_t windows_ = 0;
    std::vector<std::uint64_t> powers_;  ///< windows_ entries of n limbs each
  };

  /// Table for `base` covering exponents of up to `max_bits` bits (rounded
  /// up to whole windows).  Costs about `max_bits` squarings.
  [[nodiscard]] FixedBase fixed_base(const BigInt& base, std::size_t max_bits) const;
  /// base^exponent from a table built by this context: Yao/BGMW, about
  /// bits/w + 2^w products and no squarings.  An exponent wider than
  /// table.max_bits() falls back to pow.  Exponent must be non-negative.
  [[nodiscard]] BigInt pow_fixed(const FixedBase& table, const BigInt& exponent) const;

  /// R mod m — the Montgomery-domain representation of 1.
  [[nodiscard]] const BigInt& one_mont() const { return one_mont_; }

 private:
  using Limbs = std::vector<std::uint64_t>;

  /// out[0..n) = a*b*R^{-1} mod m for a, b of exactly n limbs (< m).
  /// `scratch` must have n+1 limbs; out may alias a or b.
  void mont_mul_limbs(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                      std::uint64_t* scratch) const;
  [[nodiscard]] Limbs load(const BigInt& a) const;  ///< zero-padded to n limbs
  [[nodiscard]] BigInt store(const Limbs& limbs) const;

  BigInt m_big_;
  BigInt r2_;        ///< R^2 mod m
  BigInt one_mont_;  ///< R mod m
  Limbs m_;          ///< modulus, exactly n_ limbs
  std::uint64_t n0_ = 0;  ///< -m^{-1} mod 2^64
  std::size_t n_ = 0;
};

// ---- template definitions -------------------------------------------------

template <typename RngT>
BigInt BigInt::random_below(RngT& rng, const BigInt& bound) {
  const std::size_t bits = bound.bit_length();
  // Rejection sampling: draw `bits` random bits until below bound.
  for (;;) {
    Bytes raw = rng.bytes((bits + 7) / 8);
    // Mask excess top bits.
    const std::size_t excess = raw.size() * 8 - bits;
    if (!raw.empty()) raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    BigInt candidate = BigInt::from_bytes(raw);
    if (candidate < bound) return candidate;
  }
}

template <typename RngT>
BigInt BigInt::random_bits(RngT& rng, std::size_t bits) {
  Bytes raw = rng.bytes((bits + 7) / 8);
  const std::size_t excess = raw.size() * 8 - bits;
  raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
  raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);  // force exact bit length
  return BigInt::from_bytes(raw);
}

template <typename RngT>
bool BigInt::is_probable_prime(RngT& rng, int rounds) const {
  if (negative_ || is_zero()) return false;
  if (limbs_.size() == 1) {
    std::uint64_t v = limbs_[0];
    if (v < 2) return false;
    if (v == 2 || v == 3) return true;
  }
  if (!is_odd()) return false;
  // The sieve reports false when *this equals the small prime itself.
  if (divisible_by_small_prime()) return false;
  const BigInt two(2);
  const BigInt n_minus_3 = *this - BigInt(3);
  for (int i = 0; i < rounds; ++i) {
    BigInt base = two + random_below(rng, n_minus_3);
    if (!miller_rabin_witness(base)) return false;
  }
  return true;
}

template <typename RngT>
BigInt BigInt::random_prime(RngT& rng, std::size_t bits) {
  for (;;) {
    BigInt candidate = random_bits(rng, bits);
    if (!candidate.is_odd()) candidate += BigInt(1);
    if (candidate.is_probable_prime(rng)) return candidate;
  }
}

template <typename RngT>
BigInt BigInt::random_safe_prime(RngT& rng, std::size_t bits) {
  for (;;) {
    BigInt q = random_prime(rng, bits - 1);
    BigInt p = q.shifted_left(1) + BigInt(1);
    if (p.bit_length() == bits && p.is_probable_prime(rng)) return p;
  }
}

}  // namespace sintra::crypto
