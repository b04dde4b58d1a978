#include "crypto/bigint.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/assert.hpp"

namespace sintra::crypto {

namespace {
using Limbs = std::vector<std::uint64_t>;

constexpr std::uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127,
    131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
    293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
    389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467,
    479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569, 571, 577,
    587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659, 661,
    673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769,
    773, 787, 797, 809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877,
    881, 883, 887, 907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983,
    991, 997};
}  // namespace

BigInt::BigInt(std::int64_t value) {
  if (value < 0) {
    negative_ = true;
    // Avoid UB on INT64_MIN.
    limbs_.push_back(static_cast<std::uint64_t>(-(value + 1)) + 1);
  } else if (value > 0) {
    limbs_.push_back(static_cast<std::uint64_t>(value));
  }
}

BigInt::BigInt(std::uint64_t value, int) {
  if (value != 0) limbs_.push_back(value);
}

BigInt BigInt::from_u64(std::uint64_t value) {
  return BigInt(value, 0);
}

BigInt BigInt::from_string(std::string_view text) {
  bool negative = false;
  if (!text.empty() && text[0] == '-') {
    negative = true;
    text.remove_prefix(1);
  }
  SINTRA_REQUIRE(!text.empty(), "BigInt: empty numeric string");
  BigInt result;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    std::string_view hex = text.substr(2);
    std::string padded(hex.size() % 2 == 1 ? "0" : "");
    padded += hex;
    result = from_bytes(from_hex(padded));
  } else {
    const BigInt ten(10);
    for (char c : text) {
      SINTRA_REQUIRE(c >= '0' && c <= '9', "BigInt: invalid decimal digit");
      result = result * ten + BigInt(c - '0');
    }
  }
  result.negative_ = negative && !result.is_zero();
  return result;
}

BigInt BigInt::from_bytes(BytesView data) {
  BigInt result;
  // Big-endian bytes -> little-endian limbs.
  std::size_t n = data.size();
  result.limbs_.resize((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t byte_index = n - 1 - i;  // position from LSB
    result.limbs_[byte_index / 8] |=
        static_cast<std::uint64_t>(data[i]) << (8 * (byte_index % 8));
  }
  result.trim();
  return result;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::uint64_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 64;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  std::string digits;
  BigInt value = *this;
  value.negative_ = false;
  const BigInt ten(10);
  BigInt quotient;
  BigInt remainder;
  while (!value.is_zero()) {
    divmod(value, ten, quotient, remainder);
    digits.push_back(static_cast<char>('0' + remainder.low_u64()));
    value = quotient;
  }
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  Bytes raw = to_bytes();
  std::string hex = sintra::to_hex(raw);
  // Strip a single leading zero nibble if present.
  if (hex.size() > 1 && hex[0] == '0') hex.erase(0, 1);
  return negative_ ? "-" + hex : hex;
}

Bytes BigInt::to_bytes() const {
  if (limbs_.empty()) return {};
  std::size_t bytes_needed = (bit_length() + 7) / 8;
  return to_bytes_padded(bytes_needed);
}

Bytes BigInt::to_bytes_padded(std::size_t width) const {
  SINTRA_REQUIRE((bit_length() + 7) / 8 <= width, "BigInt: value too wide for padding");
  Bytes out(width, 0);
  for (std::size_t i = 0; i < width; ++i) {
    std::size_t byte_index = width - 1 - i;  // position from LSB
    std::size_t limb = byte_index / 8;
    if (limb < limbs_.size()) {
      out[i] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (byte_index % 8)));
    }
  }
  return out;
}

int BigInt::compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = compare_magnitude(other);
  return negative_ ? -mag : mag;
}

int BigInt::compare_magnitude(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

Limbs BigInt::add_magnitudes(const Limbs& a, const Limbs& b) {
  const Limbs& longer = a.size() >= b.size() ? a : b;
  const Limbs& shorter = a.size() >= b.size() ? b : a;
  Limbs out(longer.size() + 1, 0);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    unsigned __int128 sum = carry + longer[i];
    if (i < shorter.size()) sum += shorter[i];
    out[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  out[longer.size()] = static_cast<std::uint64_t>(carry);
  return out;
}

Limbs BigInt::sub_magnitudes(const Limbs& a, const Limbs& b) {
  Limbs out(a.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    unsigned __int128 lhs = a[i];
    unsigned __int128 rhs = (i < b.size() ? b[i] : 0);
    rhs += static_cast<unsigned __int128>(borrow);
    if (lhs >= rhs) {
      out[i] = static_cast<std::uint64_t>(lhs - rhs);
      borrow = 0;
    } else {
      out[i] = static_cast<std::uint64_t>((static_cast<unsigned __int128>(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  return out;
}

Limbs BigInt::mul_magnitudes(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  Limbs out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      unsigned __int128 cur = out[i + j] + carry +
                              static_cast<unsigned __int128>(a[i]) * b[j];
      out[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      unsigned __int128 cur = out[k] + carry;
      out[k] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  return out;
}

// Knuth Algorithm D, normalized so the divisor's top limb has its high bit set.
void BigInt::divmod_magnitudes(const Limbs& a, const Limbs& b, Limbs& quotient, Limbs& remainder) {
  SINTRA_REQUIRE(!b.empty(), "BigInt: division by zero");
  // Fast paths.
  if (a.size() < b.size() ||
      (a.size() == b.size() &&
       std::lexicographical_compare(a.rbegin(), a.rend(), b.rbegin(), b.rend()))) {
    quotient.clear();
    remainder = a;
    return;
  }
  if (b.size() == 1) {
    quotient.assign(a.size(), 0);
    unsigned __int128 rem = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
      unsigned __int128 cur = (rem << 64) | a[i];
      quotient[i] = static_cast<std::uint64_t>(cur / b[0]);
      rem = cur % b[0];
    }
    remainder.clear();
    if (rem != 0) remainder.push_back(static_cast<std::uint64_t>(rem));
    return;
  }

  // Normalize.
  int shift = 0;
  std::uint64_t top = b.back();
  while (!(top & (1ULL << 63))) {
    top <<= 1;
    ++shift;
  }
  auto shl = [&](const Limbs& src, int s) {
    if (s == 0) {
      Limbs out = src;
      out.push_back(0);
      return out;
    }
    Limbs out(src.size() + 1, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
      out[i] |= src[i] << s;
      out[i + 1] = src[i] >> (64 - s);
    }
    return out;
  };
  Limbs u = shl(a, shift);            // size n + m + 1 (with extra limb)
  Limbs v = shl(b, shift);            // normalized divisor
  while (v.size() > b.size()) v.pop_back();  // drop the zero extension
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n - 1;

  quotient.assign(m + 1, 0);
  const unsigned __int128 base = static_cast<unsigned __int128>(1) << 64;
  for (std::size_t j = m + 1; j-- > 0;) {
    unsigned __int128 numerator = (static_cast<unsigned __int128>(u[j + n]) << 64) | u[j + n - 1];
    unsigned __int128 qhat = numerator / v[n - 1];
    unsigned __int128 rhat = numerator % v[n - 1];
    while (qhat >= base ||
           qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= base) break;
    }
    // Multiply-subtract.
    unsigned __int128 borrow = 0;
    unsigned __int128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      unsigned __int128 product = qhat * v[i] + carry;
      carry = product >> 64;
      std::uint64_t product_low = static_cast<std::uint64_t>(product);
      unsigned __int128 diff = static_cast<unsigned __int128>(u[i + j]) - product_low - borrow;
      u[i + j] = static_cast<std::uint64_t>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
    unsigned __int128 diff = static_cast<unsigned __int128>(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<std::uint64_t>(diff);
    bool negative = (diff >> 64) != 0;

    if (negative) {
      // qhat was one too large: add back.
      --qhat;
      unsigned __int128 add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        unsigned __int128 sum = static_cast<unsigned __int128>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<std::uint64_t>(sum);
        add_carry = sum >> 64;
      }
      u[j + n] = static_cast<std::uint64_t>(u[j + n] + add_carry);
    }
    quotient[j] = static_cast<std::uint64_t>(qhat);
  }

  // Denormalize the remainder (shift right across limbs).
  remainder.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    remainder[i] = shift == 0 ? u[i] : u[i] >> shift;
    if (shift != 0 && i + 1 < n) remainder[i] |= u[i + 1] << (64 - shift);
  }
  while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
  while (!remainder.empty() && remainder.back() == 0) remainder.pop_back();
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  BigInt out;
  if (a.negative_ == b.negative_) {
    out.limbs_ = BigInt::add_magnitudes(a.limbs_, b.limbs_);
    out.negative_ = a.negative_;
  } else {
    int mag = a.compare_magnitude(b);
    if (mag == 0) return BigInt();
    if (mag > 0) {
      out.limbs_ = BigInt::sub_magnitudes(a.limbs_, b.limbs_);
      out.negative_ = a.negative_;
    } else {
      out.limbs_ = BigInt::sub_magnitudes(b.limbs_, a.limbs_);
      out.negative_ = b.negative_;
    }
  }
  out.trim();
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) {
  return a + (-b);
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_ = BigInt::mul_magnitudes(a.limbs_, b.limbs_);
  out.negative_ = a.negative_ != b.negative_;
  out.trim();
  return out;
}

void BigInt::divmod(const BigInt& a, const BigInt& b, BigInt& quotient, BigInt& remainder) {
  Limbs q;
  Limbs r;
  divmod_magnitudes(a.limbs_, b.limbs_, q, r);
  quotient.limbs_ = std::move(q);
  quotient.negative_ = a.negative_ != b.negative_;
  quotient.trim();
  remainder.limbs_ = std::move(r);
  remainder.negative_ = a.negative_;
  remainder.trim();
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  BigInt q;
  BigInt r;
  BigInt::divmod(a, b, q, r);
  return q;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  BigInt q;
  BigInt r;
  BigInt::divmod(a, b, q, r);
  return r;
}

BigInt BigInt::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::shifted_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = bit_shift == 0 ? limbs_[i + limb_shift] : limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::mod(const BigInt& m) const {
  SINTRA_REQUIRE(!m.is_zero() && !m.negative_, "BigInt: modulus must be positive");
  BigInt r = *this % m;
  if (r.negative_) r += m;
  return r;
}

BigInt BigInt::add_mod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a + b).mod(m);
}

BigInt BigInt::sub_mod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a - b).mod(m);
}

BigInt BigInt::mul_mod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b).mod(m);
}

BigInt BigInt::pow_mod(const BigInt& base, const BigInt& exponent, const BigInt& m) {
  SINTRA_REQUIRE(!exponent.negative_, "BigInt: negative exponent");
  SINTRA_REQUIRE(!m.is_zero() && !m.negative_, "BigInt: modulus must be positive");
  if (m.is_one()) return BigInt();
  // Montgomery REDC only works for odd moduli, and its per-call setup (one
  // wide divmod for R^2 mod m) only pays off once the exponent drives more
  // than a handful of modular multiplications.
  if (m.is_odd() && m.limbs_.size() >= 2 && exponent.bit_length() > 16) {
    return Montgomery(m).pow(base, exponent);
  }
  return pow_mod_reference(base, exponent, m);
}

BigInt BigInt::pow2_mod(const BigInt& b1, const BigInt& e1, const BigInt& b2, const BigInt& e2,
                        const BigInt& m) {
  SINTRA_REQUIRE(!e1.negative_ && !e2.negative_, "BigInt: negative exponent");
  SINTRA_REQUIRE(!m.is_zero() && !m.negative_, "BigInt: modulus must be positive");
  if (m.is_one()) return BigInt();
  if (m.is_odd() && m.limbs_.size() >= 2) {
    return Montgomery(m).pow2(b1, e1, b2, e2);
  }
  return mul_mod(pow_mod_reference(b1, e1, m), pow_mod_reference(b2, e2, m), m);
}

BigInt BigInt::pow_mod_reference(const BigInt& base, const BigInt& exponent, const BigInt& m) {
  SINTRA_REQUIRE(!exponent.negative_, "BigInt: negative exponent");
  SINTRA_REQUIRE(!m.is_zero() && !m.negative_, "BigInt: modulus must be positive");
  if (m.is_one()) return BigInt();
  BigInt result(1);
  BigInt b = base.mod(m);
  const std::size_t bits = exponent.bit_length();
  // Left-to-right square-and-multiply with a 4-bit fixed window.
  constexpr std::size_t kWindow = 4;
  if (bits <= 16) {
    for (std::size_t i = bits; i-- > 0;) {
      result = mul_mod(result, result, m);
      if (exponent.bit(i)) result = mul_mod(result, b, m);
    }
    return result;
  }
  // Precompute b^0..b^15.
  std::vector<BigInt> table(1ULL << kWindow);
  table[0] = BigInt(1);
  for (std::size_t i = 1; i < table.size(); ++i) table[i] = mul_mod(table[i - 1], b, m);
  std::size_t i = bits;
  while (i > 0) {
    std::size_t take = std::min(kWindow, i);
    std::uint32_t window = 0;
    for (std::size_t k = 0; k < take; ++k) {
      window = window << 1 | static_cast<std::uint32_t>(exponent.bit(i - 1 - k));
    }
    for (std::size_t k = 0; k < take; ++k) result = mul_mod(result, result, m);
    if (window != 0) result = mul_mod(result, table[window], m);
    i -= take;
  }
  return result;
}

namespace {
// ---- fixed-width limb kernels for the binary GCD and inverse ---------------
//
// Every operand of gcd / inverse_mod lives in one preallocated limb buffer
// and is rewritten in place: a whole GCD costs one allocation, where the
// textbook Euclid paid a heap-allocating Knuth-D divmod per step.

int compare_limbs(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// a -= b over n limbs; returns the borrow out of the top limb.
std::uint64_t sub_limbs(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned __int128 diff = static_cast<unsigned __int128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
  }
  return borrow;
}

/// a += b over n limbs, carry out dropped: callers add m back to a value
/// that just wrapped below zero, so the true sum fits.
void add_limbs(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    carry += static_cast<unsigned __int128>(a[i]) + b[i];
    a[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
}

/// Trailing zero bits of a nonzero limb array.
std::size_t ctz_limbs(const std::uint64_t* a) {
  std::size_t i = 0;
  while (a[i] == 0) ++i;
  return 64 * i + static_cast<std::size_t>(std::countr_zero(a[i]));
}

/// a >>= bits over n limbs, zero fill.
void shr_limbs(std::uint64_t* a, std::size_t n, std::size_t bits) {
  const std::size_t limb_shift = bits / 64;
  const unsigned bit_shift = bits % 64;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t src = i + limb_shift;
    const std::uint64_t lo = src < n ? a[src] : 0;
    const std::uint64_t hi = src + 1 < n ? a[src + 1] : 0;
    a[i] = bit_shift == 0 ? lo : (lo >> bit_shift) | (hi << (64 - bit_shift));
  }
}

/// -m0^{-1} mod 2^64 for odd m0, by Newton iteration (doubles the correct
/// bits each round; 6 rounds cover 64 bits from the 5-bit-correct seed m0).
std::uint64_t neg_inverse_u64(std::uint64_t m0) {
  std::uint64_t inv = m0;
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;
  return ~inv + 1;
}

/// x <- x / 2^s mod m for x in [0, m), odd m of n limbs, 1 <= s <= 63: add
/// the multiple q*m (q < 2^s) that clears the low s bits, then shift.  The
/// sum is below 2^s * m, so the result is below m again.  x has n + 1
/// limbs; the top one only holds the sum's carry.
void div_pow2_mod(std::uint64_t* x, const std::uint64_t* m, std::uint64_t m_neg_inv,
                  std::size_t n, unsigned s) {
  const std::uint64_t q = (x[0] * m_neg_inv) & ((std::uint64_t{1} << s) - 1);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    carry += static_cast<unsigned __int128>(q) * m[i] + x[i];
    x[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  x[n] = static_cast<std::uint64_t>(carry);
  shr_limbs(x, n + 1, s);
}

/// Strip every factor 2 from the nonzero u (`len` live limbs), halving x
/// mod m (n limbs) alongside so the inverse's invariant x * a == u (mod m)
/// keeps holding.
void strip_twos(std::uint64_t* u, std::size_t len, std::uint64_t* x, const std::uint64_t* m,
                std::uint64_t m_neg_inv, std::size_t n) {
  std::size_t k = ctz_limbs(u);
  shr_limbs(u, len, k);
  while (k > 0) {
    const unsigned s = static_cast<unsigned>(std::min<std::size_t>(k, 63));
    div_pow2_mod(x, m, m_neg_inv, n, s);
    k -= s;
  }
}

/// Bits [pos, pos + width) of a little-endian magnitude, width <= 32.
std::uint32_t window_at(const Limbs& limbs, std::size_t pos, std::size_t width) {
  const std::size_t limb = pos / 64;
  const std::size_t shift = pos % 64;
  if (limb >= limbs.size()) return 0;
  std::uint64_t bits = limbs[limb] >> shift;
  // shift + width > 64 implies shift > 32, so the left shift stays in range.
  if (shift + width > 64 && limb + 1 < limbs.size()) bits |= limbs[limb + 1] << (64 - shift);
  return static_cast<std::uint32_t>(bits & ((std::uint64_t{1} << width) - 1));
}
}  // namespace

BigInt BigInt::inverse_mod(const BigInt& a, const BigInt& m) {
  const BigInt reduced = a.mod(m);
  if (m.is_one()) return BigInt();  // Z_1 = {0}, and 0 * 0 == 1 there
  if (!m.is_odd()) {
    BigInt x;
    BigInt y;
    const BigInt g = extended_gcd(reduced, m, x, y);
    SINTRA_REQUIRE(g.is_one(), "BigInt: not invertible");
    return x.mod(m);
  }
  SINTRA_REQUIRE(!reduced.is_zero(), "BigInt: not invertible");
  // Binary extended Euclid for odd m, with x1 * a == u and x2 * a == v
  // (mod m) throughout.  u and v stay odd between steps; the larger loses
  // the smaller and its factors of two, and its x follows along mod m.
  const std::size_t n = m.limbs_.size();
  const std::uint64_t* mod = m.limbs_.data();
  const std::uint64_t m_neg_inv = neg_inverse_u64(mod[0]);
  Limbs buf(4 * n + 2, 0);
  std::uint64_t* u = buf.data();
  std::uint64_t* v = u + n;
  std::uint64_t* x1 = v + n;
  std::uint64_t* x2 = x1 + n + 1;
  std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), u);
  std::copy(m.limbs_.begin(), m.limbs_.end(), v);
  x1[0] = 1;
  std::size_t len = n;  // live limbs of u and v, which only shrink
  strip_twos(u, len, x1, mod, m_neg_inv, n);
  for (;;) {
    while (len > 1 && u[len - 1] == 0 && v[len - 1] == 0) --len;
    const int c = compare_limbs(u, v, len);
    if (c == 0) break;  // u == v == gcd(a, m)
    if (c > 0) {
      sub_limbs(u, v, len);
      if (sub_limbs(x1, x2, n) != 0) add_limbs(x1, mod, n);
      strip_twos(u, len, x1, mod, m_neg_inv, n);
    } else {
      sub_limbs(v, u, len);
      if (sub_limbs(x2, x1, n) != 0) add_limbs(x2, mod, n);
      strip_twos(v, len, x2, mod, m_neg_inv, n);
    }
  }
  SINTRA_REQUIRE(len == 1 && u[0] == 1, "BigInt: not invertible");
  BigInt out;
  out.limbs_.assign(x1, x1 + n);
  out.trim();
  return out;
}

BigInt BigInt::gcd(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) {
    BigInt g = a.is_zero() ? b : a;
    g.negative_ = false;
    return g;
  }
  // Binary (Stein) GCD: strip the shared power of two once, then keep both
  // operands odd — subtract the smaller from the larger and shift out the
  // difference's factors of two — until they meet.
  std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  Limbs buf(2 * n, 0);
  std::uint64_t* u = buf.data();
  std::uint64_t* v = u + n;
  std::copy(a.limbs_.begin(), a.limbs_.end(), u);
  std::copy(b.limbs_.begin(), b.limbs_.end(), v);
  const std::size_t twos_u = ctz_limbs(u);
  const std::size_t twos_v = ctz_limbs(v);
  shr_limbs(u, n, twos_u);
  shr_limbs(v, n, twos_v);
  for (;;) {
    while (n > 1 && u[n - 1] == 0 && v[n - 1] == 0) --n;  // both shrink: narrow the view
    const int c = compare_limbs(u, v, n);
    if (c == 0) break;
    if (c < 0) std::swap(u, v);
    sub_limbs(u, v, n);
    shr_limbs(u, n, ctz_limbs(u));
  }
  BigInt g;
  g.limbs_.assign(u, u + n);
  g.trim();
  return g.shifted_left(std::min(twos_u, twos_v));
}

BigInt BigInt::extended_gcd(const BigInt& a, const BigInt& b, BigInt& x, BigInt& y) {
  BigInt old_r = a;
  BigInt r = b;
  BigInt old_s(1);
  BigInt s(0);
  BigInt old_t(0);
  BigInt t(1);
  while (!r.is_zero()) {
    BigInt q;
    BigInt rem;
    divmod(old_r, r, q, rem);
    old_r = r;
    r = rem;
    BigInt tmp_s = old_s - q * s;
    old_s = s;
    s = tmp_s;
    BigInt tmp_t = old_t - q * t;
    old_t = t;
    t = tmp_t;
  }
  x = old_s;
  y = old_t;
  return old_r;
}

BigInt BigInt::factorial(unsigned n) {
  BigInt out(1);
  for (unsigned i = 2; i <= n; ++i) out *= BigInt(static_cast<std::int64_t>(i));
  return out;
}

bool BigInt::divisible_by_small_prime() const {
  for (std::uint32_t p : kSmallPrimes) {
    BigInt rem = *this % BigInt(static_cast<std::int64_t>(p));
    if (rem.is_zero()) return !(limbs_.size() == 1 && limbs_[0] == p);
  }
  return false;
}

bool BigInt::miller_rabin_witness(const BigInt& base) const {
  // Returns true if `base` does NOT witness compositeness.
  const BigInt one(1);
  const BigInt n_minus_1 = *this - one;
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d.shifted_right(1);
    ++r;
  }
  BigInt x = pow_mod(base, d, *this);
  if (x.is_one() || x == n_minus_1) return true;
  for (std::size_t i = 1; i < r; ++i) {
    x = mul_mod(x, x, *this);
    if (x == n_minus_1) return true;
  }
  return false;
}

// ---- Montgomery ------------------------------------------------------------

Montgomery::Montgomery(BigInt modulus) : m_big_(std::move(modulus)) {
  SINTRA_REQUIRE(!m_big_.is_zero() && !m_big_.is_negative(),
                 "Montgomery: modulus must be positive");
  SINTRA_REQUIRE(m_big_.is_odd(), "Montgomery: modulus must be odd");
  m_ = m_big_.limbs_;
  n_ = m_.size();
  n0_ = neg_inverse_u64(m_[0]);
  r2_ = BigInt(1).shifted_left(128 * n_).mod(m_big_);
  one_mont_ = BigInt(1).shifted_left(64 * n_).mod(m_big_);
}

Montgomery::Limbs Montgomery::load(const BigInt& a) const {
  Limbs out(n_, 0);
  std::copy(a.limbs_.begin(), a.limbs_.end(), out.begin());
  return out;
}

BigInt Montgomery::store(const Limbs& limbs) const {
  BigInt out;
  out.limbs_ = limbs;
  out.trim();
  return out;
}

void Montgomery::mont_mul_limbs(const std::uint64_t* a, const std::uint64_t* b,
                                std::uint64_t* out, std::uint64_t* t) const {
  // Fused CIOS: for each limb of a, accumulate a[i]*b into t, then add the
  // multiple u*m that zeroes t[0] and shift right one limb.  The invariant
  // value(t) < 2m holds throughout, so t fits in n_+1 limbs and a single
  // conditional subtraction at the end lands the result in [0, m).
  const std::size_t n = n_;
  std::fill(t, t + n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ai = a[i];
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      unsigned __int128 cur = t[j] + static_cast<unsigned __int128>(ai) * b[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    unsigned __int128 top = static_cast<unsigned __int128>(t[n]) + carry;
    t[n] = static_cast<std::uint64_t>(top);
    const std::uint64_t overflow = static_cast<std::uint64_t>(top >> 64);

    const std::uint64_t u = t[0] * n0_;
    unsigned __int128 cur = t[0] + static_cast<unsigned __int128>(u) * m_[0];
    carry = cur >> 64;  // low limb is zero by choice of u
    for (std::size_t j = 1; j < n; ++j) {
      cur = t[j] + static_cast<unsigned __int128>(u) * m_[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    top = static_cast<unsigned __int128>(t[n]) + carry;
    t[n - 1] = static_cast<std::uint64_t>(top);
    t[n] = overflow + static_cast<std::uint64_t>(top >> 64);
  }
  // Conditional subtract: result = t mod m.
  bool geq = t[n] != 0;
  if (!geq) {
    geq = true;
    for (std::size_t i = n; i-- > 0;) {
      if (t[i] != m_[i]) {
        geq = t[i] > m_[i];
        break;
      }
    }
  }
  if (geq) {
    unsigned __int128 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      unsigned __int128 diff = static_cast<unsigned __int128>(t[i]) - m_[i] - borrow;
      out[i] = static_cast<std::uint64_t>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
  } else {
    std::copy(t, t + n, out);
  }
}

BigInt Montgomery::to_mont(const BigInt& a) const {
  Limbs av = load(a.mod(m_big_));
  Limbs r2v = load(r2_);
  Limbs t(n_ + 1);
  mont_mul_limbs(av.data(), r2v.data(), av.data(), t.data());
  return store(av);
}

BigInt Montgomery::from_mont(const BigInt& a) const {
  Limbs av = load(a);
  Limbs one(n_, 0);
  one[0] = 1;
  Limbs t(n_ + 1);
  mont_mul_limbs(av.data(), one.data(), av.data(), t.data());
  return store(av);
}

BigInt Montgomery::mul(const BigInt& a_mont, const BigInt& b_mont) const {
  Limbs av = load(a_mont);
  Limbs bv = load(b_mont);
  Limbs t(n_ + 1);
  mont_mul_limbs(av.data(), bv.data(), av.data(), t.data());
  return store(av);
}

BigInt Montgomery::mul_mod(const BigInt& a, const BigInt& b) const {
  return from_mont(mul(to_mont(a), to_mont(b)));
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exponent) const {
  SINTRA_REQUIRE(!exponent.is_negative(), "Montgomery: negative exponent");
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) return from_mont(one_mont_);
  const Limbs& e = exponent.limbs_;
  const Limbs b = load(to_mont(base));
  Limbs t(n_ + 1);
  // Both schedules start from the top of the exponent instead of squaring
  // one.  Square-and-multiply pays bits - 1 squarings and one product per
  // further set bit; the 4-bit window pays a 14-product table b^2..b^15,
  // four squarings per further window and one product per further nonzero
  // window.  Take whichever needs fewer products: a sparse exponent
  // (65537: 16 + 1 against 16 + 14 + 1) or a short one goes bit by bit.
  constexpr std::size_t kWindow = 4;
  const std::size_t windows = (bits + kWindow - 1) / kWindow;
  std::size_t set_bits = 0;
  std::size_t nonzero_windows = 0;
  for (const std::uint64_t limb : e) {
    set_bits += static_cast<std::size_t>(std::popcount(limb));
    nonzero_windows += static_cast<std::size_t>(
        std::popcount((limb | limb >> 1 | limb >> 2 | limb >> 3) & 0x1111111111111111ULL));
  }
  if ((bits - 1) + (set_bits - 1) <= 14 + kWindow * (windows - 1) + (nonzero_windows - 1)) {
    Limbs result = b;
    for (std::size_t i = bits - 1; i-- > 0;) {
      mont_mul_limbs(result.data(), result.data(), result.data(), t.data());
      if (exponent.bit(i)) mont_mul_limbs(result.data(), b.data(), result.data(), t.data());
    }
    return from_mont(store(result));
  }
  std::vector<Limbs> table(1ULL << kWindow);  // table[j] = b^j for j >= 1
  table[1] = b;
  for (std::size_t j = 2; j < table.size(); ++j) {
    table[j] = Limbs(n_);
    mont_mul_limbs(table[j - 1].data(), b.data(), table[j].data(), t.data());
  }
  Limbs result = table[window_at(e, kWindow * (windows - 1), kWindow)];
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (std::size_t k = 0; k < kWindow; ++k) {
      mont_mul_limbs(result.data(), result.data(), result.data(), t.data());
    }
    const std::uint32_t digit = window_at(e, kWindow * w, kWindow);
    if (digit != 0) mont_mul_limbs(result.data(), table[digit].data(), result.data(), t.data());
  }
  return from_mont(store(result));
}

Montgomery::FixedBase Montgomery::fixed_base(const BigInt& base, std::size_t max_bits) const {
  FixedBase table;
  table.base_ = base.mod(m_big_);
  table.windows_ = (max_bits + kFixedWindow - 1) / kFixedWindow;
  table.powers_.resize(table.windows_ * n_);
  Limbs cur = load(to_mont(table.base_));
  Limbs t(n_ + 1);
  for (std::size_t i = 0; i < table.windows_; ++i) {
    if (i > 0) {
      for (std::size_t k = 0; k < kFixedWindow; ++k) {
        mont_mul_limbs(cur.data(), cur.data(), cur.data(), t.data());
      }
    }
    std::copy(cur.begin(), cur.end(),
              table.powers_.begin() + static_cast<std::ptrdiff_t>(i * n_));
  }
  return table;
}

BigInt Montgomery::pow_fixed(const FixedBase& table, const BigInt& exponent) const {
  SINTRA_REQUIRE(!exponent.is_negative(), "Montgomery: negative exponent");
  SINTRA_REQUIRE(table.powers_.size() == table.windows_ * n_,
                 "Montgomery: fixed-base table built for a modulus of another width");
  const std::size_t bits = exponent.bit_length();
  if (bits > table.max_bits()) return pow(table.base_, exponent);
  // Yao / Brickell-Gordon-McCurley-Wilson.  With digits e_i of the exponent
  // in base 2^w and entries g_i = base^(2^(w*i)),
  //   base^e = prod_{j = 1}^{2^w - 1} (prod_{i : e_i = j} g_i)^j.
  // Walking j downward, `run` gathers every g_i with e_i >= j and `acc`
  // takes one product with it per j, so g_i lands in acc exactly e_i times:
  // one product per nonzero digit plus one per digit value.
  constexpr std::size_t kDigits = std::size_t{1} << kFixedWindow;
  const std::size_t windows = (bits + kFixedWindow - 1) / kFixedWindow;
  std::vector<std::uint8_t> digits(windows);
  std::array<std::size_t, kDigits + 1> begin{};  // begin[j]: first index of digit j in `order`
  for (std::size_t i = 0; i < windows; ++i) {
    digits[i] =
        static_cast<std::uint8_t>(window_at(exponent.limbs_, kFixedWindow * i, kFixedWindow));
    ++begin[digits[i] + 1];
  }
  for (std::size_t j = 1; j <= kDigits; ++j) begin[j] += begin[j - 1];
  std::array<std::size_t, kDigits> next{};
  std::copy(begin.begin(), begin.begin() + kDigits, next.begin());
  std::vector<std::size_t> order(windows);  // window indices, counting-sorted by digit
  for (std::size_t i = 0; i < windows; ++i) order[next[digits[i]]++] = i;

  Limbs run(n_);
  Limbs acc(n_);
  Limbs t(n_ + 1);
  bool run_empty = true;
  bool acc_empty = true;
  for (std::size_t j = kDigits - 1; j > 0; --j) {
    for (std::size_t k = begin[j]; k < begin[j + 1]; ++k) {
      const std::uint64_t* g = table.powers_.data() + order[k] * n_;
      if (run_empty) {
        std::copy(g, g + n_, run.begin());
        run_empty = false;
      } else {
        mont_mul_limbs(run.data(), g, run.data(), t.data());
      }
    }
    if (run_empty) continue;
    if (acc_empty) {
      acc = run;
      acc_empty = false;
    } else {
      mont_mul_limbs(acc.data(), run.data(), acc.data(), t.data());
    }
  }
  return acc_empty ? from_mont(one_mont_) : from_mont(store(acc));
}

BigInt Montgomery::pow2(const BigInt& b1, const BigInt& e1, const BigInt& b2,
                        const BigInt& e2) const {
  return multi_pow({{b1, e1}, {b2, e2}});
}

BigInt Montgomery::multi_pow(const std::vector<std::pair<BigInt, BigInt>>& pairs) const {
  // Interleaved 2-bit windows over one shared squaring chain (Shamir's
  // trick generalized to k bases): squarings = max exponent length instead
  // of the sum over all bases.
  std::size_t bits = 0;
  for (const auto& [base, exp] : pairs) {
    SINTRA_REQUIRE(!exp.is_negative(), "Montgomery: negative exponent");
    bits = std::max(bits, exp.bit_length());
  }
  Limbs result = load(one_mont_);
  Limbs t(n_ + 1);
  if (bits == 0) return from_mont(store(result));
  // Per-base table of base^1..base^3 in Montgomery form.
  std::vector<std::array<Limbs, 3>> tables;
  tables.reserve(pairs.size());
  for (const auto& [base, exp] : pairs) {
    std::array<Limbs, 3> tab;
    tab[0] = load(to_mont(base));
    tab[1] = Limbs(n_);
    tab[2] = Limbs(n_);
    mont_mul_limbs(tab[0].data(), tab[0].data(), tab[1].data(), t.data());
    mont_mul_limbs(tab[1].data(), tab[0].data(), tab[2].data(), t.data());
    tables.push_back(std::move(tab));
  }
  std::size_t top = (bits + 1) & ~std::size_t{1};  // round up to a 2-bit boundary
  for (std::size_t i = top; i > 0; i -= 2) {
    mont_mul_limbs(result.data(), result.data(), result.data(), t.data());
    mont_mul_limbs(result.data(), result.data(), result.data(), t.data());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const BigInt& exp = pairs[k].second;
      const std::uint32_t window =
          (static_cast<std::uint32_t>(exp.bit(i - 1)) << 1) |
          static_cast<std::uint32_t>(exp.bit(i - 2));
      if (window != 0) {
        mont_mul_limbs(result.data(), tables[k][window - 1].data(), result.data(), t.data());
      }
    }
  }
  return from_mont(store(result));
}

void BigInt::encode(Writer& w) const {
  w.boolean(negative_);
  w.bytes(to_bytes());
}

BigInt BigInt::decode(Reader& r) {
  bool negative = r.boolean();
  BigInt value = from_bytes(r.bytes());
  SINTRA_REQUIRE(!(negative && value.is_zero()), "BigInt: negative zero");
  value.negative_ = negative;
  return value;
}

}  // namespace sintra::crypto
