// Field arithmetic for GF(p), p = 2^256 - 2^32 - 977 (the secp256k1 prime),
// specialized to fixed 4x64-bit limbs: no heap allocation anywhere, and the
// sparse shape of p makes reduction a single fold by 2^256 mod p = 2^32+977
// instead of a division.  This is the substrate of the elliptic-curve group
// backend (curve256.hpp / group_curve.hpp); exponents of the *group* still
// live in Z_n as BigInt, only curve-point coordinates pass through here.
//
// The mul/add/sub/sqr primitives are defined inline here: the point formulas
// (curve256.cpp) issue a dozen field operations per point addition, and at
// these operand sizes the call/copy overhead of an out-of-line 32-byte
// struct return costs as much as the arithmetic itself.
//
// Representation invariant: every Fe returned by these functions is fully
// reduced into [0, p).  Like the rest of the crypto layer, the code is not
// constant-time (the BigInt modexp paths already branch on exponent bits);
// all secret-dependent work happens on the prover's own machine.
#pragma once

#include <cstdint>

namespace sintra::crypto::fe256 {

/// One field element, little-endian 64-bit limbs, always < p.
struct Fe {
  std::uint64_t v[4] = {0, 0, 0, 0};
};

/// p = 2^256 - 2^32 - 977, little-endian limbs.
inline constexpr std::uint64_t kP[4] = {0xFFFFFFFEFFFFFC2FULL, 0xFFFFFFFFFFFFFFFFULL,
                                        0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL};

namespace detail {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// 2^256 mod p = 2^32 + 977; the whole reduction strategy is that a limb of
/// overflow above 2^256 folds back in as one multiply by this 33-bit value.
inline constexpr u64 kFold = 0x1000003D1ULL;

inline bool geq_p(const u64 a[4]) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != kP[i]) return a[i] > kP[i];
  }
  return true;
}

inline void sub_p(u64 a[4]) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a[i]) - kP[i] - borrow;
    a[i] = static_cast<u64>(cur);
    borrow = (cur >> 64) != 0 ? 1 : 0;
  }
}

/// Fold `overflow * 2^256` back into t[0..3]; loops because the first fold
/// can itself carry (at most twice in total).
inline void fold_overflow(u64 t[4], u64 overflow) {
  while (overflow != 0) {
    u128 cur = static_cast<u128>(overflow) * kFold + t[0];
    t[0] = static_cast<u64>(cur);
    u64 carry = static_cast<u64>(cur >> 64);
    for (int i = 1; i < 4 && carry != 0; ++i) {
      cur = static_cast<u128>(t[i]) + carry;
      t[i] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    overflow = carry;
  }
}

/// Reduce an 8-limb product into [0, p).
inline Fe reduce512(const u64 w[8]) {
  u64 t[4];
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(w[4 + i]) * kFold + w[i] + carry;
    t[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  fold_overflow(t, carry);
  Fe r;
  for (int i = 0; i < 4; ++i) r.v[i] = t[i];
  if (geq_p(r.v)) sub_p(r.v);
  return r;
}

inline void mul_wide(const u64 a[4], const u64 b[4], u64 w[8]) {
  for (int i = 0; i < 8; ++i) w[i] = 0;
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + w[i + j] + carry;
      w[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    w[i + 4] = carry;
  }
}

}  // namespace detail

[[nodiscard]] inline Fe zero() { return Fe{}; }

[[nodiscard]] inline Fe from_u64(std::uint64_t value) {
  Fe r;
  r.v[0] = value;
  return r;
}

[[nodiscard]] inline Fe one() { return from_u64(1); }

[[nodiscard]] inline bool is_zero(const Fe& a) {
  return (a.v[0] | a.v[1] | a.v[2] | a.v[3]) == 0;
}

[[nodiscard]] inline bool is_odd(const Fe& a) { return (a.v[0] & 1) != 0; }

[[nodiscard]] inline bool eq(const Fe& a, const Fe& b) {
  return a.v[0] == b.v[0] && a.v[1] == b.v[1] && a.v[2] == b.v[2] && a.v[3] == b.v[3];
}

[[nodiscard]] inline Fe add(const Fe& a, const Fe& b) {
  // Branchless: the carry out of the 256-bit add is a coin flip for random
  // operands, so folding it with an `if` mispredicts every other call.
  // Instead always add carry*kFold back in (a+b >= 2^256 means the mod-p
  // answer is a+b - 2^256 + kFold) and propagate unconditionally.
  using namespace detail;
  u64 t[4];
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a.v[i]) + b.v[i] + carry;
    t[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  u128 cur = static_cast<u128>(carry) * kFold + t[0];
  t[0] = static_cast<u64>(cur);
  u64 k = static_cast<u64>(cur >> 64);
  for (int i = 1; i < 4; ++i) {
    cur = static_cast<u128>(t[i]) + k;
    t[i] = static_cast<u64>(cur);
    k = static_cast<u64>(cur >> 64);
  }
  // Second wrap (t was within kFold of 2^256) and the final >= p case both
  // have probability ~2^-32 or less: the branches below are never-taken in
  // practice and predict perfectly.
  if (k != 0) fold_overflow(t, k);
  Fe r;
  for (int i = 0; i < 4; ++i) r.v[i] = t[i];
  if (geq_p(r.v)) sub_p(r.v);
  return r;
}

[[nodiscard]] inline Fe sub(const Fe& a, const Fe& b) {
  // Branchless for the same reason as add(): the borrow is a coin flip.
  // On wrap the value is a-b+2^256 and the answer a-b+p is that minus
  // kFold, which cannot re-borrow below the top limb chain.
  using namespace detail;
  Fe r;
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a.v[i]) - b.v[i] - borrow;
    r.v[i] = static_cast<u64>(cur);
    borrow = (cur >> 64) != 0 ? 1 : 0;
  }
  const u64 fix = kFold & (0 - borrow);  // kFold if wrapped, else 0
  u64 b2 = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(r.v[i]) - (i == 0 ? fix : 0) - b2;
    r.v[i] = static_cast<u64>(cur);
    b2 = (cur >> 64) != 0 ? 1 : 0;
  }
  return r;
}

/// a * c for a small (< 2^32) constant — used for the curve constant b3 in
/// the point formulas, where a full 4x4 multiply would be 4x the work.
[[nodiscard]] inline Fe mul_small(const Fe& a, std::uint32_t c) {
  using namespace detail;
  u64 t[4];
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a.v[i]) * c + carry;
    t[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  // carry < c; fold it in one pass (the re-carry cases are ~2^-32 rare).
  u128 cur = static_cast<u128>(carry) * kFold + t[0];
  t[0] = static_cast<u64>(cur);
  u64 k = static_cast<u64>(cur >> 64);
  for (int i = 1; i < 4; ++i) {
    cur = static_cast<u128>(t[i]) + k;
    t[i] = static_cast<u64>(cur);
    k = static_cast<u64>(cur >> 64);
  }
  if (k != 0) fold_overflow(t, k);
  Fe r;
  for (int i = 0; i < 4; ++i) r.v[i] = t[i];
  if (geq_p(r.v)) sub_p(r.v);
  return r;
}

[[nodiscard]] inline Fe neg(const Fe& a) {
  using namespace detail;
  if (is_zero(a)) return a;
  Fe r;
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(kP[i]) - a.v[i] - borrow;
    r.v[i] = static_cast<u64>(cur);
    borrow = (cur >> 64) != 0 ? 1 : 0;
  }
  return r;
}

[[nodiscard]] inline Fe mul(const Fe& a, const Fe& b) {
  using namespace detail;
  u64 w[8];
  mul_wide(a.v, b.v, w);
  return reduce512(w);
}

[[nodiscard]] inline Fe sqr(const Fe& a) {
  // Same as mul(a, a).  A dedicated halved-cross-product squaring was
  // measured *slower* here: the double-then-fixup carry chain serializes
  // worse than the plain schoolbook rows, which overlap in the pipeline.
  using namespace detail;
  u64 w[8];
  mul_wide(a.v, a.v, w);
  return reduce512(w);
}

/// a^e for a little-endian 4-limb exponent; plain 256-step square-and-
/// multiply.  The differential-testing oracle for inv() and sqrt() — not
/// used on any hot path.
[[nodiscard]] Fe pow(const Fe& a, const std::uint64_t e[4]);

/// a^(p-2) via the shortest known addition chain for the secp256k1 prime
/// (blocks of 1-bits: 223, 22, 2, 1 — 255 squarings + 15 multiplies).
/// inv(0) == 0 by convention (never hit: callers guard z != 0).
[[nodiscard]] Fe inv(const Fe& a);

/// Square root via a^((p+1)/4) (p ≡ 3 mod 4), on the addition chain that
/// shares inv()'s head (253 squarings + 13 multiplies): every compressed-
/// point decode and every hash_to_curve try runs it.  Returns false iff a
/// is a non-residue; `out` is valid only on success.
[[nodiscard]] bool sqrt(const Fe& a, Fe& out);

/// Big-endian 32-byte decode; rejects (returns false) values >= p, which is
/// what makes wire encodings canonical.
[[nodiscard]] bool from_bytes(const std::uint8_t in[32], Fe& out);
void to_bytes(const Fe& a, std::uint8_t out[32]);

}  // namespace sintra::crypto::fe256
