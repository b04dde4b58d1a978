#include "crypto/fe256.hpp"

// Only the cold paths live out of line: exponentiation (pow/inv/sqrt) and
// the byte codecs.  The per-operation primitives (add/sub/mul/sqr) are
// inline in fe256.hpp — see the header comment for why.

namespace sintra::crypto::fe256 {

namespace {

using u64 = std::uint64_t;

/// n squarings in place.
inline void sqr_n(Fe& a, int n) {
  for (int i = 0; i < n; ++i) a = sqr(a);
}

}  // namespace

Fe pow(const Fe& a, const std::uint64_t e[4]) {
  Fe result = one();
  bool any = false;
  for (int limb = 3; limb >= 0; --limb) {
    for (int bit = 63; bit >= 0; --bit) {
      if (any) result = sqr(result);
      if ((e[limb] >> bit) & 1) {
        result = mul(result, a);
        any = true;
      }
    }
  }
  return result;
}

namespace {

/// The shared head of the inv and sqrt addition chains: a^(2^223 - 1),
/// built from x^(2^k - 1) for k in {2,3,6,9,11,22,44,88,176,220,223};
/// also hands back x2 and x22, which both tails stitch in.
Fe pow_x223(const Fe& a, Fe& x2_out, Fe& x22_out) {
  Fe x2 = mul(sqr(a), a);
  Fe x3 = mul(sqr(x2), a);
  Fe x6 = x3;
  sqr_n(x6, 3);
  x6 = mul(x6, x3);
  Fe x9 = x6;
  sqr_n(x9, 3);
  x9 = mul(x9, x3);
  Fe x11 = x9;
  sqr_n(x11, 2);
  x11 = mul(x11, x2);
  Fe x22 = x11;
  sqr_n(x22, 11);
  x22 = mul(x22, x11);
  Fe x44 = x22;
  sqr_n(x44, 22);
  x44 = mul(x44, x22);
  Fe x88 = x44;
  sqr_n(x88, 44);
  x88 = mul(x88, x44);
  Fe x176 = x88;
  sqr_n(x176, 88);
  x176 = mul(x176, x88);
  Fe x220 = x176;
  sqr_n(x220, 44);
  x220 = mul(x220, x44);
  Fe x223 = x220;
  sqr_n(x223, 3);
  x223 = mul(x223, x3);
  x2_out = x2;
  x22_out = x22;
  return x223;
}

}  // namespace

Fe inv(const Fe& a) {
  // p - 2 in binary is 1-blocks of lengths 223, 22, 2, 1 separated by
  // single zeros.  Verified against pow(a, p-2) in curve256_test.
  Fe x2;
  Fe x22;
  Fe t = pow_x223(a, x2, x22);
  sqr_n(t, 23);
  t = mul(t, x22);
  sqr_n(t, 5);
  t = mul(t, a);
  sqr_n(t, 3);
  t = mul(t, x2);
  sqr_n(t, 2);
  return mul(t, a);
}

bool sqrt(const Fe& a, Fe& out) {
  // (p+1)/4 in binary is 1-blocks of lengths 223, 22, 2 (the last two
  // followed by four and two zeros): 253 squarings and 13 multiplies.
  // Verified against pow(a, (p+1)/4) in curve256_test.
  Fe x2;
  Fe x22;
  Fe t = pow_x223(a, x2, x22);
  sqr_n(t, 23);
  t = mul(t, x22);
  sqr_n(t, 6);
  t = mul(t, x2);
  sqr_n(t, 2);
  if (!eq(sqr(t), a)) return false;
  out = t;
  return true;
}

bool from_bytes(const std::uint8_t in[32], Fe& out) {
  Fe r;
  for (int limb = 0; limb < 4; ++limb) {
    u64 v = 0;
    for (int byte = 0; byte < 8; ++byte) {
      v = (v << 8) | in[(3 - limb) * 8 + byte];
    }
    r.v[limb] = v;
  }
  if (detail::geq_p(r.v)) return false;
  out = r;
  return true;
}

void to_bytes(const Fe& a, std::uint8_t out[32]) {
  for (int limb = 0; limb < 4; ++limb) {
    const u64 v = a.v[limb];
    for (int byte = 0; byte < 8; ++byte) {
      out[(3 - limb) * 8 + byte] = static_cast<std::uint8_t>(v >> (8 * (7 - byte)));
    }
  }
}

}  // namespace sintra::crypto::fe256
