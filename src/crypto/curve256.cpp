#include "crypto/curve256.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "common/assert.hpp"
#include "crypto/bigint.hpp"
#include "crypto/sha256.hpp"

namespace sintra::crypto::curve256 {

namespace {

using u64 = std::uint64_t;

// The complete formulas consume 3b = 21 for b = 7, passed to
// fe256::mul_small at each use site.

Fe curve_b() { return fe256::from_u64(7); }

// Generator of secp256k1, affine, little-endian limbs.
constexpr u64 kGx[4] = {0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL, 0x55A06295CE870B07ULL,
                        0x79BE667EF9DCBBACULL};
constexpr u64 kGy[4] = {0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL, 0x5DA4FBFC0E1108A8ULL,
                        0x483ADA7726A3C465ULL};

/// x^3 + 7 — the curve equation's right-hand side.
Fe rhs_of(const Fe& x) { return fe256::add(fe256::mul(fe256::sqr(x), x), curve_b()); }

/// Negate an affine (z == 1) point without touching z.
Point neg_affine(const Point& p) { return Point{p.x, fe256::neg(p.y), p.z}; }

// -- wNAF ------------------------------------------------------------------

constexpr int kMaxWnaf = 260;

bool limbs_zero(const u64 k[5]) { return (k[0] | k[1] | k[2] | k[3] | k[4]) == 0; }

void limbs_shr1(u64 k[5]) {
  for (int i = 0; i < 4; ++i) k[i] = (k[i] >> 1) | (k[i + 1] << 63);
  k[4] >>= 1;
}

void limbs_add_small(u64 k[5], u64 d) {
  unsigned __int128 cur = static_cast<unsigned __int128>(k[0]) + d;
  k[0] = static_cast<u64>(cur);
  u64 carry = static_cast<u64>(cur >> 64);
  for (int i = 1; i < 5 && carry != 0; ++i) {
    cur = static_cast<unsigned __int128>(k[i]) + carry;
    k[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
}

void limbs_sub_small(u64 k[5], u64 d) {
  u64 borrow = d;
  for (int i = 0; i < 5 && borrow != 0; ++i) {
    const u64 old = k[i];
    k[i] -= borrow;
    borrow = old < borrow ? 1 : 0;
  }
}

/// Width-w non-adjacent form: odd digits in (-2^(w-1), 2^(w-1)), at most one
/// nonzero per w consecutive positions.  Returns digit count.
int compute_wnaf(const Scalar& scalar, int width, std::int8_t out[kMaxWnaf]) {
  u64 k[5] = {scalar.v[0], scalar.v[1], scalar.v[2], scalar.v[3], 0};
  const u64 mask = (u64{1} << width) - 1;
  const int bound = 1 << (width - 1);
  int len = 0;
  while (!limbs_zero(k)) {
    int digit = 0;
    if (k[0] & 1) {
      digit = static_cast<int>(k[0] & mask);
      if (digit >= bound) digit -= 1 << width;
      if (digit > 0) {
        limbs_sub_small(k, static_cast<u64>(digit));
      } else {
        limbs_add_small(k, static_cast<u64>(-digit));
      }
    }
    out[len++] = static_cast<std::int8_t>(digit);
    limbs_shr1(k);
  }
  return len;
}

bool scalar_is_zero(const Scalar& k) { return (k.v[0] | k.v[1] | k.v[2] | k.v[3]) == 0; }

// -- GLV endomorphism ------------------------------------------------------
//
// secp256k1 admits the automorphism φ(x, y) = (βx, y) where β is a
// primitive cube root of unity in GF(p); φ acts on the group as
// multiplication by λ, a cube root of unity mod n.  Splitting a scalar k
// as k = k1 + k2·λ (mod n) with |k1|, |k2| ≈ √n turns one 256-bit
// multiplication chain into two interleaved ~128-bit chains sharing half
// as many doublings — the single biggest constant-factor win available on
// this curve.  Everything below is *derived at startup* (cube roots by
// exponentiation, the short lattice basis by the extended Euclid on
// (n, λ), the β↔λ pairing checked against a plain double-and-add), so no
// transcribed magic constants can silently be wrong.

BigInt scalar_to_bigint(const Scalar& k) {
  std::uint8_t be[32];
  for (int limb = 0; limb < 4; ++limb) {
    for (int byte = 0; byte < 8; ++byte) {
      be[(3 - limb) * 8 + byte] = static_cast<std::uint8_t>(k.v[limb] >> (8 * (7 - byte)));
    }
  }
  return BigInt::from_bytes(BytesView(be, sizeof(be)));
}

/// Magnitude of a (signed) BigInt as a Scalar; |value| must fit 256 bits.
Scalar bigint_abs_to_scalar(const BigInt& value) {
  const BigInt mag = value.is_negative() ? -value : value;
  const Bytes be = mag.to_bytes_padded(32);
  Scalar k;
  for (int limb = 0; limb < 4; ++limb) {
    u64 word = 0;
    for (int byte = 0; byte < 8; ++byte) {
      word = (word << 8) | be[static_cast<std::size_t>((3 - limb) * 8 + byte)];
    }
    k.v[limb] = word;
  }
  return k;
}

/// Reference double-and-add, used only to self-check the endomorphism
/// pairing at startup.
Point plain_mul(const Point& p, const BigInt& k) {
  Point acc = infinity();
  for (int bit = static_cast<int>(k.bit_length()) - 1; bit >= 0; --bit) {
    acc = dbl(acc);
    if (k.bit(static_cast<std::size_t>(bit))) acc = add(acc, p);
  }
  return acc;
}

/// Nearest-integer division for signed BigInt (ties away from zero).
BigInt divround(const BigInt& a, const BigInt& b) {
  // b is ±n here; normalize to positive divisor.
  const BigInt bp = b.is_negative() ? -b : b;
  const BigInt ap = b.is_negative() ? -a : a;
  const BigInt two(2);
  if (ap.is_negative()) return -(((-ap) * two + bp) / (bp * two));
  return (ap * two + bp) / (bp * two);
}

struct GlvContext {
  Fe beta;            ///< cube root of 1 in GF(p), paired with lambda
  Scalar lambda;      ///< cube root of 1 mod n (as a scalar)
  BigInt n;           ///< curve order
  BigInt v1x, v1y;    ///< short lattice basis vectors of
  BigInt v2x, v2y;    ///<   {(x, y) : x + y*lambda ≡ 0 mod n}
  BigInt det;         ///< v1x*v2y - v2x*v1y (= ±n)
};

const GlvContext& glv() {
  static const GlvContext ctx = [] {
    GlvContext c;
    // p and n from their limb forms.
    std::uint8_t pb[32];
    for (int limb = 0; limb < 4; ++limb) {
      for (int byte = 0; byte < 8; ++byte) {
        pb[(3 - limb) * 8 + byte] = static_cast<std::uint8_t>(fe256::kP[limb] >> (8 * (7 - byte)));
      }
    }
    const BigInt p = BigInt::from_bytes(BytesView(pb, sizeof(pb)));
    Scalar order_scalar;
    for (int i = 0; i < 4; ++i) order_scalar.v[i] = kOrder[i];
    c.n = scalar_to_bigint(order_scalar);

    // Cube roots of unity: x^((m-1)/3) for a base whose power is != 1.
    // (p ≡ 1 mod 3 and n ≡ 1 mod 3, so primitive cube roots exist.)
    const auto cube_root = [](const BigInt& m) {
      const BigInt exp = (m - BigInt(1)) / BigInt(3);
      for (std::uint64_t base = 2;; ++base) {
        const BigInt root = BigInt::pow_mod(BigInt(base), exp, m);
        if (!root.is_one()) return root;
      }
    };
    const BigInt lambda = cube_root(c.n);
    BigInt beta = cube_root(p);

    // Pair beta with lambda: phi(G) must equal lambda*G; the wrong root of
    // the pair is fixed by squaring (the other primitive root).
    const Point lambda_g = plain_mul(generator(), lambda);
    const auto phi_matches = [&](const BigInt& candidate) {
      Fe bf;
      const Bytes be = candidate.to_bytes_padded(32);
      SINTRA_INVARIANT(fe256::from_bytes(be.data(), bf), "curve256: beta out of range");
      Point image = generator();
      image.x = fe256::mul(image.x, bf);
      return eq(image, lambda_g) ? std::optional<Fe>(bf) : std::nullopt;
    };
    auto matched = phi_matches(beta);
    if (!matched) matched = phi_matches(BigInt::mul_mod(beta, beta, p));
    SINTRA_INVARIANT(matched.has_value(), "curve256: no beta pairs with lambda");
    c.beta = *matched;
    c.lambda = bigint_abs_to_scalar(lambda);

    // Short basis for the GLV lattice via the extended Euclid on (n, λ):
    // every remainder r_i = t_i·λ (mod n), so (r_i, -t_i) is a lattice
    // vector; the first two remainders below √n give a reduced basis.
    BigInt r0 = c.n, r1 = lambda;
    BigInt t0(0), t1(1);
    const BigInt half_bound = BigInt(1).shifted_left(129);  // > √n
    std::vector<std::pair<BigInt, BigInt>> rows;
    while (!r1.is_zero() && rows.size() < 2) {
      const BigInt q = r0 / r1;
      BigInt r2 = r0 - q * r1;
      BigInt t2 = t0 - q * t1;
      r0 = r1; r1 = r2; t0 = t1; t1 = t2;
      if (r0.bit_length() <= 128 || r0 < half_bound) rows.emplace_back(r0, -t0);
    }
    SINTRA_INVARIANT(rows.size() == 2, "curve256: GLV basis reduction failed");
    c.v1x = rows[0].first;  c.v1y = rows[0].second;
    c.v2x = rows[1].first;  c.v2y = rows[1].second;
    c.det = c.v1x * c.v2y - c.v2x * c.v1y;
    SINTRA_INVARIANT((c.det.is_negative() ? -c.det : c.det) == c.n,
                     "curve256: GLV basis determinant is not ±n");
    return c;
  }();
  return ctx;
}

/// k = k1 + k2·λ (mod n) with |k1|, |k2| < 2^129; signs carried separately.
struct Split {
  Scalar k1, k2;
  bool neg1 = false, neg2 = false;
};

Split glv_split(const Scalar& k) {
  const GlvContext& c = glv();
  const BigInt kb = scalar_to_bigint(k);
  // Round (k, 0) to the nearest lattice point c1*v1 + c2*v2 and subtract.
  const BigInt c1 = divround(kb * c.v2y, c.det);
  const BigInt c2 = divround(-(kb * c.v1y), c.det);
  const BigInt k1 = kb - c1 * c.v1x - c2 * c.v2x;
  const BigInt k2 = -(c1 * c.v1y) - c2 * c.v2y;
  SINTRA_INVARIANT(k1.bit_length() <= 130 && k2.bit_length() <= 130,
                   "curve256: GLV split out of range");
  Split s;
  s.k1 = bigint_abs_to_scalar(k1);
  s.neg1 = k1.is_negative();
  s.k2 = bigint_abs_to_scalar(k2);
  s.neg2 = k2.is_negative();
  return s;
}

/// φ applied to an affine point: x scales by β, y and z unchanged.
Point apply_endo(const Point& p_affine) {
  return Point{fe256::mul(p_affine.x, glv().beta), p_affine.y, p_affine.z};
}

/// `count` bits of k starting at bit `pos` (little-endian bit order).
unsigned scalar_bits(const Scalar& k, int pos, int count) {
  const int limb = pos >> 6;
  const int shift = pos & 63;
  u64 v = k.v[limb] >> shift;
  if (shift + count > 64 && limb + 1 < 4) v |= k.v[limb + 1] << (64 - shift);
  return static_cast<unsigned>(v & ((u64{1} << count) - 1));
}

/// Odd multiples {1, 3, ..., 2*`entries`-1} * p, batch-normalized to affine.
/// p must not be infinity.
std::vector<Point> odd_multiples(const Point& p, int entries) {
  std::vector<Point> table;
  table.reserve(static_cast<std::size_t>(entries));
  const Point two_p = dbl(p);
  table.push_back(p);
  for (int i = 1; i < entries; ++i) table.push_back(add(table.back(), two_p));
  batch_normalize(table.data(), table.size());
  return table;
}

/// One interleaved wNAF stream: digits over an affine odd-multiple table,
/// with an optional whole-stream negation (how GLV half-scalar signs are
/// carried without touching the digits).
struct WnafStream {
  const std::int8_t* digits = nullptr;
  int len = 0;
  const Point* table = nullptr;  ///< affine odd multiples 1B, 3B, 5B, ...
  bool negate = false;
};

/// Shared-doubling evaluation of any number of wNAF streams.
Point wnaf_eval(const WnafStream* streams, std::size_t count) {
  int max_len = 0;
  for (std::size_t s = 0; s < count; ++s) max_len = std::max(max_len, streams[s].len);
  Point acc = infinity();
  for (int i = max_len - 1; i >= 0; --i) {
    acc = dbl(acc);
    for (std::size_t s = 0; s < count; ++s) {
      const WnafStream& st = streams[s];
      if (i >= st.len) continue;
      const std::int8_t d = st.digits[i];
      if (d == 0) continue;
      const Point& e = st.table[static_cast<std::size_t>((d > 0 ? d : -d) >> 1)];
      const bool positive = (d > 0) != st.negate;
      acc = add_mixed(acc, positive ? e : neg_affine(e));
    }
  }
  return acc;
}

/// Pippenger bucket method for large batches (the batch verifier's
/// multi-exponentiation): one pass per c-bit window, each point dropped
/// into the bucket of its digit, buckets collapsed by the running-sum
/// trick.  ~(bits/c) * (k + 2^c) additions total.  Callers feed GLV
/// half-scalars, so `scalar_bits_bound` is ~130, not 256.
Point pippenger(const std::vector<std::pair<Point, Scalar>>& terms, int scalar_bits_bound) {
  const std::size_t k = terms.size();
  // Each window pays 2*(2^c - 1) projective adds to collapse its buckets
  // on top of k mixed adds for the drops, so c must stay small until the
  // drops dominate: minimizing (bits/c)*(k*madd + 2^(c+1)*add) over c
  // gives ~7 around a thousand points and grows by one per ~4x more.
  const int c = k < 2048 ? 7 : (k < 8192 ? 8 : 10);
  const int windows = (scalar_bits_bound + c - 1) / c;
  std::vector<Point> buckets(static_cast<std::size_t>((1 << c) - 1));
  Point total = infinity();
  for (int w = windows - 1; w >= 0; --w) {
    for (int i = 0; i < c; ++i) total = dbl(total);
    for (Point& b : buckets) b = infinity();
    const int pos = w * c;
    const int width = std::min(c, 256 - pos);
    for (const auto& [point, scalar] : terms) {
      const unsigned digit = scalar_bits(scalar, pos, width);
      if (digit != 0) {
        Point& b = buckets[digit - 1];
        b = add_mixed(b, point);
      }
    }
    Point running = infinity();
    Point window_sum = infinity();
    for (std::size_t j = buckets.size(); j-- > 0;) {
      running = add(running, buckets[j]);
      window_sum = add(window_sum, running);
    }
    total = add(total, window_sum);
  }
  return total;
}

}  // namespace

Point infinity() {
  Point p;
  p.x = fe256::zero();
  p.y = fe256::one();
  p.z = fe256::zero();
  return p;
}

const Point& generator() {
  static const Point g = [] {
    Point p;
    for (int i = 0; i < 4; ++i) {
      p.x.v[i] = kGx[i];
      p.y.v[i] = kGy[i];
    }
    p.z = fe256::one();
    return p;
  }();
  return g;
}

bool is_infinity(const Point& p) { return fe256::is_zero(p.z); }

// Complete projective addition for a = 0 short-Weierstrass curves
// (Renes–Costello–Batina 2016, algorithm 7): 12M + 2m_b3 + 19a, valid for
// every input pair including doublings and the point at infinity.
Point add(const Point& p, const Point& q) {
  using namespace fe256;
  Fe t0 = mul(p.x, q.x);
  Fe t1 = mul(p.y, q.y);
  Fe t2 = mul(p.z, q.z);
  Fe t3 = mul(add(p.x, p.y), add(q.x, q.y));
  Fe t4 = add(t0, t1);
  t3 = sub(t3, t4);
  t4 = mul(add(p.y, p.z), add(q.y, q.z));
  Fe x3 = add(t1, t2);
  t4 = sub(t4, x3);
  x3 = mul(add(p.x, p.z), add(q.x, q.z));
  Fe y3 = add(t0, t2);
  y3 = sub(x3, y3);
  t0 = fe256::mul_small(t0, 3);
  t2 = fe256::mul_small(t2, 21);
  Fe z3 = add(t1, t2);
  t1 = sub(t1, t2);
  y3 = fe256::mul_small(y3, 21);
  x3 = mul(t4, y3);
  t2 = mul(t3, t1);
  x3 = sub(t2, x3);
  y3 = mul(y3, t0);
  t1 = mul(t1, z3);
  y3 = add(t1, y3);
  t0 = mul(t0, t3);
  z3 = mul(z3, t4);
  z3 = add(z3, t0);
  return Point{x3, y3, z3};
}

// Algorithm 8 (mixed addition, Z2 = 1): 11M + 2m_b3 + 13a; complete for any
// projective p as long as q is a finite affine point.
namespace {
/// Mixed addition p + (qx, qy) with (qx, qy) affine and not infinity.
inline Point add_mixed_xy(const Point& p, const Fe& qx, const Fe& qy) {
  using namespace fe256;
  Fe t0 = mul(p.x, qx);
  Fe t1 = mul(p.y, qy);
  Fe t3 = add(qx, qy);
  Fe t4 = add(p.x, p.y);
  t3 = mul(t3, t4);
  t4 = add(t0, t1);
  t3 = sub(t3, t4);
  t4 = mul(qy, p.z);
  t4 = add(t4, p.y);
  Fe y3 = mul(qx, p.z);
  y3 = add(y3, p.x);
  t0 = fe256::mul_small(t0, 3);
  Fe t2 = fe256::mul_small(p.z, 21);
  Fe z3 = add(t1, t2);
  t1 = sub(t1, t2);
  y3 = fe256::mul_small(y3, 21);
  Fe x3 = mul(t4, y3);
  t2 = mul(t3, t1);
  x3 = sub(t2, x3);
  y3 = mul(y3, t0);
  t1 = mul(t1, z3);
  y3 = add(t1, y3);
  t0 = mul(t0, t3);
  z3 = mul(z3, t4);
  z3 = add(z3, t0);
  return Point{x3, y3, z3};
}
}  // namespace

Point add_mixed(const Point& p, const Point& q_affine) {
  return add_mixed_xy(p, q_affine.x, q_affine.y);
}

Point add_mixed(const Point& p, const Affine& q) { return add_mixed_xy(p, q.x, q.y); }

// Algorithm 9 (doubling, a = 0): 6M + 2S + 1m_b3 + 9a.
Point dbl(const Point& p) {
  using namespace fe256;
  Fe t0 = sqr(p.y);
  Fe z3 = fe256::mul_small(t0, 8);
  Fe t1 = mul(p.y, p.z);
  Fe t2 = sqr(p.z);
  t2 = fe256::mul_small(t2, 21);
  Fe x3 = mul(t2, z3);
  Fe y3 = add(t0, t2);
  z3 = mul(t1, z3);
  t0 = sub(t0, fe256::mul_small(t2, 3));
  y3 = mul(t0, y3);
  y3 = add(x3, y3);
  t1 = mul(p.x, p.y);
  x3 = mul(t0, t1);
  x3 = add(x3, x3);
  return Point{x3, y3, z3};
}

Point neg(const Point& p) { return Point{p.x, fe256::neg(p.y), p.z}; }

bool eq(const Point& p, const Point& q) {
  const bool pi = is_infinity(p);
  const bool qi = is_infinity(q);
  if (pi || qi) return pi == qi;
  return fe256::eq(fe256::mul(p.x, q.z), fe256::mul(q.x, p.z)) &&
         fe256::eq(fe256::mul(p.y, q.z), fe256::mul(q.y, p.z));
}

bool on_curve(const Point& p) {
  if (is_infinity(p)) return true;
  if (!fe256::eq(p.z, fe256::one())) return false;
  return fe256::eq(fe256::sqr(p.y), rhs_of(p.x));
}

void normalize(Point& p) {
  if (is_infinity(p)) {
    p = infinity();
    return;
  }
  if (fe256::eq(p.z, fe256::one())) return;
  const Fe zinv = fe256::inv(p.z);
  p.x = fe256::mul(p.x, zinv);
  p.y = fe256::mul(p.y, zinv);
  p.z = fe256::one();
}

void batch_normalize(Point* pts, std::size_t count) {
  // Montgomery's trick: prefix-multiply the z's, invert the total once,
  // then peel per-point inverses off the running product backwards.
  std::vector<Fe> prefix(count);
  Fe acc = fe256::one();
  for (std::size_t i = 0; i < count; ++i) {
    prefix[i] = acc;
    if (!is_infinity(pts[i])) acc = fe256::mul(acc, pts[i].z);
  }
  Fe inv_acc = fe256::inv(acc);
  for (std::size_t i = count; i-- > 0;) {
    if (is_infinity(pts[i])) {
      pts[i] = infinity();
      continue;
    }
    const Fe zinv = fe256::mul(inv_acc, prefix[i]);
    inv_acc = fe256::mul(inv_acc, pts[i].z);
    pts[i].x = fe256::mul(pts[i].x, zinv);
    pts[i].y = fe256::mul(pts[i].y, zinv);
    pts[i].z = fe256::one();
  }
}

Point mul(const Point& p, const Scalar& k) {
  if (is_infinity(p) || scalar_is_zero(k)) return infinity();
  Point base = p;
  normalize(base);
  // GLV: k*P = k1*P + k2*φ(P) with ~129-bit halves, so the shared doubling
  // chain is half as long.  φ's table costs one field multiply per entry.
  const Split s = glv_split(k);
  const std::vector<Point> table = odd_multiples(base, 8);  // 1P..15P
  std::vector<Point> phi_table(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) phi_table[i] = apply_endo(table[i]);
  std::int8_t d1[kMaxWnaf];
  std::int8_t d2[kMaxWnaf];
  const WnafStream streams[2] = {
      {d1, compute_wnaf(s.k1, 5, d1), table.data(), s.neg1},
      {d2, compute_wnaf(s.k2, 5, d2), phi_table.data(), s.neg2},
  };
  return wnaf_eval(streams, 2);
}

Point mul2(const Point& p, const Scalar& k1, const Point& q, const Scalar& k2) {
  const bool skip1 = is_infinity(p) || scalar_is_zero(k1);
  const bool skip2 = is_infinity(q) || scalar_is_zero(k2);
  if (skip1 && skip2) return infinity();
  if (skip1) return mul(q, k2);
  if (skip2) return mul(p, k1);
  // Both odd-multiple tables share one batch normalization (a single field
  // inversion for all 16 entries).
  Point base1 = p;
  Point base2 = q;
  normalize(base1);
  normalize(base2);
  std::vector<Point> tables;
  tables.reserve(16);
  const Point two1 = dbl(base1);
  tables.push_back(base1);
  for (int i = 1; i < 8; ++i) tables.push_back(add(tables.back(), two1));
  const Point two2 = dbl(base2);
  tables.push_back(base2);
  for (int i = 1; i < 8; ++i) tables.push_back(add(tables.back(), two2));
  batch_normalize(tables.data(), tables.size());
  // φ copies of both tables (entries stay affine; x scales by β), then four
  // half-scalar streams over the one shared doubling chain.
  std::vector<Point> phi(tables.size());
  for (std::size_t i = 0; i < tables.size(); ++i) phi[i] = apply_endo(tables[i]);
  const Split s1 = glv_split(k1);
  const Split s2 = glv_split(k2);
  std::int8_t d1a[kMaxWnaf];
  std::int8_t d1b[kMaxWnaf];
  std::int8_t d2a[kMaxWnaf];
  std::int8_t d2b[kMaxWnaf];
  const WnafStream streams[4] = {
      {d1a, compute_wnaf(s1.k1, 5, d1a), tables.data(), s1.neg1},
      {d1b, compute_wnaf(s1.k2, 5, d1b), phi.data(), s1.neg2},
      {d2a, compute_wnaf(s2.k1, 5, d2a), tables.data() + 8, s2.neg1},
      {d2b, compute_wnaf(s2.k2, 5, d2b), phi.data() + 8, s2.neg2},
  };
  return wnaf_eval(streams, 4);
}

Point multi_mul(const std::vector<std::pair<Point, Scalar>>& terms) {
  std::vector<std::pair<Point, Scalar>> live;
  live.reserve(terms.size());
  for (const auto& term : terms) {
    if (!is_infinity(term.first) && !scalar_is_zero(term.second)) live.push_back(term);
  }
  if (live.empty()) return infinity();
  if (live.size() == 1) return mul(live[0].first, live[0].second);
  if (live.size() == 2) return mul2(live[0].first, live[0].second, live[1].first, live[1].second);

  if (live.size() >= 512) {
    // Pippenger's bucket collapse cost per window is independent of k, so
    // it only overtakes Strauss (whose per-term cost is flat at ~22 mixed
    // adds per half-scalar) once the per-window bucket drops dominate the
    // collapse — measured crossover is around a thousand half-terms, not
    // dozens (at k=33 the old >=32 cutoff made it 4x slower than Strauss).
    // Pippenger needs affine inputs for its mixed bucket additions.  Each
    // term splits into two half-scalar terms — twice the bucket drops, but
    // the window count (and thus the doubling/collapse cost) halves.
    std::vector<Point> pts;
    pts.reserve(live.size());
    for (const auto& term : live) pts.push_back(term.first);
    batch_normalize(pts.data(), pts.size());
    std::vector<std::pair<Point, Scalar>> halves;
    halves.reserve(2 * live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      const Split s = glv_split(live[i].second);
      if (!scalar_is_zero(s.k1)) {
        halves.emplace_back(s.neg1 ? neg_affine(pts[i]) : pts[i], s.k1);
      }
      if (!scalar_is_zero(s.k2)) {
        const Point phi = apply_endo(pts[i]);
        halves.emplace_back(s.neg2 ? neg_affine(phi) : phi, s.k2);
      }
    }
    if (halves.empty()) return infinity();
    return pippenger(halves, 132);  // halves are < 2^130
  }

  // Strauss: interleave width-4 wNAFs over one shared doubling chain; all
  // odd-multiple tables ({1,3,5,7} * P_i) normalized by one inversion, with
  // φ copies carrying each term's second half-scalar.
  const std::size_t k = live.size();
  std::vector<Point> flat;
  flat.reserve(4 * k);
  for (const auto& [point, scalar] : live) {
    Point base = point;
    normalize(base);
    const Point two = dbl(base);
    flat.push_back(base);
    for (int i = 1; i < 4; ++i) flat.push_back(add(flat.back(), two));
  }
  batch_normalize(flat.data(), flat.size());
  std::vector<Point> phi_flat(flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) phi_flat[i] = apply_endo(flat[i]);
  std::vector<std::array<std::int8_t, kMaxWnaf>> digits(2 * k);
  std::vector<WnafStream> streams;
  streams.reserve(2 * k);
  for (std::size_t i = 0; i < k; ++i) {
    const Split s = glv_split(live[i].second);
    streams.push_back({digits[2 * i].data(), compute_wnaf(s.k1, 4, digits[2 * i].data()),
                       flat.data() + 4 * i, s.neg1});
    streams.push_back({digits[2 * i + 1].data(), compute_wnaf(s.k2, 4, digits[2 * i + 1].data()),
                       phi_flat.data() + 4 * i, s.neg2});
  }
  return wnaf_eval(streams.data(), streams.size());
}

FixedBaseTable build_fixed_base(const Point& base, int width) {
  SINTRA_INVARIANT(width >= 1 && width <= 10, "curve256: comb width out of range");
  FixedBaseTable table;
  table.width = width;
  if (is_infinity(base)) return table;  // mul_fixed on an empty table is infinity
  Point cur = base;
  normalize(cur);
  const int blocks = (256 + width - 1) / width;
  std::vector<Point> flat;
  std::vector<std::size_t> offsets;
  offsets.reserve(static_cast<std::size_t>(blocks) + 1);
  for (int i = 0; i < blocks; ++i) {
    // The last block covers only the scalar bits that remain, so its digit
    // (and entry count) shrinks accordingly.
    const int bw = std::min(width, 256 - width * i);
    const int entries = (1 << bw) - 1;
    offsets.push_back(flat.size());
    // block entries j * (2^(width*i) * base), j = 1..entries; then advance.
    flat.push_back(cur);
    for (int j = 2; j <= entries; ++j) flat.push_back(add(flat.back(), cur));
    cur = add(flat.back(), cur);
  }
  offsets.push_back(flat.size());
  batch_normalize(flat.data(), flat.size());
  table.blocks.resize(static_cast<std::size_t>(blocks));
  for (int i = 0; i < blocks; ++i) {
    auto& block = table.blocks[static_cast<std::size_t>(i)];
    for (std::size_t j = offsets[static_cast<std::size_t>(i)];
         j < offsets[static_cast<std::size_t>(i) + 1]; ++j) {
      block.push_back(Affine{flat[j].x, flat[j].y});
    }
  }
  return table;
}

Point mul_fixed(const FixedBaseTable& table, const Scalar& k) {
  const int width = table.width;
  Point acc = infinity();
  for (std::size_t i = 0; i < table.blocks.size(); ++i) {
    const int pos = width * static_cast<int>(i);
    const int bw = std::min(width, 256 - pos);
    const unsigned digit = scalar_bits(k, pos, bw);
    if (digit != 0) acc = add_mixed(acc, table.blocks[i][digit - 1]);
  }
  return acc;
}

const Fe& endo_beta() { return glv().beta; }

const Scalar& endo_lambda() { return glv().lambda; }

void encode(const Point& p, std::uint8_t out[kEncodedBytes]) {
  if (is_infinity(p)) {
    for (std::size_t i = 0; i < kEncodedBytes; ++i) out[i] = 0;
    return;
  }
  SINTRA_INVARIANT(fe256::eq(p.z, fe256::one()), "curve256: encoding unnormalized point");
  out[0] = fe256::is_odd(p.y) ? 0x03 : 0x02;
  fe256::to_bytes(p.x, out + 1);
}

bool decode(const std::uint8_t in[kEncodedBytes], Point& out) {
  if (in[0] == 0x00) {
    for (std::size_t i = 1; i < kEncodedBytes; ++i) {
      if (in[i] != 0) return false;  // non-canonical infinity
    }
    out = infinity();
    return true;
  }
  if (in[0] != 0x02 && in[0] != 0x03) return false;
  Fe x;
  if (!fe256::from_bytes(in + 1, x)) return false;  // x >= p: non-canonical
  Fe y;
  if (!fe256::sqrt(rhs_of(x), y)) return false;  // x not on the curve
  if (fe256::is_odd(y) != (in[0] == 0x03)) y = fe256::neg(y);
  out = Point{x, y, fe256::one()};
  return true;
}

Point hash_to_curve(std::string_view domain, BytesView data) {
  // Try-and-increment: deterministic, ~2 attempts expected.  The candidate
  // x comes from a domain-separated XOF so no structure of `data` survives,
  // and the parity byte picks the y root.  Cofactor 1 means any finite
  // curve point already has prime order n.
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes attempt(data.begin(), data.end());
    for (int i = 0; i < 4; ++i) {
      attempt.push_back(static_cast<std::uint8_t>(counter >> (8 * i)));
    }
    const Bytes wide = hash_expand(domain, attempt, kEncodedBytes);
    Fe x;
    if (!fe256::from_bytes(wide.data() + 1, x)) continue;
    Fe y;
    if (!fe256::sqrt(rhs_of(x), y)) continue;
    if (fe256::is_odd(y) != ((wide[0] & 1) != 0)) y = fe256::neg(y);
    return Point{x, y, fe256::one()};
  }
}

}  // namespace sintra::crypto::curve256
