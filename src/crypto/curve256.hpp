// secp256k1 curve arithmetic: y^2 = x^3 + 7 over GF(p), prime order n,
// cofactor 1.  The group engine behind the `secp256k1` Group backend
// (group_curve.hpp); everything here works on fixed-limb field elements
// (fe256.hpp) — no heap BigInt on any hot path.
//
// Internals:
//  * complete projective addition/doubling formulas for a = 0 curves
//    (Renes–Costello–Batina, EUROCRYPT 2016): no exceptional cases, the
//    same code path handles P+P, P+(-P), and the point at infinity
//    (represented (0, 1, 0));
//  * width-5 wNAF for variable-base multiplication, with the odd-multiple
//    table normalized to affine via Montgomery's inversion trick so the
//    main loop runs on cheaper mixed additions;
//  * the GLV endomorphism: secp256k1 has an efficient order-3 automorphism
//    φ(x, y) = (βx, y) = λ·(x, y), so every 256-bit scalar splits into two
//    ~128-bit half-scalars and every multiplication chain runs half the
//    doublings.  β, λ, and the short lattice basis are *computed and
//    self-verified at startup* (cube roots via exponentiation, basis via
//    the extended Euclid on (n, λ)) rather than pasted in as constants;
//  * comb tables for fixed bases (the generator at width 8, registered
//    public keys at width 6): one mixed addition per scalar window, zero
//    doublings;
//  * Shamir/Strauss interleaving for double- and small multi-scalar
//    products, Pippenger buckets for large batches — the shapes used by
//    proof verification and batch verification respectively; both run on
//    GLV half-scalars.
//
// Points handed across this API are *normalized*: z is exactly 0 (infinity)
// or 1 (affine), so equality, hashing, and encoding are plain limb work.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/fe256.hpp"

namespace sintra::crypto::curve256 {

using fe256::Fe;

/// Projective point (X : Y : Z); infinity is Z = 0, canonically (0, 1, 0).
struct Point {
  Fe x;
  Fe y;
  Fe z;
};

/// An affine point (x, y), never infinity: a comb-table entry, two field
/// elements instead of a projective point's three.
struct Affine {
  Fe x;
  Fe y;
};

/// Group-order scalar, little-endian limbs, value < n.  Conversion from the
/// protocol layer's BigInt exponents happens once per group operation at
/// the Group boundary (group_curve.cpp).
struct Scalar {
  std::uint64_t v[4] = {0, 0, 0, 0};
};

/// Curve order n, little-endian limbs.
inline constexpr std::uint64_t kOrder[4] = {0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                                            0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL};

[[nodiscard]] Point infinity();
[[nodiscard]] const Point& generator();
[[nodiscard]] bool is_infinity(const Point& p);

[[nodiscard]] Point add(const Point& p, const Point& q);
/// q must be normalized affine (z == 1); complete for any p.
[[nodiscard]] Point add_mixed(const Point& p, const Point& q_affine);
[[nodiscard]] Point add_mixed(const Point& p, const Affine& q);
[[nodiscard]] Point dbl(const Point& p);
[[nodiscard]] Point neg(const Point& p);

/// Cross-multiplied projective equality (works on unnormalized points).
[[nodiscard]] bool eq(const Point& p, const Point& q);

/// True iff normalized (z in {0,1}) and, when affine, on the curve.
[[nodiscard]] bool on_curve(const Point& p);

/// Scale to z in {0, 1} with one field inversion.
void normalize(Point& p);
/// Montgomery's trick: normalize all points with a single field inversion
/// plus 3(k-1) multiplications.
void batch_normalize(Point* pts, std::size_t count);

/// Variable-base k*P, width-5 wNAF.
[[nodiscard]] Point mul(const Point& p, const Scalar& k);
/// k1*P + k2*Q with one shared doubling chain (Shamir/Strauss).
[[nodiscard]] Point mul2(const Point& p, const Scalar& k1, const Point& q, const Scalar& k2);
/// sum k_i * P_i; Strauss below 32 terms, Pippenger buckets above.
[[nodiscard]] Point multi_mul(const std::vector<std::pair<Point, Scalar>>& terms);

/// Comb table for a long-lived base: blocks[i][j-1] = (j * 2^(w*i)) * B in
/// affine form, mirroring the Schnorr backend's fixed-base layout.  One
/// mixed addition per w-bit scalar window; wider w trades table memory and
/// build time for fewer additions (the generator uses 8, registered public
/// keys 6).
struct FixedBaseTable {
  int width = 4;
  std::vector<std::vector<Affine>> blocks;
};
[[nodiscard]] FixedBaseTable build_fixed_base(const Point& base, int width = 4);
[[nodiscard]] Point mul_fixed(const FixedBaseTable& table, const Scalar& k);

/// GLV endomorphism constants: φ(x, y) = (endo_beta()*x, y) equals
/// multiplication by endo_lambda().  Derived and verified at startup;
/// exposed so the tests can check the pairing independently.
[[nodiscard]] const Fe& endo_beta();
[[nodiscard]] const Scalar& endo_lambda();

/// 33-byte compressed SEC1: 0x02/0x03 prefix + big-endian x; infinity is 33
/// zero bytes.  Point must be normalized.
inline constexpr std::size_t kEncodedBytes = 33;
void encode(const Point& p, std::uint8_t out[kEncodedBytes]);
/// Strict decode: rejects bad prefixes, x >= p (non-canonical), off-curve x,
/// and any nonzero tail on the infinity encoding.  Returns false on reject.
[[nodiscard]] bool decode(const std::uint8_t in[kEncodedBytes], Point& out);

/// Deterministic hash-to-curve by try-and-increment over a domain-separated
/// XOF stream; output point is normalized, never infinity.
[[nodiscard]] Point hash_to_curve(std::string_view domain, BytesView data);

}  // namespace sintra::crypto::curve256
