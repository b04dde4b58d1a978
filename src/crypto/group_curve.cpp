#include "crypto/group_curve.hpp"

#include "common/assert.hpp"

namespace sintra::crypto {

namespace {

/// Comb widths: the generator's table is built once at startup and sits on
/// every exp_g/proof path, so it gets the wide (~520 KiB) table; registered
/// bases (up to 64 of them) get a narrower one, ~100 KiB, that builds in
/// under a millisecond and still eliminates all doublings.
constexpr int kGeneratorCombWidth = 8;
constexpr int kRegisteredCombWidth = 5;

/// secp256k1 group order n (also the scalar field modulus).
const char* kOrderHex =
    "0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141";

/// Normalize a fresh arithmetic result and wrap it; Elements always carry
/// normalized points so equality/encoding/hashing stay plain limb work.
Element wrap(curve256::Point p) {
  curve256::normalize(p);
  return Element::from_point(p);
}

std::string point_key(const curve256::Point& p) {
  std::uint8_t enc[curve256::kEncodedBytes];
  curve256::encode(p, enc);
  return std::string(reinterpret_cast<const char*>(enc), sizeof(enc));
}
}  // namespace

EcGroup::EcGroup()
    : Group(BigInt::from_string(kOrderHex), "secp256k1", curve256::kEncodedBytes) {
  g_table_ = curve256::build_fixed_base(curve256::generator(), kGeneratorCombWidth);
  g_ = Element::from_point(curve256::generator());
}

std::shared_ptr<const EcGroup> EcGroup::instance() {
  static std::shared_ptr<const EcGroup> group = std::make_shared<const EcGroup>();
  return group;
}

curve256::Scalar EcGroup::to_scalar(const BigInt& e) const {
  Bytes be = e.mod(q_).to_bytes_padded(32);
  curve256::Scalar k;
  for (int limb = 0; limb < 4; ++limb) {
    std::uint64_t word = 0;
    for (int byte = 0; byte < 8; ++byte) {
      word = (word << 8) | be[static_cast<std::size_t>((3 - limb) * 8 + byte)];
    }
    k.v[limb] = word;
  }
  return k;
}

EcGroup::TablePtr EcGroup::table_for(const Element& base) const {
  // The generator's table lives as long as the group: a non-owning pointer.
  if (base == g_) return TablePtr(TablePtr(), &g_table_);
  return base_cache_.find(point_key(base.point()), [&] {
    return curve256::build_fixed_base(base.point(), kRegisteredCombWidth);
  });
}

void EcGroup::precompute_base(const Element& base) const {
  if (base == g_ || !base.has_point() || curve256::is_infinity(base.point())) return;
  base_cache_.add(point_key(base.point()));
}

Element EcGroup::mul(const Element& a, const Element& b) const {
  return wrap(curve256::add(a.point(), b.point()));
}

curve256::Point EcGroup::exp_unnormalized(const Element& base, const BigInt& e) const {
  const curve256::Scalar k = to_scalar(e);
  if (const TablePtr table = table_for(base)) return curve256::mul_fixed(*table, k);
  return curve256::mul(base.point(), k);
}

Element EcGroup::exp(const Element& base, const BigInt& scalar) const {
  return wrap(exp_unnormalized(base, scalar));
}

Element EcGroup::exp_g(const BigInt& scalar) const {
  return wrap(curve256::mul_fixed(g_table_, to_scalar(scalar)));
}

Element EcGroup::exp2(const Element& b1, const BigInt& e1, const Element& b2,
                      const BigInt& e2) const {
  // With a comb table on either base the no-doubling fixed-base walk plus
  // one projective addition beats the shared Strauss chain; without tables
  // the shared chain wins.
  const TablePtr t1 = table_for(b1);
  const TablePtr t2 = table_for(b2);
  if (t1 == nullptr && t2 == nullptr) {
    return wrap(curve256::mul2(b1.point(), to_scalar(e1), b2.point(), to_scalar(e2)));
  }
  const curve256::Point r1 =
      t1 != nullptr ? curve256::mul_fixed(*t1, to_scalar(e1)) : curve256::mul(b1.point(), to_scalar(e1));
  const curve256::Point r2 =
      t2 != nullptr ? curve256::mul_fixed(*t2, to_scalar(e2)) : curve256::mul(b2.point(), to_scalar(e2));
  return wrap(curve256::add(r1, r2));
}

bool EcGroup::exp2_equals(const Element& b1, const BigInt& e1, const Element& b2,
                          const BigInt& e2, const Element& expected) const {
  if (!expected.has_point()) return false;
  // Projective comparison: curve256::eq cross-multiplies, so the result of
  // the exponentiations never needs the normalizing field inversion that
  // exp2 (which must hand back a canonical Element) pays.  Base selection
  // mirrors exp2: comb tables when available, shared Strauss chain when not.
  const TablePtr t1 = table_for(b1);
  const TablePtr t2 = table_for(b2);
  curve256::Point sum;
  if (t1 == nullptr && t2 == nullptr) {
    sum = curve256::mul2(b1.point(), to_scalar(e1), b2.point(), to_scalar(e2));
  } else {
    const curve256::Point r1 = t1 != nullptr ? curve256::mul_fixed(*t1, to_scalar(e1))
                                             : curve256::mul(b1.point(), to_scalar(e1));
    const curve256::Point r2 = t2 != nullptr ? curve256::mul_fixed(*t2, to_scalar(e2))
                                             : curve256::mul(b2.point(), to_scalar(e2));
    sum = curve256::add(r1, r2);
  }
  return curve256::eq(sum, expected.point());
}

Element EcGroup::multi_exp(const std::vector<std::pair<Element, BigInt>>& pairs) const {
  // Bases with a comb table (g, registered keys) stay on it: a table walk
  // has no doublings, which beats sharing the Strauss chain for a 256-bit
  // exponent.  The rest share one chain.
  std::vector<std::pair<curve256::Point, curve256::Scalar>> terms;
  terms.reserve(pairs.size());
  curve256::Point fixed = curve256::infinity();
  for (const auto& [base, exp] : pairs) {
    if (const TablePtr table = table_for(base)) {
      fixed = curve256::add(fixed, curve256::mul_fixed(*table, to_scalar(exp)));
    } else {
      terms.emplace_back(base.point(), to_scalar(exp));
    }
  }
  return wrap(curve256::add(fixed, curve256::multi_mul(terms)));
}

Element EcGroup::inv(const Element& a) const { return wrap(curve256::neg(a.point())); }

Element EcGroup::identity() const { return Element::from_point(curve256::infinity()); }

bool EcGroup::is_element(const Element& a) const {
  // Cofactor 1: every on-curve point (including infinity, matching the
  // Schnorr backend's acceptance of the identity residue) is a member.
  return a.has_point() && curve256::on_curve(a.point());
}

bool EcGroup::is_residue(const Element& a) const {
  // Membership already is a constant-cost on-curve check; there is no
  // cheaper relaxation worth distinguishing.
  return is_element(a);
}

Element EcGroup::hash_to_element(std::string_view domain, BytesView data) const {
  return Element::from_point(curve256::hash_to_curve(domain, data));
}

void EcGroup::encode_element(Writer& w, const Element& a) const {
  std::uint8_t enc[curve256::kEncodedBytes];
  curve256::encode(a.point(), enc);
  w.raw(BytesView(enc, sizeof(enc)));
}

Element EcGroup::decode_element(Reader& r) const {
  Bytes raw = r.raw(curve256::kEncodedBytes);
  curve256::Point p;
  SINTRA_REQUIRE(curve256::decode(raw.data(), p), "Group: not a curve point");
  return Element::from_point(p);
}

Element EcGroup::decode_residue(Reader& r) const { return decode_element(r); }

}  // namespace sintra::crypto
