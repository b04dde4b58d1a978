#include "crypto/group_schnorr.hpp"

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace sintra::crypto {

namespace {
// Parameters generated offline (seeded independent implementation) and
// re-verified by tests/group_test.cpp: p, q prime; q | p-1; g has order q.
struct Params {
  const char* p;
  const char* q;
  const char* g;
};

constexpr Params kTest = {
    "0x853644a2e8000d92fe74ffc4a0039fb9f6e65328422eeaf1886b9548801b637b",
    "0xdd19fd809eef4855bf656392d80b670b",
    "0x6bb010cf4edc06057727d5c5983b2cbcc740a8dc55689d1ac86cce38a15cf8c8"};

constexpr Params kDefault = {
    "0x8ee5df35cad6cb874432102373cd624eb0e878ae95e61dc98285b8989059a1e2"
    "1809066936dc5fff8d4217673e890b1a822c01f23afb9bc99a537bc6bd7dff44"
    "4ea03ef09a8b5789fadef61ee0aa6b69bc6700e357bbc2d316a52729cdeb927d",
    "0xab6331dfe58be9d74b8adc16b06d1b75f8411fb71e31750c7efe1342c374d853",
    "0x7c5dff998776acb56f59fcd7379742ac41c082971db8dbdd46bff0208af845fa"
    "58a548e4e015699688af98450d6a2ccdce61096cfc6a3434cd21ed222aeb8bff"
    "12499a6e65f85c6d00f715b37ee834da86535b0cf2ecc737db578fbe69423fcf"};

constexpr Params kBig = {
    "0x81af6b2f91f6f628411d396142972a4ec04b56c67c7ef9ca75e2f5aac5e9ed5d"
    "200c169b48eba7daf6a054dbfbbf7cfed41bec877cb746d38dd85885bb9d50d7"
    "2295120f4f61002d0ce7a315dc0742330a0aa4a05c3c0bde37b9b71ee0a089f5"
    "5ea832e606c5ed1d77d7131c6175b5a10aa5934481236227bfd39b1ed8359084"
    "8784fabf496ed586377804bca33f0cd88374bdb68044cba5daa55645d2090ef1"
    "aeb3daad2ab9d8d8507f978aa357dd3f69dc8f688f787aa7b80ae1d1f3be98af",
    "0x993cd8a192ba4eb95a8aa14a7bd1176f816d3b64be3c54697dd712d675d68fad",
    "0x274984bac03ef45ba764dca830084e0e04dcad1b13d0ff644080509da9854013"
    "37a3c45732c5ab14dde1f8341c0d87592e86ed82c0caf123263145942e7b24ac"
    "1955780bb4c38fa12aee6075ddacfb5cb9859747fa5d0cdf87a285fbfc9868a0"
    "2e97afc2b171a1ab1c67d3ceca7fada83d8c5f5e854f28a519c431f65f952bc7"
    "ecd5168a25f6c118c93dcb5b83f4543026e6668d43f98fae9e77ccda0b7fe260"
    "762dd452fd00f8bac618cacb026666520c8af3fec05ecfd447e6e479421794df"};

std::shared_ptr<const SchnorrGroup> make_group(const Params& params, std::string name) {
  return std::make_shared<const SchnorrGroup>(BigInt::from_string(params.p),
                                              BigInt::from_string(params.q),
                                              BigInt::from_string(params.g), std::move(name));
}

std::string element_key(const BigInt& a) {
  Bytes raw = a.to_bytes();
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

constexpr std::size_t kMaxElementMemo = 8192;
}  // namespace

SchnorrGroup::SchnorrGroup(BigInt p, BigInt q, BigInt g, std::string name)
    : Group(std::move(q), std::move(name), (p.bit_length() + 7) / 8), p_(std::move(p)),
      gen_(std::move(g)), mont_p_(p_) {
  SINTRA_INVARIANT(((p_ - BigInt(1)) % q_).is_zero(), "Group: q must divide p-1");
  cofactor_ = (p_ - BigInt(1)) / q_;
  SINTRA_INVARIANT(residue_is_member(gen_) && !gen_.is_one(), "Group: bad generator");
  g_table_ = build_fixed_base(gen_);
  g_ = Element::from_residue(gen_);
}

std::shared_ptr<const SchnorrGroup> SchnorrGroup::test() {
  static std::shared_ptr<const SchnorrGroup> group = make_group(kTest, "test-256/128");
  return group;
}

std::shared_ptr<const SchnorrGroup> SchnorrGroup::production() {
  static std::shared_ptr<const SchnorrGroup> group = make_group(kDefault, "default-768/256");
  return group;
}

std::shared_ptr<const SchnorrGroup> SchnorrGroup::big() {
  static std::shared_ptr<const SchnorrGroup> group = make_group(kBig, "big-1536/256");
  return group;
}

SchnorrGroup::FixedBaseTable SchnorrGroup::build_fixed_base(const BigInt& base) const {
  FixedBaseTable table;
  const std::size_t blocks = (q_.bit_length() + 3) / 4;
  table.blocks.resize(blocks);
  BigInt cur = mont_p_.to_mont(base);  // base^(16^i) in Montgomery form
  for (std::size_t i = 0; i < blocks; ++i) {
    auto& block = table.blocks[i];
    block.reserve(15);
    block.push_back(cur);
    for (int j = 2; j <= 15; ++j) block.push_back(mont_p_.mul(block.back(), cur));
    cur = mont_p_.mul(block.back(), cur);
  }
  return table;
}

BigInt SchnorrGroup::exp_fixed(const FixedBaseTable& table, const BigInt& scalar) const {
  BigInt result = mont_p_.one_mont();
  for (std::size_t i = 0; i < table.blocks.size(); ++i) {
    const std::uint32_t digit = (static_cast<std::uint32_t>(scalar.bit(4 * i + 3)) << 3) |
                                (static_cast<std::uint32_t>(scalar.bit(4 * i + 2)) << 2) |
                                (static_cast<std::uint32_t>(scalar.bit(4 * i + 1)) << 1) |
                                static_cast<std::uint32_t>(scalar.bit(4 * i));
    if (digit != 0) result = mont_p_.mul(result, table.blocks[i][digit - 1]);
  }
  return mont_p_.from_mont(result);
}

std::shared_ptr<const SchnorrGroup::FixedBaseTable> SchnorrGroup::registered_table(
    const BigInt& base) const {
  return base_cache_.find(element_key(base), [&] { return build_fixed_base(base); });
}

void SchnorrGroup::precompute_base(const Element& base) const {
  base_cache_.add(element_key(base.residue()));
}

Element SchnorrGroup::mul(const Element& a, const Element& b) const {
  return Element::from_residue(BigInt::mul_mod(a.residue(), b.residue(), p_));
}

Element SchnorrGroup::exp(const Element& base, const BigInt& scalar) const {
  const BigInt e = scalar.mod(q_);
  const BigInt& b = base.residue();
  if (b == gen_) return Element::from_residue(exp_fixed(g_table_, e));
  if (const auto table = registered_table(b)) {
    return Element::from_residue(exp_fixed(*table, e));
  }
  return Element::from_residue(mont_p_.pow(b, e));
}

Element SchnorrGroup::exp_g(const BigInt& scalar) const {
  return Element::from_residue(exp_fixed(g_table_, scalar.mod(q_)));
}

Element SchnorrGroup::exp2(const Element& b1, const BigInt& e1, const Element& b2,
                           const BigInt& e2) const {
  return Element::from_residue(mont_p_.pow2(b1.residue(), e1.mod(q_), b2.residue(), e2.mod(q_)));
}

Element SchnorrGroup::multi_exp(const std::vector<std::pair<Element, BigInt>>& pairs) const {
  std::vector<std::pair<BigInt, BigInt>> reduced;
  reduced.reserve(pairs.size());
  for (const auto& [base, exp] : pairs) reduced.emplace_back(base.residue(), exp.mod(q_));
  return Element::from_residue(mont_p_.multi_pow(reduced));
}

Element SchnorrGroup::inv(const Element& a) const {
  return Element::from_residue(BigInt::inverse_mod(a.residue(), p_));
}

Element SchnorrGroup::identity() const { return Element::from_residue(BigInt(1)); }

bool SchnorrGroup::residue_is_member(const BigInt& a) const {
  if (a.is_negative() || a.is_zero() || a >= p_) return false;
  std::string key = element_key(a);
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    if (element_memo_.count(key) != 0) return true;
  }
  if (!mont_p_.pow(a, q_).is_one()) return false;
  std::lock_guard<std::mutex> lock(memo_mutex_);
  if (element_memo_.size() >= kMaxElementMemo) element_memo_.clear();
  element_memo_.insert(std::move(key));
  return true;
}

bool SchnorrGroup::is_element(const Element& a) const {
  return a.has_residue() && residue_is_member(a.residue());
}

bool SchnorrGroup::is_residue(const Element& a) const {
  if (!a.has_residue()) return false;
  const BigInt& r = a.residue();
  return !r.is_negative() && !r.is_zero() && r < p_;
}

Element SchnorrGroup::hash_to_element(std::string_view domain, BytesView data) const {
  // Expand past the modulus width to make the pre-cofactor residue
  // statistically close to uniform mod p, then clear the cofactor.
  Bytes wide = hash_expand(domain, data, element_bytes_ + 16);
  BigInt residue = BigInt::from_bytes(wide).mod(p_);
  BigInt element = mont_p_.pow(residue, cofactor_);
  if (element.is_zero() || element.is_one()) {
    // Astronomically unlikely; re-hash deterministically so the oracle
    // stays a function.
    Bytes retry = wide;
    retry.push_back(0x42);
    residue = BigInt::from_bytes(hash_expand(domain, retry, element_bytes_ + 16)).mod(p_);
    element = mont_p_.pow(residue, cofactor_);
  }
  return Element::from_residue(std::move(element));
}

void SchnorrGroup::encode_element(Writer& w, const Element& a) const {
  w.raw(a.residue().to_bytes_padded(element_bytes_));
}

Element SchnorrGroup::decode_element(Reader& r) const {
  BigInt a = BigInt::from_bytes(r.raw(element_bytes_));
  SINTRA_REQUIRE(residue_is_member(a), "Group: not a subgroup element");
  return Element::from_residue(std::move(a));
}

Element SchnorrGroup::decode_residue(Reader& r) const {
  BigInt a = BigInt::from_bytes(r.raw(element_bytes_));
  SINTRA_REQUIRE(!a.is_negative() && !a.is_zero() && a < p_, "Group: residue out of range");
  return Element::from_residue(std::move(a));
}

}  // namespace sintra::crypto
