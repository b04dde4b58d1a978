#include "crypto/vss.hpp"

#include "common/assert.hpp"

namespace sintra::crypto {

FeldmanDealing FeldmanDealing::deal(const Group& group, const BigInt& secret, int n, int t,
                                    Rng& rng) {
  SINTRA_REQUIRE(n >= 1 && t >= 0 && t < n, "FeldmanDealing: bad parameters");
  ShamirPolynomial poly = ShamirPolynomial::random(secret, t, group.q(), rng);
  FeldmanDealing dealing;
  dealing.shares.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) dealing.shares.push_back(poly.eval_at(i + 1));
  dealing.commitments.reserve(poly.coeffs.size());
  for (const BigInt& coeff : poly.coeffs) dealing.commitments.push_back(group.exp_g(coeff));
  return dealing;
}

Element FeldmanDealing::share_image(const Group& group, const std::vector<Element>& commitments,
                                   int party) {
  // prod_j C_j^{x^j} with x = party + 1, via Horner in the exponent:
  // acc = C_t; acc = acc^x * C_{t-1}; ...
  const BigInt x(party + 1);
  Element acc = commitments.back();
  for (std::size_t j = commitments.size() - 1; j-- > 0;) {
    acc = group.mul(group.exp(acc, x), commitments[j]);
  }
  return acc;
}

bool FeldmanDealing::verify_share(const Group& group, const std::vector<Element>& commitments,
                                  int party, const BigInt& share) {
  if (commitments.empty() || !group.is_scalar(share)) return false;
  for (const Element& c : commitments) {
    if (!group.is_element(c)) return false;
  }
  return group.exp_g(share) == share_image(group, commitments, party);
}

}  // namespace sintra::crypto
