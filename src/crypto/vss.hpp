// Feldman verifiable secret sharing — the building block of the
// discrete-log share redistribution (crypto/reshare.hpp) behind
// reconfiguration epochs and the paper's §6 proactive refresh.
//
// A Feldman dealing is a Shamir sharing of s plus public commitments
// C_j = g^{a_j} to the polynomial coefficients.  Anyone can check that
// party i's share s_i is consistent with the commitments:
//
//     g^{s_i}  ==  prod_j C_j^{(i+1)^j}
//
// and the shared secret's public image g^s = C_0 is fixed by the dealing.
// Secrecy is computational (the commitments reveal g^{a_j}), which is
// exactly right for resharing discrete-log key shares: the coin and TDH2
// keys already expose g^{x_i} as verification values.
#pragma once

#include "crypto/group.hpp"
#include "crypto/shamir.hpp"

namespace sintra::crypto {

/// A verifiable dealing: per-party shares plus coefficient commitments.
struct FeldmanDealing {
  std::vector<BigInt> shares;       ///< share for party i at point i+1
  std::vector<Element> commitments;  ///< C_j = g^{a_j}, j = 0..t

  /// Deal `secret` with threshold t among n parties.
  static FeldmanDealing deal(const Group& group, const BigInt& secret, int n, int t, Rng& rng);

  /// Publicly verify party `party`'s share against the commitments.
  static bool verify_share(const Group& group, const std::vector<Element>& commitments,
                           int party, const BigInt& share);

  /// The public image g^secret of the dealt secret.
  [[nodiscard]] const Element& public_image() const { return commitments.at(0); }

  /// Expected value of g^{share_i} for any party, from commitments only.
  static Element share_image(const Group& group, const std::vector<Element>& commitments,
                            int party);
};

}  // namespace sintra::crypto
