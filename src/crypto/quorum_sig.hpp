// Quorum signatures: the certificates of the ordering path (consistent
// broadcast, atomic-broadcast batches) as SETS of ordinary EC-Schnorr
// signatures, one per share unit, instead of one threshold-RSA signature.
//
// Cachin–Kursawe–Petzold–Shoup note that n − t ordinary signatures can
// stand in for the threshold signature of a certificate; the price is a
// certificate that grows with the quorum, the gain is that nothing on the
// ordering path touches the RSA modulus.  The key is dealt like any other
// discrete-log key (dealer.hpp): a secret x shared over the `high` access
// structure, unit u holding x_u with public verification value
// X_u = g^{x_u}.  Unit u signs a statement with x_u as its Schnorr signing
// key; the shared secret x itself is never used, so the sharing only matters
// for reconfiguration, which redistributes the units like every dealt key.
//
// Signature on statement m by unit u, in (challenge, response) form:
//   k = H_nonce(x_u, u, m)            (deterministic, as in EdDSA)
//   R = g^k,  c = H(u, X_u, R, m),  z = k + c·x_u  (mod q)
// Verification recomputes R = g^z · X_u^{-c} on the fixed-base tables of g
// and X_u and compares the challenge; no curve point is decoded.  The
// deterministic nonce means neither a weak Rng nor a crash-recovery replay
// can reuse k across statements, and a party's own signature on m is
// byte-identical every time, so checking it is a byte compare.
//
// A certificate is valid iff every signer's units appear exactly once
// (ShareTally's admission rule), the signers form a quorum and every
// signature verifies; verify_set checks the first and last and returns the
// signers, the caller's quorum system rules on the second
// (protocols/consistent.hpp).
#pragma once

#include <optional>

#include "crypto/group.hpp"
#include "crypto/sharing.hpp"

namespace sintra::crypto {

class QuorumSigPublicKey;

/// One unit's signature on a statement.
struct QuorumSig {
  int unit = 0;
  BigInt c;  ///< challenge H(u, X_u, R, m)
  BigInt z;  ///< response k + c·x_u

  void encode(Writer& w, const Group& group) const;
  static QuorumSig decode(Reader& r, const Group& group);
  friend bool operator==(const QuorumSig& a, const QuorumSig& b) {
    return a.unit == b.unit && a.c == b.c && a.z == b.z;
  }
};

/// A party's signing key: its units' secret shares.
class QuorumSigSecretKey {
 public:
  QuorumSigSecretKey(int party, std::map<int, BigInt> unit_shares)
      : party_(party), unit_shares_(std::move(unit_shares)) {}

  [[nodiscard]] int party() const { return party_; }
  /// Exposed for share redistribution (protocols/reconfig.hpp).
  [[nodiscard]] const std::map<int, BigInt>& unit_shares() const { return unit_shares_; }

  /// One signature per held unit, ascending by unit; deterministic.
  [[nodiscard]] std::vector<QuorumSig> sign(const QuorumSigPublicKey& pk,
                                            BytesView statement) const;

 private:
  int party_;
  std::map<int, BigInt> unit_shares_;
};

/// Public key: per-unit verification values + the sharing scheme.
class QuorumSigPublicKey {
 public:
  QuorumSigPublicKey(GroupPtr group, std::shared_ptr<const LinearScheme> scheme,
                     std::vector<Element> verification);

  [[nodiscard]] const Group& group() const { return *group_; }
  [[nodiscard]] const GroupPtr& group_ptr() const { return group_; }
  [[nodiscard]] const LinearScheme& scheme() const { return *scheme_; }
  [[nodiscard]] const Element& verification(int unit) const { return verification_.at(unit); }

  /// One signature against its unit's verification value.
  [[nodiscard]] bool verify(BytesView statement, const QuorumSig& sig) const;

  /// The signers of `sigs` if every signer's units appear exactly once and
  /// every signature verifies on `statement`; nullopt otherwise.  A
  /// signature byte-equal to one in `trusted` (the caller's own, over this
  /// same statement) is accepted without the curve check.
  [[nodiscard]] std::optional<PartySet> verify_set(BytesView statement,
                                                   const std::vector<QuorumSig>& sigs,
                                                   const std::vector<QuorumSig>& trusted = {}) const;

 private:
  GroupPtr group_;
  std::shared_ptr<const LinearScheme> scheme_;
  std::vector<Element> verification_;  ///< unit -> g^{x_unit}
};

/// Dealer output for the quorum-signature key.
struct QuorumSigDeal {
  QuorumSigPublicKey public_key;
  std::vector<QuorumSigSecretKey> secret_keys;  ///< one per party

  static QuorumSigDeal deal(GroupPtr group, std::shared_ptr<const LinearScheme> scheme,
                            Rng& rng);
};

}  // namespace sintra::crypto
