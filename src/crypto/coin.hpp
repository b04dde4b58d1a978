// Threshold coin-tossing scheme of Cachin, Kursawe & Shoup (PODC 2000).
//
// The unpredictable common coin is the randomization source of the ABBA
// Byzantine-agreement protocol (protocols/abba.*): one dealt key yields an
// arbitrary number of coins, one per "name" (protocol instance + round).
//
// Construction (Diffie–Hellman based, random-oracle model):
//   dealer:   secret x in Z_q shared linearly; public V_j = g^{x_j} per unit.
//   share:    for coin name N, unit j reveals sigma_j = Htilde(N)^{x_j}
//             plus a Chaum–Pedersen proof that log_g V_j = log_{Htilde(N)} sigma_j.
//   combine:  any qualified set recombines in the exponent to
//             sigma = Htilde(N)^x; the coin value is a hash of sigma.
//
// Unpredictability: before some honest party releases a share, the
// adversary's view is independent of the coin (DDH + ROM); robustness: bad
// shares fail proof verification and are discarded.
#pragma once

#include <optional>

#include "crypto/group.hpp"
#include "crypto/nizk.hpp"
#include "crypto/sharing.hpp"

namespace sintra::crypto {

class CoinPublicKey;

/// DLEQ context string for a coin share (exposed for crypto/batch.hpp).
std::string coin_share_context(int unit);

/// One unit's coin share for a particular name, with its validity proof.
struct CoinShare {
  int unit = 0;
  Element value;     ///< Htilde(N)^{x_unit}
  DleqProof proof;

  void encode(Writer& w, const Group& group) const;
  static CoinShare decode(Reader& r, const Group& group);
};

/// A party's secret key: its units' exponent shares.
class CoinSecretKey {
 public:
  CoinSecretKey(int party, std::map<int, BigInt> unit_shares)
      : party_(party), unit_shares_(std::move(unit_shares)) {}

  [[nodiscard]] int party() const { return party_; }
  /// Exposed for share redistribution (protocols/reconfig.hpp).
  [[nodiscard]] const std::map<int, BigInt>& unit_shares() const { return unit_shares_; }

  /// Produce shares (one per held unit) for coin `name`.
  [[nodiscard]] std::vector<CoinShare> share(const CoinPublicKey& pk, BytesView name,
                                             Rng& rng) const;

 private:
  int party_;
  std::map<int, BigInt> unit_shares_;  ///< unit -> x_unit
};

/// Public key: per-unit verification values + the sharing scheme.
class CoinPublicKey {
 public:
  CoinPublicKey(GroupPtr group, std::shared_ptr<const LinearScheme> scheme,
                std::vector<Element> verification)
      : group_(std::move(group)), scheme_(std::move(scheme)),
        verification_(std::move(verification)) {
    // Every share verification exponentiates a unit's verification key (the
    // DLEQ equation g^z * vk^{-c}); registering them lets the backend build
    // fixed-base tables for the keys it actually sees repeatedly.
    for (const Element& vk : verification_) group_->precompute_base(vk);
  }

  [[nodiscard]] const Group& group() const { return *group_; }
  /// Shared backend handle (for the reconfiguration extension, which
  /// rebuilds key objects over the same group).
  [[nodiscard]] const GroupPtr& group_ptr() const { return group_; }
  [[nodiscard]] const LinearScheme& scheme() const { return *scheme_; }
  [[nodiscard]] const Element& verification(int unit) const { return verification_.at(unit); }

  /// The base element for a coin name: Htilde(N).
  [[nodiscard]] Element coin_base(BytesView name) const;

  /// Check a single share against its proof.
  [[nodiscard]] bool verify_share(BytesView name, const CoinShare& share) const;
  /// The same, with the coin base coin_base(name) already computed (it
  /// costs a hash-to-group; a set of shares of one coin needs it once).
  [[nodiscard]] bool verify_share_at(const Element& base, const CoinShare& share) const;

  /// Combine verified shares into the coin value; returns nullopt unless the
  /// owners of `shares` form a qualified set.  Shares must be pre-verified.
  [[nodiscard]] std::optional<Bytes> combine(BytesView name,
                                             const std::vector<CoinShare>& shares) const;

  /// Convenience: a single coin bit from a combined coin value.
  static bool coin_bit(BytesView coin_value);

 private:
  GroupPtr group_;
  std::shared_ptr<const LinearScheme> scheme_;
  std::vector<Element> verification_;  ///< unit -> g^{x_unit}
};

/// Dealer output for the coin subsystem.
struct CoinDeal {
  CoinPublicKey public_key;
  std::vector<CoinSecretKey> secret_keys;  ///< one per party

  /// Deal a fresh coin key over `scheme`.
  static CoinDeal deal(GroupPtr group, std::shared_ptr<const LinearScheme> scheme, Rng& rng);
};

}  // namespace sintra::crypto
