// The trusted dealer of the paper's model (Section 2): a one-shot setup
// entity that generates and distributes all secret key material, after which
// the system processes an unlimited number of requests with no further
// trusted interaction.
//
// A deployment uses two access structures (both supplied as LinearSchemes):
//
//  * `low` — the "t+1"-style structure (generalized rule: S ∪ {i} for
//    S ∈ A*, §4.2).  Any set *exceeding* a corruptible set qualifies.  The
//    coin, the TDH2 decryption key, and the service-reply signature key are
//    dealt over it: the adversary alone never qualifies, and any set
//    containing one honest party beyond a maximal corruptible set does.
//
//  * `high` — the "n−t"-style structure (generalized rule: P ∖ S for
//    S ∈ A*).  The two certificate keys are dealt over it, since a
//    certificate must attest that a full quorum of parties contributed:
//    the quorum-signature key (quorum_sig.hpp), whose per-unit EC-Schnorr
//    signature sets certify the ordering path (consistent-broadcast
//    certificates, atomic-broadcast batches), and the threshold-RSA
//    certificate key `cert_sig`, which still signs checkpoint certificates
//    (state transfer, the NEW-CONFIG fence) and the optimistic protocol's
//    slot certificates.
//
// Five keys in all: coin, TDH2 and reply signatures over `low`,
// quorum_sig and cert_sig over `high`.  No two primitives share a key:
// reusing, say, the coin shares as signing keys would couple the security
// of the two (a TDH2 share even acts as a Diffie–Hellman oracle).
//
// In the classical threshold model these are ThresholdScheme(n, t) and
// ThresholdScheme(n, n−t−1); the generalized instantiations come from
// adversary/lsss.hpp.
#pragma once

#include <memory>

#include "crypto/coin.hpp"
#include "crypto/quorum_sig.hpp"
#include "crypto/tdh2.hpp"
#include "crypto/threshold_sig.hpp"

namespace sintra::crypto {

/// Everything one party receives from the dealer.
struct PartyKeyShare {
  CoinSecretKey coin;
  ThresholdSigSecretKey cert_sig;
  ThresholdSigSecretKey reply_sig;
  Tdh2SecretKey decryption;
  QuorumSigSecretKey quorum_sig;
  /// Pairwise symmetric keys: channel_keys[j] is shared with party j
  /// (channel_keys[self] unused).  The paper's dealer bootstraps secure
  /// point-to-point channels; these keys also mask the redistributed
  /// sub-shares of reconfiguration and refresh epochs
  /// (protocols/reconfig.hpp).
  std::vector<Bytes> channel_keys;
};

/// Everything public in a deployment, known to servers and clients alike.
struct PublicKeys {
  CoinPublicKey coin;
  ThresholdSigPublicKey cert_sig;   ///< high (quorum) access structure
  ThresholdSigPublicKey reply_sig;  ///< low (beyond-one-corruptible-set)
  Tdh2PublicKey encryption;         ///< low
  QuorumSigPublicKey quorum_sig;    ///< high; discrete-log, on the deployment's group
};

/// Transport link-MAC key for the channel shared with a peer, derived
/// from the dealer's pairwise channel key.  Domain-separated so the raw
/// channel key can keep masking reconfiguration sub-shares without the
/// transport MACs leaking anything about those masks.
Bytes derive_link_key(BytesView channel_key);

/// Dealer output: public keys plus one PartyKeyShare per party.
class KeyBundle {
 public:
  KeyBundle(PublicKeys public_keys, std::vector<PartyKeyShare> shares)
      : public_keys_(std::move(public_keys)), shares_(std::move(shares)) {}

  /// Run the dealer.  `low` and `high` must agree on num_parties.
  static KeyBundle deal(GroupPtr group, std::shared_ptr<const LinearScheme> low,
                        std::shared_ptr<const LinearScheme> high, const RsaParams& rsa,
                        Rng& rng);

  /// Convenience: classical threshold deployment with n parties tolerating
  /// t corruptions (n > 3t), test-sized RSA parameters; the discrete-log
  /// subsystems run over `group` (test schnorr set by default).
  static KeyBundle deal_threshold(int n, int t, Rng& rng,
                                  GroupPtr group = Group::test_group());

  [[nodiscard]] const PublicKeys& public_keys() const { return public_keys_; }
  [[nodiscard]] const PartyKeyShare& share(int party) const {
    return shares_.at(static_cast<std::size_t>(party));
  }
  [[nodiscard]] int num_parties() const { return static_cast<int>(shares_.size()); }

 private:
  PublicKeys public_keys_;
  std::vector<PartyKeyShare> shares_;
};

}  // namespace sintra::crypto
