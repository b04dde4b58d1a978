// Batch verification of share-validity proofs (small-exponent test of
// Bellare–Garay–Rabin, EUROCRYPT '98).
//
// The paper is explicit that SINTRA's throughput is bounded by threshold
// cryptography, not the network: every coin share, signature share, and
// decryption share carries a NIZK proof whose verification costs two
// double-exponentiations.  All shares of one statement verify against the
// same pair of bases, so taking a random linear combination of the k
// verification equations collapses a set of them into roughly two
// multi-exponentiations:
//
//   per proof i:   g1^{z_i} == a1_i * h1_i^{c_i}
//                  g2^{z_i} == a2_i * h2_i^{c_i}
//   batched:       g1^{sum z_i r_i} * g2^{sum z_i r'_i}
//                    == prod a1_i^{r_i} h1_i^{c_i r_i} a2_i^{r'_i} h2_i^{c_i r'_i}
//
// with fresh random weights r_i, r'_i per equation.  If any single
// equation is violated, the batch equation holds with probability at most
// 2^-ell for ell-bit weights (the violating factor would have to land
// exactly on one weight value); *independent* weights for the two
// equations of a DLEQ proof are essential — a shared weight would let an
// adversary cancel an error in one equation against an inverse error in
// the other.  The weights stay short on the a-commitment terms, which is
// where the speedup over one-at-a-time verification comes from.
//
// The same test applies in the unknown-order group Z_Nm* of the threshold
// RSA scheme (|QR_Nm| = p'q' has no small prime factors, so short nonzero
// weights are invertible mod the group order); there no inverses exist
// cheaply, so the equations are kept in two-sided positive-exponent form.
//
// Every protocol checks a peer's share vector when it arrives
// (share_tally.hpp), so a batch there is one sender's units, and a failed
// batch strikes that sender.
//
// One collector combines before it checks: ServiceClient gathers reply
// signature shares from servers it cannot strike per message, and for
// threshold RSA combining is cheap relative to share verification and the
// *combined* signature is checked with a single e = 65537 exponentiation.
// So combine_sig_optimistic combines the unverified set and only when that
// check fails bisects the set (halves that batch-verify are clean,
// single-share leaves go to the strict verifier) to name the corrupted
// shares in O(bad * log k) batch calls.  A Byzantine server pays the extra
// work; honest executions never do.
#pragma once

#include <optional>
#include <vector>

#include "crypto/coin.hpp"
#include "crypto/tdh2.hpp"
#include "crypto/threshold_sig.hpp"

namespace sintra::crypto::batch {

/// Outcome of combine_sig_optimistic: the combined value, if any, and the
/// indices of the corrupted shares, if any.
struct CombineResult {
  std::optional<BigInt> value;
  std::vector<std::size_t> bad;
};

// -- coin shares (coin.hpp) --------------------------------------------------

[[nodiscard]] bool verify_coin_shares(const CoinPublicKey& pk, BytesView name,
                                      const std::vector<CoinShare>& shares, Rng& rng);

// -- TDH2 (tdh2.hpp) ---------------------------------------------------------

/// Decryption shares for one fixed ciphertext (bases g, ct.u are shared).
[[nodiscard]] bool verify_dec_shares(const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
                                     const std::vector<Tdh2DecShare>& shares, Rng& rng);

// -- threshold RSA signature shares (threshold_sig.hpp) ----------------------

/// All shares over one message.
[[nodiscard]] bool verify_sig_shares(const ThresholdSigPublicKey& pk, BytesView message,
                                     const std::vector<SigShare>& shares, Rng& rng);

[[nodiscard]] std::vector<std::size_t> find_invalid_sig_shares(const ThresholdSigPublicKey& pk,
                                                               BytesView message,
                                                               const std::vector<SigShare>& shares,
                                                               Rng& rng);

/// Combine-then-verify fast path: combine the (unverified) set and check
/// the single resulting RSA signature.  If that fails, the corrupted share
/// indices are listed and the rest is combined if it still can be (empty
/// `bad` with no value: the set is not qualified).
[[nodiscard]] CombineResult combine_sig_optimistic(const ThresholdSigPublicKey& pk,
                                                 BytesView message,
                                                 const std::vector<SigShare>& shares, Rng& rng);

}  // namespace sintra::crypto::batch
