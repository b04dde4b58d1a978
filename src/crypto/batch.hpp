// Batch verification of share-validity proofs (small-exponent test of
// Bellare–Garay–Rabin, EUROCRYPT '98).
//
// The paper is explicit that SINTRA's throughput is bounded by threshold
// cryptography, not the network: every coin share, signature share, and
// decryption share carries a NIZK proof whose verification costs two
// double-exponentiations.  A protocol instance, however, never needs one
// share — it needs a *threshold set*, and all shares of one set verify
// against the same pair of bases.  Taking a random linear combination of
// the k verification equations collapses the whole set into roughly two
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
// On failure the batch is bisected: halves that batch-verify are clean,
// and single-proof leaves fall back to the strict individual verifier —
// identifying exactly the corrupted shares in O(bad * log k) batch calls.
// A Byzantine sender pays the extra work; honest executions never do.
//
// Combine-then-verify goes one step further for threshold RSA: combining
// is cheap relative to share verification and the *combined* signature is
// checked with a single e = 65537 exponentiation, so the optimistic path
// combines an unverified threshold set and only falls back to batch
// verification + bisection when that final check fails.
#pragma once

#include <optional>

#include "crypto/coin.hpp"
#include "crypto/nizk.hpp"
#include "crypto/share_tally.hpp"
#include "crypto/tdh2.hpp"
#include "crypto/threshold_sig.hpp"

namespace sintra::crypto::batch {

/// One DLEQ proof over the batch-shared bases (g1, g2): statement
/// h1 = g1^x, h2 = g2^x, proof bound to `context`.
struct DleqItem {
  std::string context;
  Element h1;
  Element h2;
  DleqProof proof;
};

/// True iff every item's proof verifies (accepts a violating set with
/// probability <= 2^-127).  Empty batches verify trivially.
[[nodiscard]] bool verify_dleq(const Group& group, const Element& g1, const Element& g2,
                               const std::vector<DleqItem>& items, Rng& rng);

/// Exact set of invalid item indices (ascending), via bisection with
/// strict individual verification at the leaves.
[[nodiscard]] std::vector<std::size_t> find_invalid_dleq(const Group& group, const Element& g1,
                                                         const Element& g2,
                                                         const std::vector<DleqItem>& items,
                                                         Rng& rng);

/// One Schnorr proof over the batch-shared base g: statement h = g^x.
struct SchnorrItem {
  std::string context;
  Element h;
  SchnorrProof proof;
};

[[nodiscard]] bool verify_schnorr(const Group& group, const Element& g,
                                  const std::vector<SchnorrItem>& items, Rng& rng);

[[nodiscard]] std::vector<std::size_t> find_invalid_schnorr(const Group& group, const Element& g,
                                                            const std::vector<SchnorrItem>& items,
                                                            Rng& rng);

// -- coin shares (coin.hpp) --------------------------------------------------

[[nodiscard]] bool verify_coin_shares(const CoinPublicKey& pk, BytesView name,
                                      const std::vector<CoinShare>& shares, Rng& rng);

[[nodiscard]] std::vector<std::size_t> find_invalid_coin_shares(
    const CoinPublicKey& pk, BytesView name, const std::vector<CoinShare>& shares, Rng& rng);

/// Batch-verify then combine into the coin output.  On a failed batch the
/// corrupted share indices are listed and the rest is combined if it
/// still can be (empty `bad` with no value: the set is not qualified).
[[nodiscard]] CombineResult<Bytes> combine_coin_optimistic(const CoinPublicKey& pk, BytesView name,
                                                        const std::vector<CoinShare>& shares,
                                                        Rng& rng);

// -- TDH2 (tdh2.hpp) ---------------------------------------------------------

/// Decryption shares for one fixed ciphertext (bases g, ct.u are shared).
[[nodiscard]] bool verify_dec_shares(const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct,
                                     const std::vector<Tdh2DecShare>& shares, Rng& rng);

[[nodiscard]] std::vector<std::size_t> find_invalid_dec_shares(
    const Tdh2PublicKey& pk, const Tdh2Ciphertext& ct, const std::vector<Tdh2DecShare>& shares,
    Rng& rng);

/// Well-formedness proofs of many ciphertexts (bases g, g_bar are shared).
[[nodiscard]] bool verify_ciphertexts(const Tdh2PublicKey& pk,
                                      const std::vector<Tdh2Ciphertext>& cts, Rng& rng);

[[nodiscard]] std::vector<std::size_t> find_invalid_ciphertexts(
    const Tdh2PublicKey& pk, const std::vector<Tdh2Ciphertext>& cts, Rng& rng);

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
[[nodiscard]] CombineResult<BigInt> combine_sig_optimistic(const ThresholdSigPublicKey& pk,
                                                      BytesView message,
                                                      const std::vector<SigShare>& shares,
                                                      Rng& rng);

}  // namespace sintra::crypto::batch
