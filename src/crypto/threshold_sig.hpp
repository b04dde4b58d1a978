// Shoup's practical threshold RSA signatures (EUROCRYPT 2000).
//
// Used throughout the architecture wherever the paper needs compact
// certificates: consistent-broadcast certificates, atomic-broadcast batch
// signatures and checkpoints, and the threshold-signed
// replies of the replicated services (Section 5) — a client combines t+1
// (generally: a qualified set of) signature shares into one ordinary RSA
// signature verifiable with the single service public key.
//
// Construction summary (with our LinearScheme generalization):
//   dealer:  safe-prime RSA modulus Nm = p*q, p = 2p'+1, q = 2q'+1,
//            secret group order m = p'*q'; d = e^{-1} mod m shared linearly
//            over Z_m.  Public: (Nm, e), a QR generator v and per-unit
//            verification values v_j = v^{d_j}.
//   share:   x = Hash(M) in Z_Nm*; share x_j = x^{2 d_j} plus a DLEQ-style
//            proof over the unknown-order group that
//            log_v v_j = log_{x^2} x_j (Fiat–Shamir, integer response).
//   combine: w = prod x_j^{2 c_j} = x^{4 Delta d} in QR_Nm (the mod-m
//            wraparound vanishes because |QR_Nm| = m); with
//            a*(4 Delta) + b*e = 1 the signature is y = w^a * x^b, an
//            ordinary RSA signature: y^e = Hash(M) (mod Nm).
#pragma once

#include <memory>
#include <optional>

#include "crypto/bigint.hpp"
#include "crypto/sharing.hpp"

namespace sintra::crypto {

/// RSA modulus parameters.  Tests and benchmarks use precomputed safe-prime
/// pairs (generated offline) so dealing is instant; `generate` produces
/// fresh ones.
struct RsaParams {
  BigInt p;  ///< safe prime
  BigInt q;  ///< safe prime
  /// Precomputed pair; prime_bits in {128, 256, 512}.
  static RsaParams precomputed(int prime_bits);
  static RsaParams generate(Rng& rng, int prime_bits);
};

class ThresholdSigPublicKey;

/// Signature share with validity proof, in commitment form (the verifier
/// recomputes the Fiat–Shamir challenge from a1/a2; see nizk.hpp for why
/// commitment form is what makes batch verification possible).
struct SigShare {
  int unit = 0;
  BigInt value;     ///< x^{2 d_unit} mod Nm
  BigInt a1;        ///< commitment v^r mod Nm
  BigInt a2;        ///< commitment (x^2)^r mod Nm
  BigInt response;  ///< integer response z = r + c*d_unit

  void encode(Writer& w) const;
  static SigShare decode(Reader& r);
};

/// Fiat–Shamir challenge for a signature-share proof (128-bit).  Exposed for
/// the batch verifier in crypto/batch.hpp.
BigInt sig_share_challenge(const BigInt& modulus, int unit, const BigInt& v,
                           const BigInt& v_unit, const BigInt& x_squared, const BigInt& share,
                           const BigInt& a1, const BigInt& a2);

class ThresholdSigSecretKey {
 public:
  ThresholdSigSecretKey(int party, std::map<int, BigInt> unit_shares)
      : party_(party), unit_shares_(std::move(unit_shares)) {}

  [[nodiscard]] int party() const { return party_; }
  /// Exposed for the reconfiguration extension (crypto/reshare.hpp).
  [[nodiscard]] const std::map<int, BigInt>& unit_shares() const { return unit_shares_; }

  /// Produce signature shares on `message` for each held unit.
  [[nodiscard]] std::vector<SigShare> sign(const ThresholdSigPublicKey& pk, BytesView message,
                                           Rng& rng) const;

 private:
  int party_;
  std::map<int, BigInt> unit_shares_;  ///< unit -> d_unit
};

/// base^exponent mod the context's modulus for a possibly NEGATIVE
/// exponent (the base is inverted to clear the sign).  Reshared RSA shares
/// are signed integers (crypto/reshare.hpp), so signing and verification-
/// value arithmetic need this; throws ProtocolError if the base is not
/// invertible.
BigInt pow_signed(const BigInt& base, const BigInt& exponent, const Montgomery& mont);

class ThresholdSigPublicKey {
 public:
  /// `share_bits` bounds the bit width of the secret share integers this
  /// key's proofs must cover.  0 (the default, and every dealer-dealt key)
  /// means modulus-width shares; a key rebuilt after share redistribution
  /// passes the grown bound rsa_reshare_share_bits so proof responses and
  /// their verification-side width checks scale with the shares.
  ThresholdSigPublicKey(BigInt modulus, BigInt e, BigInt v, std::vector<BigInt> verification,
                        std::shared_ptr<const LinearScheme> scheme,
                        std::size_t share_bits = 0);

  [[nodiscard]] const BigInt& modulus() const { return modulus_; }
  [[nodiscard]] const BigInt& exponent() const { return e_; }
  [[nodiscard]] const BigInt& v() const { return v_; }
  [[nodiscard]] const LinearScheme& scheme() const { return *scheme_; }
  [[nodiscard]] const BigInt& verification(int unit) const { return verification_.at(unit); }

  /// Full-domain hash of the message into Z_Nm*.  This is RSA-domain FDH
  /// over the signature modulus — unrelated to Group::hash_to_element, and
  /// deliberately untouched by the group-backend choice: threshold RSA
  /// stays in Z_Nm* BigInt arithmetic under every deployment.
  [[nodiscard]] BigInt hash_to_base(BytesView message) const;

  [[nodiscard]] bool verify_share(BytesView message, const SigShare& share) const;

  /// Combine shares from a qualified owner set into a standard RSA
  /// signature; nullopt if the set is unqualified, misses a unit its
  /// coefficients need, or the result fails final verification (which
  /// cannot happen if all shares verified and cover their owners' units).
  [[nodiscard]] std::optional<BigInt> combine(BytesView message,
                                              const std::vector<SigShare>& shares) const;

  /// Standard RSA verification of a combined signature.
  [[nodiscard]] bool verify(BytesView message, const BigInt& signature) const;

  /// Shared Montgomery context for Z_Nm, reused by every sign/verify/combine
  /// exponentiation instead of rebuilding R^2 mod Nm per call.
  [[nodiscard]] const Montgomery& mont() const { return *mont_; }

  /// Serialized signature width.
  [[nodiscard]] std::size_t signature_bytes() const { return (modulus_.bit_length() + 7) / 8; }

  /// Width bound for proof responses (batch verifier applies the same
  /// bound per share before accumulating).
  [[nodiscard]] std::size_t response_bytes() const { return response_bytes_; }

  /// Bound on the bit width of this key's secret shares (see constructor).
  [[nodiscard]] std::size_t share_bits() const { return share_bits_; }

 private:
  friend class ThresholdSigSecretKey;
  BigInt modulus_;
  BigInt e_;
  BigInt v_;                           ///< QR generator
  std::vector<BigInt> verification_;   ///< unit -> v^{d_unit}
  std::shared_ptr<const LinearScheme> scheme_;
  std::shared_ptr<const Montgomery> mont_;  ///< REDC context for Z_Nm
  /// Fixed-base table for v covering every response width; built once,
  /// immutable, shared across copies like mont_.
  std::shared_ptr<const Montgomery::FixedBase> v_table_;
  std::size_t share_bits_;             ///< width bound for secret shares
  std::size_t response_bytes_;         ///< width bound for proof responses
};

struct ThresholdSigDeal {
  ThresholdSigPublicKey public_key;
  std::vector<ThresholdSigSecretKey> secret_keys;

  static ThresholdSigDeal deal(const RsaParams& params,
                               std::shared_ptr<const LinearScheme> scheme, Rng& rng);
};

}  // namespace sintra::crypto
