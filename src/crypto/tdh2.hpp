// TDH2 threshold cryptosystem of Shoup & Gennaro (EUROCRYPT '98).
//
// This is the cryptosystem the paper requires for *secure causal atomic
// broadcast* (Section 3): client requests are encrypted under the single
// service public key, atomically ordered as ciphertexts, and only then
// threshold-decrypted.  Security against adaptive chosen-ciphertext attack
// is essential — a weaker scheme would let a corrupted server submit a
// *related* request and violate causality (the paper's patent-office
// front-running example).
//
// TDH2 achieves CCA2 security in the random-oracle model by attaching to
// each ElGamal-style ciphertext a simulation-sound NIZK of well-formedness
// (a Chaum–Pedersen-style proof that u = g^r and u_bar = gbar^r for the
// same r), bound to an application-chosen *label*.  Decryption shares carry
// DLEQ validity proofs, so combination is robust.
#pragma once

#include <optional>

#include "crypto/group.hpp"
#include "crypto/nizk.hpp"
#include "crypto/sharing.hpp"

namespace sintra::crypto {

class Tdh2PublicKey;

/// Ciphertext (c, L, u, u_bar, w, w_bar, f): symmetric part c, label L,
/// ElGamal element u, consistency element u_bar, and the Fiat–Shamir
/// well-formedness proof in commitment form (w = g^s, w_bar = gbar^s,
/// response f) — see nizk.hpp for why commitment form enables batching.
struct Tdh2Ciphertext {
  Bytes data;    ///< message XOR mask(h^r)
  Bytes label;
  Element u;      ///< g^r
  Element u_bar;  ///< gbar^r
  Element w;      ///< proof commitment g^s
  Element w_bar;  ///< proof commitment gbar^s
  BigInt f;      ///< response s + e*r

  /// Collision-resistant identifier binding decryption shares to this exact
  /// ciphertext.
  [[nodiscard]] Bytes id(const Group& group) const;

  void encode(Writer& w, const Group& group) const;
  static Tdh2Ciphertext decode(Reader& r, const Group& group);
};

/// Fiat–Shamir challenge of the ciphertext well-formedness proof.  Exposed
/// for the batch verifier in crypto/batch.hpp.
BigInt tdh2_ciphertext_challenge(const Group& group, BytesView data, BytesView label,
                                 const Element& u, const Element& w_elem, const Element& u_bar,
                                 const Element& w_bar);

/// DLEQ context string binding a decryption-share proof to (unit, ct id).
std::string tdh2_share_context(int unit, BytesView ct_id);

/// One unit's decryption share with validity proof.
struct Tdh2DecShare {
  int unit = 0;
  Element value;  ///< u^{x_unit}
  DleqProof proof;

  void encode(Writer& w, const Group& group) const;
  static Tdh2DecShare decode(Reader& r, const Group& group);
};

class Tdh2SecretKey {
 public:
  Tdh2SecretKey(int party, std::map<int, BigInt> unit_shares)
      : party_(party), unit_shares_(std::move(unit_shares)) {}

  [[nodiscard]] int party() const { return party_; }
  /// Exposed for share redistribution (protocols/reconfig.hpp).
  [[nodiscard]] const std::map<int, BigInt>& unit_shares() const { return unit_shares_; }

  /// Produce decryption shares for a ciphertext; empty if the ciphertext is
  /// invalid (an honest party refuses to decrypt malformed ciphertexts —
  /// that refusal is what defeats chosen-ciphertext attacks).
  [[nodiscard]] std::vector<Tdh2DecShare> decrypt_shares(const Tdh2PublicKey& pk,
                                                         const Tdh2Ciphertext& ct,
                                                         Rng& rng) const;

 private:
  int party_;
  std::map<int, BigInt> unit_shares_;
};

class Tdh2PublicKey {
 public:
  Tdh2PublicKey(GroupPtr group, std::shared_ptr<const LinearScheme> scheme, Element h,
                std::vector<Element> verification);

  [[nodiscard]] const Group& group() const { return *group_; }
  [[nodiscard]] const LinearScheme& scheme() const { return *scheme_; }
  [[nodiscard]] const Element& h() const { return h_; }
  [[nodiscard]] const Element& g_bar() const { return g_bar_; }
  [[nodiscard]] const Element& verification(int unit) const { return verification_.at(unit); }

  [[nodiscard]] Tdh2Ciphertext encrypt(BytesView message, BytesView label, Rng& rng) const;

  /// Well-formedness check every honest party runs before decrypting.
  [[nodiscard]] bool check_ciphertext(const Tdh2Ciphertext& ct) const;

  [[nodiscard]] bool verify_share(const Tdh2Ciphertext& ct, const Tdh2DecShare& share) const;

  /// Combine verified shares; nullopt if owners are unqualified or the
  /// ciphertext is invalid.
  [[nodiscard]] std::optional<Bytes> combine(const Tdh2Ciphertext& ct,
                                             const std::vector<Tdh2DecShare>& shares) const;

 private:
  GroupPtr group_;
  std::shared_ptr<const LinearScheme> scheme_;
  Element h_;
  Element g_bar_;
  std::vector<Element> verification_;  ///< unit -> g^{x_unit}
};

struct Tdh2Deal {
  Tdh2PublicKey public_key;
  std::vector<Tdh2SecretKey> secret_keys;

  static Tdh2Deal deal(GroupPtr group, std::shared_ptr<const LinearScheme> scheme, Rng& rng);
};

}  // namespace sintra::crypto
