// Prime-order group abstraction behind every discrete-log-based threshold
// primitive in the architecture:
//  * the Diffie–Hellman threshold coin of Cachin–Kursawe–Shoup (coin.hpp),
//  * the Shoup–Gennaro TDH2 threshold cryptosystem (tdh2.hpp),
//  * the Chaum–Pedersen NIZK proofs that make both robust (nizk.hpp),
//  * Feldman VSS and the share redistribution behind reconfiguration and
//    proactive refresh (vss.hpp, reshare.hpp, protocols/reconfig.hpp).
//
// Two interchangeable backends implement the interface:
//  * SchnorrGroup (group_schnorr.hpp) — the prime-order-q subgroup of Z_p*
//    for p = qr + 1, elements as canonical residues in [0, p).  Three vetted
//    parameter sets are hard-coded: test (256/128), default (768/256) and
//    big (1536/256).
//  * EcGroup (group_curve.hpp) — secp256k1, elements as compressed curve
//    points; 1–2 orders of magnitude faster per operation at a higher
//    security margin than even the big Schnorr set.
//
// Element representation is backend-opaque (crypto/element.hpp): consumers
// treat elements as values with equality only and route every operation,
// validity check, and byte encoding through the Group.  Exponents live in
// Z_q for the backend's group order q; the scalar field API is shared by
// both backends, so Shamir sharing and LSSS code is backend-independent.
// A deployment picks its backend at dealing time (the dealer's GroupPtr
// parameter) and peers agree on it by the group's wire `name` (see
// Group::by_name).  Threshold RSA is unaffected — it lives in Z_Nm*, not
// here.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/bigint.hpp"
#include "crypto/element.hpp"

namespace sintra::crypto {

class Group {
 public:
  virtual ~Group() = default;
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  /// Named parameter sets (shared singletons).
  static std::shared_ptr<const Group> test_group();     ///< schnorr, p 256-bit, q 128-bit
  static std::shared_ptr<const Group> default_group();  ///< schnorr, p 768-bit, q 256-bit
  static std::shared_ptr<const Group> big_group();      ///< schnorr, p 1536-bit, q 256-bit
  static std::shared_ptr<const Group> curve_group();    ///< secp256k1, 256-bit
  /// Deployment negotiation: resolve a wire name (as carried in handshakes
  /// and config) to its singleton; throws ProtocolError on unknown names.
  static std::shared_ptr<const Group> by_name(std::string_view name);

  [[nodiscard]] const BigInt& q() const { return q_; }
  [[nodiscard]] const Element& g() const { return g_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t element_bytes() const { return element_bytes_; }
  [[nodiscard]] std::size_t scalar_bytes() const { return scalar_bytes_; }

  // -- element operations (backend-dispatched) ------------------------------
  [[nodiscard]] virtual Element mul(const Element& a, const Element& b) const = 0;
  /// base^scalar; uses a windowed fixed-base table when `base` is g or was
  /// registered with precompute_base (no squarings/doublings on those paths).
  [[nodiscard]] virtual Element exp(const Element& base, const BigInt& scalar) const = 0;
  /// g^scalar via the eagerly-built fixed-base table.
  [[nodiscard]] virtual Element exp_g(const BigInt& scalar) const = 0;
  /// b1^e1 * b2^e2 with one shared squaring/doubling chain (Shamir's trick)
  /// — the workhorse of every proof verification (a = g^z * h^{-c}).
  [[nodiscard]] virtual Element exp2(const Element& b1, const BigInt& e1, const Element& b2,
                                     const BigInt& e2) const = 0;
  /// b1^e1 * b2^e2 == expected — the whole of a Chaum–Pedersen equation
  /// check in one call.  Semantically identical to `exp2(...) == expected`
  /// (the default implementation), but a backend may verify without
  /// producing the canonical representation: the curve backend compares
  /// projectively and saves the field inversion that normalizing the exp2
  /// result would cost.
  [[nodiscard]] virtual bool exp2_equals(const Element& b1, const BigInt& e1, const Element& b2,
                                         const BigInt& e2, const Element& expected) const;
  /// prod_i base_i^{exp_i} with one shared chain; used by the Lagrange-in-
  /// the-exponent share combiners and the batch verifier.
  [[nodiscard]] virtual Element multi_exp(
      const std::vector<std::pair<Element, BigInt>>& pairs) const = 0;
  [[nodiscard]] virtual Element inv(const Element& a) const = 0;
  /// The group identity, in the backend's own representation.
  [[nodiscard]] virtual Element identity() const = 0;

  /// Build and cache a fixed-base table for `base` (a long-lived public
  /// key), accelerating all later exp(base, ·) calls.  A full cache evicts
  /// its least recently used base (crypto/base_cache.hpp); safe to call
  /// from multiple threads.
  virtual void precompute_base(const Element& base) const = 0;

  /// Full membership check.  Every deserialized element must pass this
  /// before use; accepting non-group elements from Byzantine peers would
  /// leak bits of exponents (small-subgroup attacks).  Elements carrying
  /// the wrong backend representation are simply not members.
  [[nodiscard]] virtual bool is_element(const Element& a) const = 0;

  /// Relaxed check sufficient for *commitment* values in commitment-form
  /// proofs: they only ever appear on one side of an equality whose other
  /// side is a product of group elements, so a bad commitment simply fails
  /// verification and no secret exponent ever touches it.  For the Schnorr
  /// backend this is the cheap [1, p) range check; for the curve backend
  /// membership is already a constant-cost on-curve check, so the two
  /// coincide.  Statement elements still require the full is_element.
  [[nodiscard]] virtual bool is_residue(const Element& a) const = 0;

  /// Random oracle into the group with unknown discrete log.
  [[nodiscard]] virtual Element hash_to_element(std::string_view domain, BytesView data) const = 0;

  /// Serialize an element in the backend's canonical fixed-width form
  /// (element_bytes() bytes on the wire).
  virtual void encode_element(Writer& w, const Element& a) const = 0;
  /// Deserialize and validate membership; throws ProtocolError.
  [[nodiscard]] virtual Element decode_element(Reader& r) const = 0;
  /// Deserialize a proof commitment with only the is_residue check; throws
  /// ProtocolError on violation.
  [[nodiscard]] virtual Element decode_residue(Reader& r) const = 0;

  // -- scalar (exponent) field, shared across backends ----------------------
  [[nodiscard]] BigInt scalar_add(const BigInt& a, const BigInt& b) const;
  [[nodiscard]] BigInt scalar_sub(const BigInt& a, const BigInt& b) const;
  [[nodiscard]] BigInt scalar_mul(const BigInt& a, const BigInt& b) const;
  [[nodiscard]] BigInt scalar_inv(const BigInt& a) const;
  [[nodiscard]] bool is_scalar(const BigInt& a) const;

  template <typename RngT>
  BigInt random_scalar(RngT& rng) const {
    return BigInt::random_below(rng, q_);
  }

  /// Random oracle into Z_q (Fiat–Shamir challenges).
  [[nodiscard]] BigInt hash_to_scalar(std::string_view domain, BytesView data) const;

  void encode_scalar(Writer& w, const BigInt& a) const;
  [[nodiscard]] BigInt decode_scalar(Reader& r) const;

 protected:
  Group(BigInt q, std::string name, std::size_t element_bytes);

  BigInt q_;
  std::string name_;
  std::size_t element_bytes_;
  std::size_t scalar_bytes_;
  Element g_;  ///< set by the backend constructor
};

using GroupPtr = std::shared_ptr<const Group>;

}  // namespace sintra::crypto
