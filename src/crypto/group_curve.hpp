// Elliptic-curve group backend: secp256k1, prime order, cofactor 1.
//
// Elements are normalized curve points carried inside Element; on the wire
// they are 33-byte compressed SEC1 encodings (infinity encodes as 33 zero
// bytes, kept decodable for identity-element parity with the Schnorr
// backend).  Scalars remain BigInt mod n at the protocol layer and convert
// to fixed 4-limb form once per operation at this boundary.  All point
// arithmetic lives in curve256.{hpp,cpp}; this class only adapts it to the
// Group interface and owns the fixed-base comb tables.
#pragma once

#include "crypto/base_cache.hpp"
#include "crypto/curve256.hpp"
#include "crypto/group.hpp"

namespace sintra::crypto {

class EcGroup final : public Group {
 public:
  EcGroup();

  /// Shared singleton (Group::curve_group() returns this upcast).
  static std::shared_ptr<const EcGroup> instance();

  [[nodiscard]] Element mul(const Element& a, const Element& b) const override;
  [[nodiscard]] Element exp(const Element& base, const BigInt& scalar) const override;
  [[nodiscard]] Element exp_g(const BigInt& scalar) const override;
  [[nodiscard]] Element exp2(const Element& b1, const BigInt& e1, const Element& b2,
                             const BigInt& e2) const override;
  [[nodiscard]] bool exp2_equals(const Element& b1, const BigInt& e1, const Element& b2,
                                 const BigInt& e2, const Element& expected) const override;
  [[nodiscard]] Element multi_exp(
      const std::vector<std::pair<Element, BigInt>>& pairs) const override;
  [[nodiscard]] Element inv(const Element& a) const override;
  [[nodiscard]] Element identity() const override;
  void precompute_base(const Element& base) const override;
  [[nodiscard]] bool is_element(const Element& a) const override;
  [[nodiscard]] bool is_residue(const Element& a) const override;
  [[nodiscard]] Element hash_to_element(std::string_view domain, BytesView data) const override;
  void encode_element(Writer& w, const Element& a) const override;
  [[nodiscard]] Element decode_element(Reader& r) const override;
  [[nodiscard]] Element decode_residue(Reader& r) const override;

  /// Registered-base cache counters (tests and diagnostics).
  [[nodiscard]] FixedBaseCacheStats base_cache_stats() const {
    return base_cache_.stats();
  }

 private:
  using TablePtr = std::shared_ptr<const curve256::FixedBaseTable>;

  /// Reduce a protocol-layer exponent into the fixed-limb scalar form.
  [[nodiscard]] curve256::Scalar to_scalar(const BigInt& e) const;
  /// Comb table for `base` if it is the generator or a registered base whose
  /// table has been built (lazily, on its second use); null otherwise.
  [[nodiscard]] TablePtr table_for(const Element& base) const;
  /// base^e as a possibly-unnormalized point (comb table when available,
  /// GLV wNAF otherwise); callers either wrap() or compare projectively.
  [[nodiscard]] curve256::Point exp_unnormalized(const Element& base, const BigInt& e) const;

  curve256::FixedBaseTable g_table_;  ///< eager comb table for the generator

  /// Registered long-lived bases (crypto/base_cache.hpp), keyed by their
  /// compressed encoding.
  mutable FixedBaseCache<curve256::FixedBaseTable> base_cache_;
};

}  // namespace sintra::crypto
