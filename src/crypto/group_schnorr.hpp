// Schnorr-group backend: the prime-order-q subgroup of Z_p* for p = qr + 1.
//
// Elements are canonical residues in [0, p), carried inside Element as
// BigInt.  Exponentiation runs through a cached Montgomery/REDC context;
// the generator and registered long-lived bases get 4-bit windowed
// fixed-base tables (one table multiply per scalar nibble, no squarings).
// The three hard-coded parameter sets were generated offline with an
// independent implementation and are re-verified by the test suite.
#pragma once

#include <mutex>
#include <unordered_set>

#include "crypto/base_cache.hpp"
#include "crypto/group.hpp"

namespace sintra::crypto {

class SchnorrGroup final : public Group {
 public:
  SchnorrGroup(BigInt p, BigInt q, BigInt g, std::string name);

  /// Typed singletons (Group::test_group() etc. return these upcast).
  static std::shared_ptr<const SchnorrGroup> test();        ///< p 256-bit, q 128-bit
  static std::shared_ptr<const SchnorrGroup> production();  ///< p 768-bit, q 256-bit
  static std::shared_ptr<const SchnorrGroup> big();         ///< p 1536-bit, q 256-bit

  /// The field prime — schnorr-specific, used by parameter-validation tests
  /// and the Montgomery differential tests.
  [[nodiscard]] const BigInt& p() const { return p_; }

  [[nodiscard]] Element mul(const Element& a, const Element& b) const override;
  [[nodiscard]] Element exp(const Element& base, const BigInt& scalar) const override;
  [[nodiscard]] Element exp_g(const BigInt& scalar) const override;
  [[nodiscard]] Element exp2(const Element& b1, const BigInt& e1, const Element& b2,
                             const BigInt& e2) const override;
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
  /// Windowed fixed-base precomputation: blocks[i][j-1] = base^(j * 16^i)
  /// in Montgomery form, so an exponentiation is one table multiply per
  /// 4-bit digit of the scalar and no squarings at all.
  struct FixedBaseTable {
    std::vector<std::vector<BigInt>> blocks;
  };

  [[nodiscard]] FixedBaseTable build_fixed_base(const BigInt& base) const;
  /// scalar must already be reduced into [0, q).
  [[nodiscard]] BigInt exp_fixed(const FixedBaseTable& table, const BigInt& scalar) const;
  [[nodiscard]] std::shared_ptr<const FixedBaseTable> registered_table(const BigInt& base) const;
  [[nodiscard]] bool residue_is_member(const BigInt& a) const;

  BigInt p_;
  BigInt gen_;       ///< generator residue (g_ holds the Element wrapper)
  BigInt cofactor_;  ///< (p-1)/q
  Montgomery mont_p_;       ///< REDC context for Z_p (declared after p_)
  FixedBaseTable g_table_;  ///< eager fixed-base table for the generator

  /// Registered long-lived bases (crypto/base_cache.hpp).
  mutable FixedBaseCache<FixedBaseTable> base_cache_;

  // Memo of residues that passed the full subgroup-membership check.
  mutable std::mutex memo_mutex_;
  mutable std::unordered_set<std::string> element_memo_;
};

}  // namespace sintra::crypto
