// Quorum systems: the three protocol-adaptation rules of §4.2, behind one
// interface so every broadcast/agreement protocol is written once and runs
// under either failure model.
//
//   threshold model            generalized Q³ structure A
//   ------------------------   ----------------------------------------
//   wait for n−t parties       wait for P ∖ S, some S ∈ A*   (is_quorum)
//   2t+1 values                S ∪ T ∪ {i}, disjoint S,T ∈ A* (is_vote_quorum)
//   t+1 values                 S ∪ {i}, S ∈ A*               (exceeds_fault_set)
//
// The checks are phrased as monotone predicates on the set of parties heard
// from, which is how the asynchronous protocols consume them ("have I
// received enough yet?"):
//   is_quorum(R)          ⟺  P ∖ R ∈ A
//   exceeds_fault_set(R)  ⟺  R ∉ A
//   is_vote_quorum(R)     ⟺  for all S ∈ A*: R ∖ S ∉ A
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/lsss.hpp"
#include "adversary/structure.hpp"
#include "crypto/dealer.hpp"

namespace sintra::adversary {

class QuorumSystem {
 public:
  virtual ~QuorumSystem() = default;

  [[nodiscard]] virtual int n() const = 0;
  /// True iff the adversary may corrupt exactly/at most this set.
  [[nodiscard]] virtual bool corruptible(PartySet set) const = 0;
  /// "n−t" rule: `heard` contains all parties outside some corruptible set.
  [[nodiscard]] virtual bool is_quorum(PartySet heard) const = 0;
  /// "t+1" rule: `heard` is guaranteed to contain an honest party.
  [[nodiscard]] virtual bool exceeds_fault_set(PartySet heard) const = 0;
  /// "2t+1" rule: even after removing any corruptible subset, `heard`
  /// still exceeds a fault set (majority voting on replies).
  [[nodiscard]] virtual bool is_vote_quorum(PartySet heard) const = 0;

  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Classical t-of-n quorums (popcount checks).
class ThresholdQuorum final : public QuorumSystem {
 public:
  ThresholdQuorum(int n, int t);

  [[nodiscard]] int t() const { return t_; }

  [[nodiscard]] int n() const override { return n_; }
  [[nodiscard]] bool corruptible(PartySet set) const override;
  [[nodiscard]] bool is_quorum(PartySet heard) const override;
  [[nodiscard]] bool exceeds_fault_set(PartySet heard) const override;
  [[nodiscard]] bool is_vote_quorum(PartySet heard) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  int n_;
  int t_;
};

/// Quorums from an explicit adversary structure.  Up to kTabledParties
/// parties every predicate is one lookup in a 2^n-bit table built at
/// construction; larger structures scan the maximal sets per call.
class GeneralQuorum final : public QuorumSystem {
 public:
  static constexpr int kTabledParties = 16;

  explicit GeneralQuorum(AdversaryStructure structure);

  [[nodiscard]] const AdversaryStructure& structure() const { return structure_; }

  [[nodiscard]] int n() const override { return structure_.n(); }
  [[nodiscard]] bool corruptible(PartySet set) const override;
  [[nodiscard]] bool is_quorum(PartySet heard) const override;
  [[nodiscard]] bool exceeds_fault_set(PartySet heard) const override;
  [[nodiscard]] bool is_vote_quorum(PartySet heard) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  /// Bit `set` of `table`; false for a set naming parties outside 0..n-1.
  [[nodiscard]] bool lookup(const std::vector<bool>& table, PartySet set) const;

  AdversaryStructure structure_;
  /// Empty unless n <= kTabledParties.  corruptible_[S]: S is in A.
  /// two_covered_[S]: S lies inside the union of two sets of A, i.e. S is
  /// not a vote quorum.
  std::vector<bool> corruptible_;
  std::vector<bool> two_covered_;
};

/// Crypto parameter choice for a deployment.
struct CryptoConfig {
  crypto::GroupPtr group = crypto::Group::test_group();
  int rsa_prime_bits = 128;

  static CryptoConfig fast() { return {}; }
  static CryptoConfig production();
  /// Elliptic-curve deployment: secp256k1 for all discrete-log subsystems
  /// and a 512-bit RSA modulus (256-bit primes).  A 512-bit modulus is far
  /// below a deployable size (it was publicly factored in 1999); it keeps
  /// simulations and benchmarks fast, not secure.
  static CryptoConfig curve();
};

/// A complete system instance: the failure model plus all dealt keys.
/// This is what servers, clients and the simulator harness are built from.
struct Deployment {
  std::shared_ptr<const QuorumSystem> quorum;
  std::shared_ptr<const crypto::KeyBundle> keys;

  [[nodiscard]] int n() const { return quorum->n(); }

  /// Classical threshold deployment, n > 3t.
  static Deployment threshold(int n, int t, Rng& rng,
                              const CryptoConfig& config = CryptoConfig::fast());

  /// Generalized deployment from an access formula (the negation of the
  /// paper's g; true on qualified sets).  Derives the adversary structure
  /// as the family of maximal unqualified sets, checks Q³, and deals keys
  /// over the Benaloh–Leichter LSSS.
  static Deployment general(const Formula& access, int n, Rng& rng,
                            const CryptoConfig& config = CryptoConfig::fast());

  /// Generalized deployment where the tolerated adversary structure is
  /// given explicitly and the access formula only drives the secret
  /// sharing.  This is needed when the sharing's access structure is a
  /// *proper subset* of the complement of A — e.g. the paper's Example 2,
  /// where the (row, column)-grid formula leaves some incorruptible sets
  /// unqualified, and deriving A from the formula would violate Q³ even
  /// though the intended structure (closure of the 16 location ∪ OS sets)
  /// satisfies it.  Validates: A is Q³, every corruptible set is
  /// unqualified, and every quorum complement P ∖ S is qualified.
  static Deployment general_with_structure(const Formula& access, AdversaryStructure structure,
                                           Rng& rng,
                                           const CryptoConfig& config = CryptoConfig::fast());
};

}  // namespace sintra::adversary
