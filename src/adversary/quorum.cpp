#include "adversary/quorum.hpp"

#include "common/assert.hpp"
#include "crypto/shamir.hpp"

namespace sintra::adversary {

using crypto::full_set;
using crypto::popcount;

ThresholdQuorum::ThresholdQuorum(int n, int t) : n_(n), t_(t) {
  SINTRA_REQUIRE(n > 3 * t, "ThresholdQuorum: requires n > 3t");
  SINTRA_REQUIRE(n <= 64, "ThresholdQuorum: n out of range");
}

bool ThresholdQuorum::corruptible(PartySet set) const {
  return popcount(set & full_set(n_)) <= t_;
}

bool ThresholdQuorum::is_quorum(PartySet heard) const {
  return popcount(heard & full_set(n_)) >= n_ - t_;
}

bool ThresholdQuorum::exceeds_fault_set(PartySet heard) const {
  return popcount(heard & full_set(n_)) >= t_ + 1;
}

bool ThresholdQuorum::is_vote_quorum(PartySet heard) const {
  return popcount(heard & full_set(n_)) >= 2 * t_ + 1;
}

std::string ThresholdQuorum::describe() const {
  return "threshold(n=" + std::to_string(n_) + ",t=" + std::to_string(t_) + ")";
}

namespace {

/// Closes a 2^n-entry table under subsets: a set is marked once any
/// superset is.  One pass per party, n * 2^n lookups in all.
void close_downward(std::vector<bool>& table, int n) {
  for (int i = 0; i < n; ++i) {
    const PartySet bit = PartySet{1} << i;
    for (PartySet set = 0; set < table.size(); ++set) {
      if ((set & bit) == 0 && table[set | bit]) table[set] = true;
    }
  }
}

}  // namespace

GeneralQuorum::GeneralQuorum(AdversaryStructure structure) : structure_(std::move(structure)) {
  SINTRA_REQUIRE(structure_.satisfies_q3(), "GeneralQuorum: structure violates Q3");
  const int n = structure_.n();
  if (n > kTabledParties) return;
  const std::size_t size = std::size_t{1} << n;
  corruptible_.assign(size, false);
  two_covered_.assign(size, false);
  const auto& maximal = structure_.maximal_sets();
  for (PartySet bad : maximal) {
    corruptible_[bad] = true;
    // R is a vote quorum iff no S in A leaves R \ S in A, i.e. iff R lies
    // inside no union of two sets of A.
    for (PartySet other : maximal) two_covered_[bad | other] = true;
  }
  close_downward(corruptible_, n);
  close_downward(two_covered_, n);
}

bool GeneralQuorum::lookup(const std::vector<bool>& table, PartySet set) const {
  return (set & ~full_set(n())) == 0 && table[set];
}

bool GeneralQuorum::corruptible(PartySet set) const {
  if (corruptible_.empty()) return structure_.corruptible(set);
  return lookup(corruptible_, set);
}

bool GeneralQuorum::is_quorum(PartySet heard) const {
  return corruptible(full_set(n()) & ~heard);
}

bool GeneralQuorum::exceeds_fault_set(PartySet heard) const {
  return !corruptible(heard);
}

bool GeneralQuorum::is_vote_quorum(PartySet heard) const {
  if (!two_covered_.empty()) return !lookup(two_covered_, heard);
  for (PartySet bad : structure_.maximal_sets()) {
    if (structure_.corruptible(heard & ~bad)) return false;
  }
  return true;
}

std::string GeneralQuorum::describe() const {
  return "general " + structure_.describe();
}

CryptoConfig CryptoConfig::production() {
  return CryptoConfig{crypto::Group::default_group(), 256};
}

CryptoConfig CryptoConfig::curve() {
  return CryptoConfig{crypto::Group::curve_group(), 256};
}

Deployment Deployment::threshold(int n, int t, Rng& rng, const CryptoConfig& config) {
  auto quorum = std::make_shared<const ThresholdQuorum>(n, t);
  auto low = std::make_shared<const crypto::ThresholdScheme>(n, t);
  auto high = std::make_shared<const crypto::ThresholdScheme>(n, n - t - 1);
  auto keys = std::make_shared<const crypto::KeyBundle>(crypto::KeyBundle::deal(
      config.group, std::move(low), std::move(high),
      crypto::RsaParams::precomputed(config.rsa_prime_bits), rng));
  return Deployment{std::move(quorum), std::move(keys)};
}

Deployment Deployment::general(const Formula& access, int n, Rng& rng,
                               const CryptoConfig& config) {
  return general_with_structure(access, access.to_adversary_structure(n), rng, config);
}

Deployment Deployment::general_with_structure(const Formula& access,
                                              AdversaryStructure structure, Rng& rng,
                                              const CryptoConfig& config) {
  const int n = structure.n();
  SINTRA_REQUIRE(n >= access.max_party(), "Deployment: formula mentions unknown parties");
  SINTRA_REQUIRE(structure.satisfies_q3(), "Deployment: adversary structure violates Q3");
  // Compatibility of sharing and failure model: the adversary must never be
  // qualified, and every full quorum must be.
  for (PartySet bad : structure.maximal_sets()) {
    SINTRA_REQUIRE(!access.eval(bad), "Deployment: a corruptible set is qualified");
    SINTRA_REQUIRE(access.eval(full_set(n) & ~bad),
                   "Deployment: a quorum complement is unqualified");
  }
  auto quorum = std::make_shared<const GeneralQuorum>(std::move(structure));

  auto low = std::make_shared<const LsssScheme>(access, n);
  auto high = std::make_shared<const LsssScheme>(
      Formula::quorum_formula(quorum->structure()), n);
  auto keys = std::make_shared<const crypto::KeyBundle>(crypto::KeyBundle::deal(
      config.group, std::move(low), std::move(high),
      crypto::RsaParams::precomputed(config.rsa_prime_bits), rng));
  return Deployment{std::move(quorum), std::move(keys)};
}

}  // namespace sintra::adversary
