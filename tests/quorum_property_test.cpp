// Cross-model quorum-system property tests: the abstract invariants every
// QuorumSystem implementation (threshold, generalized Q³, hybrid) must
// satisfy for the protocol stack's safety arguments to go through —
// checked exhaustively over all party subsets.
#include <gtest/gtest.h>

#include "adversary/examples.hpp"
#include "adversary/hybrid.hpp"

namespace sintra::adversary {
namespace {

using crypto::full_set;
using crypto::PartySet;

/// The invariants the protocols rely on, for every subset pair.
void check_invariants(const QuorumSystem& q) {
  const int n = q.n();
  ASSERT_LE(n, 16) << "exhaustive check infeasible";
  const PartySet limit = PartySet{1} << n;
  const PartySet universe = full_set(n);

  // The full set is a quorum; the empty set is corruptible and nothing else.
  EXPECT_TRUE(q.is_quorum(universe));
  EXPECT_TRUE(q.corruptible(0));
  EXPECT_FALSE(q.exceeds_fault_set(0));

  for (PartySet a = 0; a < limit; ++a) {
    // Monotonicity of all predicates.
    for (int i = 0; i < n; ++i) {
      PartySet bigger = a | crypto::party_bit(i);
      if (q.is_quorum(a)) {
        EXPECT_TRUE(q.is_quorum(bigger));
      }
      if (q.exceeds_fault_set(a)) {
        EXPECT_TRUE(q.exceeds_fault_set(bigger));
      }
      if (q.is_vote_quorum(a)) {
        EXPECT_TRUE(q.is_vote_quorum(bigger));
      }
      if (q.corruptible(bigger)) {
        EXPECT_TRUE(q.corruptible(a & bigger));
      }
    }
    // exceeds_fault_set is the negation of corruptible restricted to the
    // universe (in the Byzantine-only models) or implies non-corruptible
    // (hybrid): a set beyond one fault set can never be fully corrupted.
    if (q.exceeds_fault_set(a)) {
      EXPECT_FALSE(q.corruptible(a));
    }
    // Vote quorum implies both weaker predicates... (vote => exceeds).
    if (q.is_vote_quorum(a)) {
      EXPECT_TRUE(q.exceeds_fault_set(a));
    }
    // A quorum's complement must be corruptible-or-crashable: protocols
    // wait for quorums, so the adversary must be able to silence exactly
    // the complement.  (For Byzantine-only models: complement in A.)
    // Conversely a corruptible set must never contain a quorum.
    if (q.corruptible(a)) {
      EXPECT_FALSE(q.is_quorum(a) && n > 1);
    }
  }

  // Quorum intersection: any two quorums intersect beyond one fault set —
  // the root of every uniqueness argument in the stack.
  for (PartySet a = 0; a < limit; ++a) {
    if (!q.is_quorum(a)) continue;
    for (PartySet b = a; b < limit; ++b) {
      if (!q.is_quorum(b)) continue;
      EXPECT_TRUE(q.exceeds_fault_set(a & b))
          << "quorums " << a << " and " << b << " intersect corruptibly";
    }
  }

  // Vote-quorum residue: removing any corruptible set from a vote quorum
  // leaves a set beyond one fault set — majority voting stays correct.
  for (PartySet a = 0; a < limit; ++a) {
    if (!q.is_vote_quorum(a)) continue;
    for (PartySet bad = 0; bad < limit; ++bad) {
      if (!q.corruptible(bad)) continue;
      EXPECT_TRUE(q.exceeds_fault_set(a & ~bad));
    }
  }

  // Liveness compatibility: the honest parties left after silencing any
  // corruptible set still contain a quorum (Byzantine-only models) —
  // otherwise the protocols could wait forever.
  for (PartySet bad : {PartySet{0}, PartySet{1}}) {
    if (q.corruptible(bad)) {
      EXPECT_TRUE(q.is_quorum(universe & ~bad));
    }
  }
}

TEST(QuorumPropertyTest, Threshold4_1) {
  check_invariants(ThresholdQuorum(4, 1));
}

TEST(QuorumPropertyTest, Threshold7_2) {
  check_invariants(ThresholdQuorum(7, 2));
}

TEST(QuorumPropertyTest, Threshold10_3) {
  check_invariants(ThresholdQuorum(10, 3));
}

TEST(QuorumPropertyTest, GeneralizedExample1) {
  check_invariants(GeneralQuorum(example1_access().to_adversary_structure(9)));
}

TEST(QuorumPropertyTest, GeneralizedExample2) {
  check_invariants(GeneralQuorum(example2_structure()));
}

TEST(QuorumPropertyTest, Hybrid6_1_1) {
  check_invariants(HybridQuorum(6, 1, 1));
}

TEST(QuorumPropertyTest, Hybrid9_2_1) {
  check_invariants(HybridQuorum(9, 2, 1));
}

TEST(QuorumPropertyTest, HybridCrashOnly5_0_2) {
  check_invariants(HybridQuorum(5, 0, 2));
}

TEST(QuorumPropertyTest, LivenessUnderEveryMaximalSetExample1) {
  // For the generalized model: after silencing ANY maximal corruptible
  // set, the remaining honest parties form a quorum and a vote quorum
  // minus any further corruptible set still answers consistently.
  auto structure = example1_access().to_adversary_structure(9);
  GeneralQuorum q(structure);
  for (PartySet bad : structure.maximal_sets()) {
    PartySet honest = full_set(9) & ~bad;
    EXPECT_TRUE(q.is_quorum(honest));
    EXPECT_TRUE(q.is_vote_quorum(honest));
    EXPECT_TRUE(q.exceeds_fault_set(honest));
  }
}

TEST(QuorumPropertyTest, LivenessUnderEveryMaximalSetExample2) {
  auto structure = example2_structure();
  GeneralQuorum q(structure);
  for (PartySet bad : structure.maximal_sets()) {
    PartySet honest = full_set(16) & ~bad;
    EXPECT_TRUE(q.is_quorum(honest));
    EXPECT_TRUE(q.is_vote_quorum(honest));
  }
}

/// The tabled predicates against a scan of the structure's maximal sets,
/// on every subset of the parties.
void expect_tables_match_scan(const AdversaryStructure& structure) {
  const GeneralQuorum q(structure);
  const int n = structure.n();
  ASSERT_LE(n, GeneralQuorum::kTabledParties);
  const PartySet universe = full_set(n);
  for (PartySet set = 0; set <= universe; ++set) {
    const bool corruptible = structure.corruptible(set);
    bool vote_quorum = true;
    for (PartySet bad : structure.maximal_sets()) {
      if (structure.corruptible(set & ~bad)) vote_quorum = false;
    }
    ASSERT_EQ(q.corruptible(set), corruptible) << "set " << set;
    ASSERT_EQ(q.is_quorum(set), structure.corruptible(universe & ~set)) << "set " << set;
    ASSERT_EQ(q.exceeds_fault_set(set), !corruptible) << "set " << set;
    ASSERT_EQ(q.is_vote_quorum(set), vote_quorum) << "set " << set;
  }
}

TEST(QuorumPropertyTest, TabledPredicatesMatchScanExample1) {
  expect_tables_match_scan(example1_access().to_adversary_structure(9));
}

TEST(QuorumPropertyTest, TabledPredicatesMatchScanExample2) {
  expect_tables_match_scan(example2_structure());
}

}  // namespace
}  // namespace sintra::adversary
