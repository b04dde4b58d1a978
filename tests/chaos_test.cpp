// Chaos harness: every protocol layer must keep its safety invariants
// under at-least-once delivery — duplicated, replayed, dropped-then-
// retransmitted traffic and crash-restarting parties — and stay live,
// since every injected fault is bounded (net/fault.hpp).
//
// Matrix (acceptance criteria of issue 2): protocol in {RBC, ABBA, VBA,
// atomic, causal} x fault policy in {duplicates, replays, retrying link,
// crash-restart} x seeds.  The scheduler alternates by seed between the
// random baseline and the reordering-maximizing LIFO adversary, so every
// policy also runs under adversarial delivery order.  Seed count is
// SINTRA_CHAOS_SEEDS (default 8; CI's reduced sweep sets it lower).
#include <gtest/gtest.h>

#include <cstdlib>

#include "net/corruption.hpp"
#include "protocols/abba.hpp"
#include "protocols/atomic.hpp"
#include "protocols/broadcast.hpp"
#include "protocols/causal.hpp"
#include "protocols/harness.hpp"
#include "protocols/vba.hpp"

namespace sintra::protocols {
namespace {

int chaos_seeds() {
  if (const char* env = std::getenv("SINTRA_CHAOS_SEEDS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return 8;
}

enum class Fault { kDuplicates, kReplays, kRetryingLink, kCrashRestart };

constexpr Fault kAllFaults[] = {Fault::kDuplicates, Fault::kReplays, Fault::kRetryingLink,
                                Fault::kCrashRestart};

const char* fault_name(Fault fault) {
  switch (fault) {
    case Fault::kDuplicates: return "duplicates";
    case Fault::kReplays: return "replays";
    case Fault::kRetryingLink: return "retrying-link";
    case Fault::kCrashRestart: return "crash-restart";
  }
  return "?";
}

/// Applies one matrix cell to a freshly built cluster: either a fault
/// policy on the network or a crash-restart plan for party 1.
template <typename State>
void arm(ChaosCluster<State>& cluster, Fault fault, std::uint64_t seed) {
  switch (fault) {
    case Fault::kDuplicates:
      cluster.set_fault_policy(seed * 31 + 1, net::FaultPolicy::duplicates());
      break;
    case Fault::kReplays:
      cluster.set_fault_policy(seed * 31 + 2, net::FaultPolicy::replays());
      break;
    case Fault::kRetryingLink:
      cluster.set_fault_policy(seed * 31 + 3, net::FaultPolicy::retrying_link());
      break;
    case Fault::kCrashRestart:
      // Party 1 loses all volatile state after 6 deliveries, misses the
      // next 4 messages (stashed by the reliable link), then rebuilds
      // from its write-ahead log and rejoins.
      cluster.set_restarting(1, /*crash_after=*/6, /*down_for=*/4);
      break;
  }
}

/// Scheduler for a seed: even seeds the random baseline, odd seeds the
/// reordering-maximizing (still fair) LIFO adversary.
std::unique_ptr<net::Scheduler> scheduler_for(std::uint64_t seed) {
  if (seed % 2 == 0) return std::make_unique<net::RandomScheduler>(seed * 101);
  return std::make_unique<net::LifoScheduler>(seed * 101);
}

// ---------------------------------------------------------------- RBC --

struct RbcState {
  std::unique_ptr<ReliableBroadcast> rbc;
  std::vector<Bytes> delivered;  ///< must end up with exactly one entry
};

void run_rbc(Fault fault, std::uint64_t seed) {
  SCOPED_TRACE(std::string("rbc/") + fault_name(fault) + "/seed " + std::to_string(seed));
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  auto sched = scheduler_for(seed);
  ChaosCluster<RbcState> cluster(
      deployment, *sched,
      [](net::Party& party, int id) {
        auto state = std::make_unique<RbcState>();
        state->rbc = std::make_unique<ReliableBroadcast>(
            party, "rbc/0", /*sender=*/0,
            [s = state.get()](Bytes m) { s->delivered.push_back(std::move(m)); });
        if (id == 0) state->rbc->start(bytes_of("chaos-payload"));
        return state;
      },
      seed);
  arm(cluster, fault, seed);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all([](RbcState& s) { return !s.delivered.empty(); }, 200000))
      << "liveness violated";
  cluster.for_each([](int, RbcState& s) {
    // Exactly-once application delivery + agreement with the sender.
    ASSERT_EQ(s.delivered.size(), 1u) << "double delivery";
    EXPECT_EQ(s.delivered[0], bytes_of("chaos-payload"));
  });
}

TEST(ChaosTest, ReliableBroadcast) {
  for (Fault fault : kAllFaults) {
    for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
      run_rbc(fault, seed);
    }
  }
}

// --------------------------------------------------------------- ABBA --

struct AbbaState {
  std::unique_ptr<Abba> abba;
  std::vector<bool> decisions;  ///< must end up with exactly one entry
};

void run_abba(Fault fault, std::uint64_t seed) {
  SCOPED_TRACE(std::string("abba/") + fault_name(fault) + "/seed " + std::to_string(seed));
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  auto sched = scheduler_for(seed);
  ChaosCluster<AbbaState> cluster(
      deployment, *sched,
      [](net::Party& party, int id) {
        auto state = std::make_unique<AbbaState>();
        state->abba = std::make_unique<Abba>(
            party, "ba/0",
            [s = state.get()](bool v, int) { s->decisions.push_back(v); });
        state->abba->start(id % 2 == 1);  // mixed inputs
        return state;
      },
      seed);
  arm(cluster, fault, seed);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all([](AbbaState& s) { return !s.decisions.empty(); }, 3000000))
      << "termination violated";
  std::optional<bool> common;
  cluster.for_each([&](int, AbbaState& s) {
    ASSERT_EQ(s.decisions.size(), 1u) << "decided twice";
    if (!common.has_value()) common = s.decisions[0];
    EXPECT_EQ(s.decisions[0], *common) << "agreement violated";
  });
}

TEST(ChaosTest, Abba) {
  for (Fault fault : kAllFaults) {
    for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
      run_abba(fault, seed);
    }
  }
}

// ---------------------------------------------------------------- VBA --

struct VbaState {
  std::unique_ptr<Vba> vba;
  std::vector<Bytes> decisions;
};

bool ok_prefix(BytesView value) {
  return value.size() >= 3 && value[0] == 'o' && value[1] == 'k' && value[2] == ':';
}

void run_vba(Fault fault, std::uint64_t seed) {
  SCOPED_TRACE(std::string("vba/") + fault_name(fault) + "/seed " + std::to_string(seed));
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  auto sched = scheduler_for(seed);
  ChaosCluster<VbaState> cluster(
      deployment, *sched,
      [](net::Party& party, int id) {
        auto state = std::make_unique<VbaState>();
        // Party 1 is the crash-restart victim: its replay has to
        // reproduce the first candidate's input.
        state->vba = std::make_unique<Vba>(
            party, "vba/0", /*first_candidate=*/1, ok_prefix,
            [s = state.get()](Bytes v) { s->decisions.push_back(std::move(v)); });
        state->vba->propose(bytes_of("ok:proposal-" + std::to_string(id)));
        return state;
      },
      seed);
  arm(cluster, fault, seed);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all([](VbaState& s) { return !s.decisions.empty(); }, 3000000))
      << "termination violated";
  std::optional<Bytes> common;
  cluster.for_each([&](int, VbaState& s) {
    ASSERT_EQ(s.decisions.size(), 1u) << "decided twice";
    if (!common.has_value()) common = s.decisions[0];
    EXPECT_EQ(s.decisions[0], *common) << "agreement violated";
  });
  // External validity: the decision is some party's (well-formed) proposal.
  ASSERT_TRUE(common.has_value());
  EXPECT_TRUE(ok_prefix(*common));
}

TEST(ChaosTest, Vba) {
  for (Fault fault : kAllFaults) {
    for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
      run_vba(fault, seed);
    }
  }
}

// ------------------------------------------------------------- atomic --

struct AbcState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::vector<std::pair<int, Bytes>> delivered;
};

void run_atomic(Fault fault, std::uint64_t seed) {
  SCOPED_TRACE(std::string("abc/") + fault_name(fault) + "/seed " + std::to_string(seed));
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  auto sched = scheduler_for(seed);
  ChaosCluster<AbcState> cluster(
      deployment, *sched,
      [](net::Party& party, int id) {
        auto state = std::make_unique<AbcState>();
        state->abc = std::make_unique<AtomicBroadcast>(
            party, "abc", [s = state.get()](int origin, Bytes payload) {
              s->delivered.emplace_back(origin, std::move(payload));
            });
        // Parties 0 and 2 submit one payload each.
        if (id == 0 || id == 2) state->abc->submit(bytes_of("m" + std::to_string(id)));
        return state;
      },
      seed);
  arm(cluster, fault, seed);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 2; },
                                    5000000))
      << "liveness violated";
  // Total order on the common prefix, and no payload delivered twice.
  const std::vector<std::pair<int, Bytes>>* reference = nullptr;
  cluster.for_each([&](int, AbcState& s) {
    for (std::size_t i = 0; i < s.delivered.size(); ++i) {
      for (std::size_t j = i + 1; j < s.delivered.size(); ++j) {
        EXPECT_NE(s.delivered[i], s.delivered[j]) << "double delivery";
      }
    }
    if (reference == nullptr) {
      reference = &s.delivered;
      return;
    }
    const std::size_t common = std::min(reference->size(), s.delivered.size());
    for (std::size_t i = 0; i < common; ++i) {
      EXPECT_EQ(s.delivered[i], (*reference)[i]) << "total order violated at " << i;
    }
  });
}

TEST(ChaosTest, AtomicBroadcast) {
  for (Fault fault : kAllFaults) {
    for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
      run_atomic(fault, seed);
    }
  }
}

// ------------------------------------------------------------- causal --

struct ScState {
  std::unique_ptr<SecureCausalBroadcast> sc;
  std::vector<std::pair<std::uint64_t, Bytes>> delivered;
};

void run_causal(Fault fault, std::uint64_t seed) {
  SCOPED_TRACE(std::string("causal/") + fault_name(fault) + "/seed " + std::to_string(seed));
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  auto sched = scheduler_for(seed);
  Rng crng(seed + 500);
  const auto& pk = deployment.keys->public_keys().encryption;
  const auto ct1 = pk.encrypt(bytes_of("first"), bytes_of("svc"), crng);
  const auto ct2 = pk.encrypt(bytes_of("second"), bytes_of("svc"), crng);
  ChaosCluster<ScState> cluster(
      deployment, *sched,
      [&ct1, &ct2](net::Party& party, int id) {
        auto state = std::make_unique<ScState>();
        state->sc = std::make_unique<SecureCausalBroadcast>(
            party, "sc", [s = state.get()](std::uint64_t seq, Bytes plaintext, Bytes) {
              s->delivered.emplace_back(seq, std::move(plaintext));
            });
        if (id == 0) state->sc->submit(ct1);
        if (id == 1) state->sc->submit(ct2);
        return state;
      },
      seed);
  arm(cluster, fault, seed);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all([](ScState& s) { return s.delivered.size() >= 2; },
                                    5000000))
      << "liveness violated";
  // Identical (sequence, plaintext) at every party; sequence numbers are
  // consecutive from 0 with no repeats (exactly-once).
  const std::vector<std::pair<std::uint64_t, Bytes>>* reference = nullptr;
  cluster.for_each([&](int, ScState& s) {
    for (std::size_t i = 0; i < s.delivered.size(); ++i) {
      EXPECT_EQ(s.delivered[i].first, i) << "sequence gap or repeat";
    }
    if (reference == nullptr) {
      reference = &s.delivered;
      return;
    }
    const std::size_t common = std::min(reference->size(), s.delivered.size());
    for (std::size_t i = 0; i < common; ++i) {
      EXPECT_EQ(s.delivered[i], (*reference)[i]) << "sequencing diverged at " << i;
    }
  });
}

TEST(ChaosTest, SecureCausalBroadcast) {
  for (Fault fault : kAllFaults) {
    for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
      run_causal(fault, seed);
    }
  }
}

// -------------------------------------------------- targeted scenarios --

TEST(ChaosTest, CrashRestartedPartyRejoinsMidAbba) {
  // The acceptance-criterion scenario, checked explicitly: party 1
  // crashes mid-agreement, rebuilds from its WAL, rejoins, and the run
  // still terminates with agreement — and party 1 itself decides.
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    auto sched = scheduler_for(seed);
    ChaosCluster<AbbaState> cluster(
        deployment, *sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<AbbaState>();
          state->abba = std::make_unique<Abba>(
              party, "ba/0",
              [s = state.get()](bool v, int) { s->decisions.push_back(v); });
          state->abba->start(id % 2 == 0);
          return state;
        },
        seed);
    // ABBA can decide within ~9 deliveries per party on friendly seeds, so
    // crash early enough that the crash always lands mid-protocol.
    cluster.set_restarting(1, /*crash_after=*/5, /*down_for=*/3);
    cluster.start();
    ASSERT_TRUE(
        cluster.run_until_all([](AbbaState& s) { return !s.decisions.empty(); }, 3000000));
    EXPECT_GE(cluster.restarting(1)->restarts(), 1) << "party 1 never actually crashed";
    std::optional<bool> common;
    cluster.for_each([&](int id, AbbaState& s) {
      ASSERT_EQ(s.decisions.size(), 1u);
      if (!common.has_value()) common = s.decisions[0];
      EXPECT_EQ(s.decisions[0], *common) << "party " << id << " disagrees after restart";
    });
  }
}

TEST(ChaosTest, EverythingAtOnce) {
  // Full chaos policy (duplicates + replays + drops) combined with a
  // crash-restarting party, on the protocol with the most moving parts.
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    auto sched = scheduler_for(seed);
    ChaosCluster<AbbaState> cluster(
        deployment, *sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<AbbaState>();
          state->abba = std::make_unique<Abba>(
              party, "ba/0",
              [s = state.get()](bool v, int) { s->decisions.push_back(v); });
          state->abba->start(id >= 2);
          return state;
        },
        seed);
    cluster.set_fault_policy(seed * 97, net::FaultPolicy::chaos());
    cluster.set_restarting(2, /*crash_after=*/8, /*down_for=*/5);
    cluster.start();
    ASSERT_TRUE(
        cluster.run_until_all([](AbbaState& s) { return !s.decisions.empty(); }, 3000000));
    std::optional<bool> common;
    cluster.for_each([&](int, AbbaState& s) {
      ASSERT_EQ(s.decisions.size(), 1u);
      if (!common.has_value()) common = s.decisions[0];
      EXPECT_EQ(s.decisions[0], *common);
    });
    const auto& stats = cluster.injector()->stats();
    // The injector must have actually exercised the faults (otherwise the
    // sweep silently tests nothing).
    EXPECT_GT(stats.duplicated + stats.replayed + stats.dropped, 0u);
  }
}

// ------------------------------- flooder + crash-restart combinations --
//
// Issue 4's combined stressor: a Byzantine flooder saturating a protocol's
// buffering path while an honest party crash-restarts mid-run.  Each cell
// asserts the protocol's safety property for the correct parties AND that
// every correct party's buffered bytes stayed under its ResourceBudget cap
// throughout (peak, not just final occupancy).

/// Caps for the combined cells: far below the flood volume, comfortably
/// above honest traffic (including a restarted party's WAL replay).
net::BudgetConfig flood_budget() {
  net::BudgetConfig config;
  config.per_peer_cap = 8 << 10;
  config.per_instance_cap = 64 << 10;
  config.total_cap = 128 << 10;
  return config;
}

template <typename State>
void expect_budget_held(ChaosCluster<State>& cluster, const net::BudgetConfig& config) {
  cluster.for_each([&](int id, State&) {
    const net::Party* party = cluster.party(id);
    ASSERT_NE(party, nullptr);
    EXPECT_LE(party->budget().peak_total(), config.total_cap)
        << "party " << id << " exceeded its total budget under flood";
    EXPECT_LE(party->budget().peer_total(3), config.per_peer_cap)
        << "party " << id << " holds over-cap residue for the flooder";
  });
}

/// Replaces party 3 with a FlooderProcess spraying `profile` traffic at
/// `tag`, and arms a crash-restart plan for party 1.
template <typename State>
void arm_flood_and_restart(ChaosCluster<State>& cluster, adversary::Deployment& deployment,
                           std::uint64_t seed, net::FlooderProcess::Profile profile,
                           std::string tag) {
  cluster.set_custom(3, [&cluster, &deployment, seed, profile, tag] {
    return std::make_unique<net::FlooderProcess>(cluster.simulator(), 3, deployment,
                                                 seed * 13, profile, tag);
  });
  cluster.set_restarting(1, /*crash_after=*/6, /*down_for=*/4);
  cluster.set_budget(flood_budget());
}

TEST(ChaosTest, FloodedRbcSurvivesCrashRestart) {
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    auto sched = scheduler_for(seed);
    ChaosCluster<RbcState> cluster(
        deployment, *sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<RbcState>();
          state->rbc = std::make_unique<ReliableBroadcast>(
              party, "rbc/0", /*sender=*/0,
              [s = state.get()](Bytes m) { s->delivered.push_back(std::move(m)); });
          if (id == 0) state->rbc->start(bytes_of("flooded-payload"));
          return state;
        },
        seed);
    arm_flood_and_restart(cluster, deployment, seed,
                          net::FlooderProcess::Profile::kBogusTags, "rbc");
    cluster.start();
    ASSERT_TRUE(
        cluster.run_until_all([](RbcState& s) { return !s.delivered.empty(); }, 1000000))
        << "flood + restart broke rbc liveness";
    cluster.for_each([](int, RbcState& s) {
      ASSERT_EQ(s.delivered.size(), 1u);
      EXPECT_EQ(s.delivered[0], bytes_of("flooded-payload"));
    });
    expect_budget_held(cluster, flood_budget());
  }
}

TEST(ChaosTest, FloodedAbbaSurvivesCrashRestart) {
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    auto sched = scheduler_for(seed);
    ChaosCluster<AbbaState> cluster(
        deployment, *sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<AbbaState>();
          state->abba = std::make_unique<Abba>(
              party, "ba/0",
              [s = state.get()](bool v, int) { s->decisions.push_back(v); });
          state->abba->start(id % 2 == 0);
          return state;
        },
        seed);
    arm_flood_and_restart(cluster, deployment, seed,
                          net::FlooderProcess::Profile::kAbbaRounds, "ba/0");
    cluster.start();
    ASSERT_TRUE(
        cluster.run_until_all([](AbbaState& s) { return !s.decisions.empty(); }, 3000000))
        << "flood + restart broke abba termination";
    std::optional<bool> common;
    cluster.for_each([&](int id, AbbaState& s) {
      ASSERT_EQ(s.decisions.size(), 1u);
      if (!common.has_value()) common = s.decisions[0];
      EXPECT_EQ(s.decisions[0], *common) << "party " << id << " disagrees";
    });
    expect_budget_held(cluster, flood_budget());
  }
}

TEST(ChaosTest, FloodedVbaSurvivesCrashRestart) {
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    auto sched = scheduler_for(seed);
    ChaosCluster<VbaState> cluster(
        deployment, *sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<VbaState>();
          // The flooder (party 3) never proposes: the first candidate is
          // silent, so the permutation coin runs under flood and restart.
          state->vba = std::make_unique<Vba>(
              party, "vba/0", /*first_candidate=*/3, ok_prefix,
              [s = state.get()](Bytes v) { s->decisions.push_back(std::move(v)); });
          state->vba->propose(bytes_of("ok:proposal-" + std::to_string(id)));
          return state;
        },
        seed);
    arm_flood_and_restart(cluster, deployment, seed,
                          net::FlooderProcess::Profile::kBogusTags, "vba/0");
    cluster.start();
    ASSERT_TRUE(
        cluster.run_until_all([](VbaState& s) { return !s.decisions.empty(); }, 3000000))
        << "flood + restart broke vba termination";
    std::optional<Bytes> common;
    cluster.for_each([&](int id, VbaState& s) {
      ASSERT_EQ(s.decisions.size(), 1u);
      if (!common.has_value()) common = s.decisions[0];
      EXPECT_EQ(s.decisions[0], *common) << "party " << id << " disagrees";
    });
    ASSERT_TRUE(common.has_value());
    EXPECT_TRUE(ok_prefix(*common));
    expect_budget_held(cluster, flood_budget());
  }
}

TEST(ChaosTest, FloodedAtomicSurvivesCrashRestart) {
  // The heaviest cell: validly signed future-round batches (the flooder
  // holds a dealt key share) against the atomic broadcast round buffers,
  // while party 1 crash-restarts from its WAL.
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    auto sched = scheduler_for(seed);
    ChaosCluster<AbcState> cluster(
        deployment, *sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<AbcState>();
          state->abc = std::make_unique<AtomicBroadcast>(
              party, "abc", [s = state.get()](int origin, Bytes payload) {
                s->delivered.emplace_back(origin, std::move(payload));
              });
          if (id == 0 || id == 2) state->abc->submit(bytes_of("m" + std::to_string(id)));
          return state;
        },
        seed);
    arm_flood_and_restart(cluster, deployment, seed,
                          net::FlooderProcess::Profile::kAbcRounds, "abc");
    cluster.start();
    auto honest_count = [](AbcState& s) {
      std::size_t count = 0;
      for (const auto& [origin, payload] : s.delivered) {
        if (origin != 3) ++count;
      }
      return count;
    };
    ASSERT_TRUE(cluster.run_until_all(
        [&](AbcState& s) { return honest_count(s) >= 2; }, 8000000))
        << "flood + restart broke atomic broadcast liveness";
    const std::vector<std::pair<int, Bytes>>* reference = nullptr;
    cluster.for_each([&](int id, AbcState& s) {
      if (reference == nullptr) reference = &s.delivered;
      const std::size_t common = std::min(reference->size(), s.delivered.size());
      for (std::size_t i = 0; i < common; ++i) {
        EXPECT_EQ(s.delivered[i], (*reference)[i])
            << "total order violated at " << i << ", party " << id;
      }
    });
    expect_budget_held(cluster, flood_budget());
  }
}

TEST(ChaosTest, FloodedCausalSurvivesCrashRestart) {
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(chaos_seeds()); ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    auto sched = scheduler_for(seed);
    Rng crng(seed + 900);
    const auto& pk = deployment.keys->public_keys().encryption;
    const auto ct1 = pk.encrypt(bytes_of("first"), bytes_of("svc"), crng);
    const auto ct2 = pk.encrypt(bytes_of("second"), bytes_of("svc"), crng);
    ChaosCluster<ScState> cluster(
        deployment, *sched,
        [&ct1, &ct2](net::Party& party, int id) {
          auto state = std::make_unique<ScState>();
          state->sc = std::make_unique<SecureCausalBroadcast>(
              party, "sc", [s = state.get()](std::uint64_t seq, Bytes plaintext, Bytes) {
                s->delivered.emplace_back(seq, std::move(plaintext));
              });
          if (id == 0) state->sc->submit(ct1);
          if (id == 1) state->sc->submit(ct2);
          return state;
        },
        seed);
    arm_flood_and_restart(cluster, deployment, seed,
                          net::FlooderProcess::Profile::kBogusTags, "sc");
    cluster.start();
    ASSERT_TRUE(cluster.run_until_all([](ScState& s) { return s.delivered.size() >= 2; },
                                      5000000))
        << "flood + restart broke causal liveness";
    const std::vector<std::pair<std::uint64_t, Bytes>>* reference = nullptr;
    cluster.for_each([&](int id, ScState& s) {
      for (std::size_t i = 0; i < s.delivered.size(); ++i) {
        EXPECT_EQ(s.delivered[i].first, i) << "sequence gap or repeat at party " << id;
      }
      if (reference == nullptr) {
        reference = &s.delivered;
        return;
      }
      const std::size_t common = std::min(reference->size(), s.delivered.size());
      for (std::size_t i = 0; i < common; ++i) {
        EXPECT_EQ(s.delivered[i], (*reference)[i]) << "sequencing diverged at " << i;
      }
    });
    expect_budget_held(cluster, flood_budget());
  }
}

}  // namespace
}  // namespace sintra::protocols
