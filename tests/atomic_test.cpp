// Atomic broadcast tests: total order, agreement, liveness (including a
// submission arriving mid-run and under hostile schedulers), duplicate
// suppression and crash tolerance.
#include <gtest/gtest.h>

#include "adversary/examples.hpp"
#include "protocols/atomic.hpp"
#include "protocols/harness.hpp"

namespace sintra::protocols {
namespace {

using crypto::party_bit;

struct AbcState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::vector<std::pair<int, Bytes>> delivered;
};

Cluster<AbcState> make_cluster(adversary::Deployment deployment, net::Scheduler& sched,
                               crypto::PartySet corrupted = 0, std::uint64_t seed = 1) {
  return Cluster<AbcState>(
      std::move(deployment), sched,
      [](net::Party& party, int) {
        auto state = std::make_unique<AbcState>();
        state->abc = std::make_unique<AtomicBroadcast>(
            party, "abc", [s = state.get()](int origin, Bytes payload) {
              s->delivered.emplace_back(origin, std::move(payload));
            });
        return state;
      },
      corrupted, 0, seed);
}

void expect_identical_order(Cluster<AbcState>& cluster) {
  const std::vector<std::pair<int, Bytes>>* reference = nullptr;
  cluster.for_each([&](int, AbcState& s) {
    if (reference == nullptr) {
      reference = &s.delivered;
      return;
    }
    EXPECT_EQ(s.delivered, *reference) << "total order violated";
  });
}

TEST(AtomicTest, SingleSenderDelivers) {
  Rng rng(1);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(2);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  cluster.protocol(0)->abc->submit(bytes_of("only"));
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 1; },
                                    2000000));
  expect_identical_order(cluster);
  EXPECT_EQ(cluster.protocol(1)->delivered[0].second, bytes_of("only"));
}

TEST(AtomicTest, ConcurrentSendersSameTotalOrder) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 7);
    auto cluster = make_cluster(deployment, sched, 0, seed);
    cluster.start();
    cluster.for_each([](int id, AbcState& s) {
      s.abc->submit(bytes_of("m" + std::to_string(id)));
    });
    ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 4; },
                                      5000000))
        << "seed " << seed;
    expect_identical_order(cluster);
  }
}

TEST(AtomicTest, SubmissionsAcrossRounds) {
  Rng rng(3);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(3);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  cluster.protocol(0)->abc->submit(bytes_of("first"));
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 1; },
                                    2000000));
  // Second wave after the first round completed.
  cluster.protocol(1)->abc->submit(bytes_of("second"));
  cluster.protocol(2)->abc->submit(bytes_of("third"));
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 3; },
                                    2000000));
  expect_identical_order(cluster);
  EXPECT_GE(cluster.protocol(0)->abc->rounds_completed(), 2);
}

TEST(AtomicTest, DuplicateContentDeliveredOnce) {
  // The same payload submitted at several parties (a client broadcasting
  // its request) must be delivered exactly once.
  Rng rng(4);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(4);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  cluster.for_each([](int, AbcState& s) { s.abc->submit(bytes_of("dup")); });
  cluster.protocol(0)->abc->submit(bytes_of("unique"));
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 2; },
                                    3000000));
  cluster.simulator().run(200000);  // drain any extra rounds
  cluster.for_each([](int, AbcState& s) {
    int dups = 0;
    for (const auto& [origin, payload] : s.delivered) {
      if (payload == bytes_of("dup")) ++dups;
    }
    EXPECT_EQ(dups, 1);
  });
  expect_identical_order(cluster);
}

TEST(AtomicTest, ToleratesCrashedParties) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(7, 2, rng);
    net::RandomScheduler sched(seed * 19);
    auto cluster = make_cluster(deployment, sched, party_bit(2) | party_bit(5), seed);
    cluster.start();
    cluster.protocol(0)->abc->submit(bytes_of("a"));
    cluster.protocol(1)->abc->submit(bytes_of("b"));
    ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 2; },
                                      8000000))
        << "seed " << seed;
    expect_identical_order(cluster);
  }
}

TEST(AtomicTest, LivenessUnderStarvationScheduler) {
  // The paper's headline property: progress under *any* fair-in-the-limit
  // schedule, including one starving a chosen party.
  Rng rng(5);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::StarvePartyScheduler sched(5, /*victim=*/0);
  auto cluster = make_cluster(deployment, sched, 0, 5);
  cluster.start();
  cluster.protocol(0)->abc->submit(bytes_of("starved sender"));
  cluster.protocol(1)->abc->submit(bytes_of("other"));
  EXPECT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 2; },
                                    8000000));
  expect_identical_order(cluster);
}

TEST(AtomicTest, ManyMessagesBatchAndDeliver) {
  Rng rng(6);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(6);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  const int per_party = 10;
  cluster.for_each([&](int id, AbcState& s) {
    for (int k = 0; k < per_party; ++k) {
      s.abc->submit(bytes_of("p" + std::to_string(id) + "-" + std::to_string(k)));
    }
  });
  ASSERT_TRUE(cluster.run_until_all(
      [&](AbcState& s) { return s.delivered.size() >= 4 * per_party; }, 20000000));
  expect_identical_order(cluster);
  // Every submitted payload present exactly once.
  std::set<Bytes> seen;
  for (const auto& [origin, payload] : cluster.protocol(0)->delivered) {
    EXPECT_TRUE(seen.insert(payload).second) << "duplicate delivery";
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(4 * per_party));
}

TEST(AtomicTest, GeneralAdversaryExample1ClassCrash) {
  // Atomic broadcast over Example 1 with all of class a crashed.
  Rng rng(7);
  auto deployment = adversary::example1_deployment(rng);
  net::RandomScheduler sched(7);
  crypto::PartySet class_a = party_bit(0) | party_bit(1) | party_bit(2) | party_bit(3);
  auto cluster = make_cluster(deployment, sched, class_a, 7);
  cluster.start();
  cluster.protocol(4)->abc->submit(bytes_of("from b"));
  cluster.protocol(8)->abc->submit(bytes_of("from d"));
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 2; },
                                    20000000));
  expect_identical_order(cluster);
}

TEST(AtomicTest, RoundRotatesTheFirstCandidate) {
  // Party 2 is crashed, so every quorum of delivered proposals holds all
  // three honest ones.  Round r's VBA examines party r mod 4 first: when
  // that is an honest party, every honest party inputs 1 and no coin share
  // is sent; when it is party 2, the first ABBA decides 0 and the
  // permutation coin is tossed.
  Rng rng(8);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler random(8);
  std::vector<net::Message> traffic;
  CapturingScheduler sched(random, traffic);
  auto cluster = make_cluster(deployment, sched, party_bit(2), 8);
  cluster.start();
  for (std::size_t k = 0; k < 8; ++k) {
    cluster.protocol(static_cast<int>(k % 2))->abc->submit(bytes_of("p" + std::to_string(k)));
    ASSERT_TRUE(cluster.run_until_all([k](AbcState& s) { return s.delivered.size() > k; },
                                      3000000))
        << "payload " << k;
  }
  cluster.simulator().run(1000000);
  expect_identical_order(cluster);
  // Rounds with traffic ("abc/<r>/...") and those that sent permutation-coin
  // shares (instance "abc/<r>/vba", type byte 0).
  std::set<int> rounds;
  std::set<int> coin_rounds;
  for (const net::Message& m : traffic) {
    const std::size_t end = m.tag.find('/', 4);
    if (m.tag.rfind("abc/", 0) != 0 || end == std::string::npos) continue;
    const int round = std::stoi(m.tag.substr(4, end - 4));
    rounds.insert(round);
    if (m.tag.substr(end) == "/vba" && m.payload[0] == 0) coin_rounds.insert(round);
  }
  ASSERT_GE(rounds.size(), 8u);
  EXPECT_FALSE(coin_rounds.empty()) << "no round led with the crashed party";
  for (int round : rounds) {
    EXPECT_EQ(coin_rounds.contains(round), round % 4 == 2) << "round " << round;
  }
}

TEST(AtomicTest, StarvedFirstCandidatesStillDeliver) {
  // E3's fairness under the starvation scheduler, with the starved party
  // in every position of the first-candidate rotation: each party submits
  // one payload, and the starved party's is delivered too.
  for (int victim = 0; victim < 4; ++victim) {
    SCOPED_TRACE("victim " + std::to_string(victim));
    Rng rng(static_cast<std::uint64_t>(victim) + 40);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::StarvePartyScheduler sched(static_cast<std::uint64_t>(victim) + 40, victim);
    auto cluster = make_cluster(deployment, sched, 0, static_cast<std::uint64_t>(victim) + 40);
    cluster.start();
    cluster.for_each([](int id, AbcState& s) { s.abc->submit(bytes_of("m" + std::to_string(id))); });
    ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 4; },
                                      8000000));
    expect_identical_order(cluster);
    std::set<int> origins;
    for (const auto& [origin, payload] : cluster.protocol(0)->delivered) {
      if (payload == bytes_of("m" + std::to_string(victim))) origins.insert(origin);
    }
    EXPECT_FALSE(origins.empty()) << "the starved party's payload was never delivered";
  }
}

}  // namespace
}  // namespace sintra::protocols
