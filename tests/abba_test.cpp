// ABBA tests: the three Byzantine-agreement properties (validity,
// agreement, termination) across system sizes, corruption patterns,
// schedulers and seeds, plus round-count behaviour (expected constant).
#include <gtest/gtest.h>

#include "adversary/examples.hpp"
#include "protocols/abba.hpp"
#include "protocols/harness.hpp"

namespace sintra::protocols {
namespace {

using crypto::PartySet;
using crypto::party_bit;

struct AbbaState {
  std::unique_ptr<Abba> abba;
  std::optional<bool> decision;
  int round = 0;
};

Cluster<AbbaState> make_cluster(adversary::Deployment deployment, net::Scheduler& sched,
                                PartySet corrupted = 0, std::uint64_t seed = 1) {
  return Cluster<AbbaState>(
      std::move(deployment), sched,
      [](net::Party& party, int) {
        auto state = std::make_unique<AbbaState>();
        state->abba = std::make_unique<Abba>(party, "ba/0",
                                             [s = state.get()](bool v, int r) {
                                               s->decision = v;
                                               s->round = r;
                                             });
        return state;
      },
      corrupted, 0, seed);
}

/// Runs one agreement to completion; returns the common decision.
/// Fails the test on disagreement or non-termination.
std::optional<bool> run_agreement(Cluster<AbbaState>& cluster, const std::vector<int>& inputs,
                                  std::uint64_t max_steps = 3000000) {
  cluster.start();
  cluster.for_each([&](int id, AbbaState& s) {
    s.abba->start(inputs[static_cast<std::size_t>(id)] == 1);
  });
  if (!cluster.run_until_all([](AbbaState& s) { return s.decision.has_value(); }, max_steps)) {
    ADD_FAILURE() << "agreement did not terminate";
    return std::nullopt;
  }
  std::optional<bool> common;
  cluster.for_each([&](int, AbbaState& s) {
    if (!common.has_value()) common = s.decision;
    EXPECT_EQ(*s.decision, *common) << "agreement violated";
  });
  return common;
}

TEST(AbbaTest, ValidityUnanimousInputs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (int value : {0, 1}) {
      Rng rng(seed);
      auto deployment = adversary::Deployment::threshold(4, 1, rng);
      net::RandomScheduler sched(seed * 3 + static_cast<std::uint64_t>(value));
      auto cluster = make_cluster(deployment, sched, 0, seed);
      auto decision = run_agreement(cluster, std::vector<int>(4, value));
      ASSERT_TRUE(decision.has_value());
      EXPECT_EQ(*decision, value == 1) << "validity violated at seed " << seed;
      // Unanimity decides in the first round whose constant coin matches:
      // round 1 for 1, round 2 for 0, with no threshold coin.
      cluster.for_each([&](int, AbbaState& s) { EXPECT_LE(s.round, value == 1 ? 1 : 2); });
    }
  }
}

TEST(AbbaTest, ValidityWithCrashedParties) {
  // All *honest* parties propose 1 while t parties crash: must decide 1.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(7, 2, rng);
    net::RandomScheduler sched(seed);
    auto cluster = make_cluster(deployment, sched, party_bit(0) | party_bit(6), seed);
    auto decision = run_agreement(cluster, std::vector<int>(7, 1));
    ASSERT_TRUE(decision.has_value());
    EXPECT_TRUE(*decision);
  }
}

TEST(AbbaTest, MixedInputsTerminateAndAgree) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 17);
    auto cluster = make_cluster(deployment, sched, 0, seed);
    auto decision = run_agreement(cluster, {0, 1, 1, 0});
    EXPECT_TRUE(decision.has_value());
  }
}

class AbbaSizeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AbbaSizeTest, MixedInputsWithMaxCrashes) {
  auto [n, t] = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(n, t, rng);
    net::RandomScheduler sched(seed * 29);
    PartySet corrupted = 0;
    for (int i = 0; i < t; ++i) corrupted |= party_bit(i * 2);  // spread out
    auto cluster = make_cluster(deployment, sched, corrupted, seed);
    std::vector<int> inputs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) inputs[static_cast<std::size_t>(i)] = i % 2;
    EXPECT_TRUE(run_agreement(cluster, inputs).has_value()) << "n=" << n << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AbbaSizeTest,
                         ::testing::Values(std::make_pair(4, 1), std::make_pair(7, 2),
                                           std::make_pair(10, 3), std::make_pair(13, 4)));

TEST(AbbaTest, AdversarialSchedulers) {
  for (int which = 0; which < 3; ++which) {
    Rng rng(100 + static_cast<std::uint64_t>(which));
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    std::unique_ptr<net::Scheduler> sched;
    switch (which) {
      case 0: sched = std::make_unique<net::LifoScheduler>(7); break;
      case 1: sched = std::make_unique<net::StarvePartyScheduler>(7, 1); break;
      default: sched = std::make_unique<net::StarveSetScheduler>(7, 0b0011, 4); break;
    }
    auto cluster = make_cluster(deployment, *sched, 0, 50);
    EXPECT_TRUE(run_agreement(cluster, {1, 0, 0, 1}).has_value()) << "scheduler " << which;
  }
}

TEST(AbbaTest, RoundsStaySmall) {
  // Expected-constant-rounds: across seeds, the max decision round must be
  // small (the benchmark E2 measures the full distribution).
  int max_round = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 7);
    auto cluster = make_cluster(deployment, sched, 0, seed);
    auto decision = run_agreement(cluster, {0, 1, 0, 1});
    ASSERT_TRUE(decision.has_value());
    cluster.for_each([&](int, AbbaState& s) { max_round = std::max(max_round, s.round); });
  }
  EXPECT_LE(max_round, 6);
}

TEST(AbbaTest, CannotStartTwice) {
  Rng rng(1);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(1);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  cluster.protocol(0)->abba->start(true);
  EXPECT_THROW(cluster.protocol(0)->abba->start(false), ProtocolError);
}

/// Byzantine voter: in every round it hears of, it BVAL-broadcasts both
/// values and tells each honest party something different in AUX and CONF
/// (party `to` gets AUX(to mod 2) and a CONF set cycling {0}, {1}, {0, 1}),
/// trying to leave two honest parties with different singleton vals.
class EquivocatingVoter final : public net::Process {
 public:
  EquivocatingVoter(net::Simulator& sim, int id) : sim_(sim), id_(id) {}

  void on_start() override { equivocate(1); }
  void on_message(const net::Message& message) override {
    // Every ABBA message but DECIDE carries its round after the type byte.
    if (message.payload.size() < 5 || message.payload[0] == Abba::kDecide) return;
    Reader reader(message.payload);
    reader.u8();
    equivocate(static_cast<int>(reader.u32()));
  }

 private:
  void equivocate(int round) {
    if (round <= last_round_ || round > 30) return;  // once per round, bounded
    last_round_ = round;
    for (int to = 0; to < sim_.n(); ++to) {
      if (to == id_) continue;
      send(to, Abba::kBval, round, 0);
      send(to, Abba::kBval, round, 1);
      send(to, Abba::kAux, round, static_cast<std::uint8_t>(to % 2));
      send(to, Abba::kConf, round, static_cast<std::uint8_t>(1 + to % 3));
    }
  }
  void send(int to, std::uint8_t type, int round, std::uint8_t value) {
    Writer w;
    w.u8(type);
    w.u32(static_cast<std::uint32_t>(round));
    w.u8(value);
    net::Message m;
    m.from = id_;
    m.to = to;
    m.tag = "ba/0";
    m.payload = w.take();
    sim_.submit(std::move(m));
  }

  net::Simulator& sim_;
  int id_;
  int last_round_ = 0;
};

TEST(AbbaTest, EquivocatingVotesDoNotBreakAgreement) {
  // The corrupted party equivocates in BVAL, AUX and CONF in every round;
  // honest parties still agree and terminate, from split inputs and from
  // unanimous ones (where validity must hold as well).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const bool split : {true, false}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (split ? ", split" : ", unanimous"));
      Rng rng(seed);
      auto deployment = adversary::Deployment::threshold(4, 1, rng);
      net::RandomScheduler sched(seed * 31);
      auto cluster = make_cluster(deployment, sched, 0, seed);
      cluster.attach_custom(3, std::make_unique<EquivocatingVoter>(cluster.simulator(), 3));
      cluster.start();
      cluster.for_each([&](int id, AbbaState& s) { s.abba->start(!split || id % 2 == 0); });
      ASSERT_TRUE(cluster.run_until_all([](AbbaState& s) { return s.decision.has_value(); },
                                        3000000));
      std::optional<bool> common;
      cluster.for_each([&](int, AbbaState& s) {
        if (!common.has_value()) common = s.decision;
        EXPECT_EQ(*s.decision, *common);
      });
      if (!split) {
        EXPECT_TRUE(*common);
      }
    }
  }
}

TEST(AbbaTest, RestoredInstanceWaitsForItsStartBeforeVoting) {
  // Party 0 hears BVAL(1) from three peers and AUX(1) from two, then
  // BVAL(0) from three and AUX(0) from one, and only then starts: its CONF
  // is {0, 1}.  It crashes
  // and is rebuilt from its WAL; the application starts it again after the
  // replay.  Had the rebuilt instance counted as started during the
  // replay, its own replayed AUX would complete an AUX quorum early and
  // it would send a second, different CONF ({1}) for the same round.
  Rng rng(3);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler fifo;
  std::vector<net::Message> traffic;
  CapturingScheduler sched(fifo, traffic);
  auto factory = [](net::Party& party) {
    party.enable_wal();
    auto state = std::make_unique<AbbaState>();
    state->abba = std::make_unique<Abba>(party, "ba/0", [s = state.get()](bool v, int r) {
      s->decision = v;
      s->round = r;
    });
    return state;
  };
  Cluster<AbbaState> cluster(
      deployment, sched, [&](net::Party& party, int) { return factory(party); },
      party_bit(1) | party_bit(2) | party_bit(3), 0, 3);
  cluster.start();
  auto inject = [&](int from, std::uint8_t type, std::uint8_t value) {
    Writer w;
    w.u8(type);
    w.u32(1);
    w.u8(value);
    net::Message m;
    m.from = from;
    m.to = 0;
    m.tag = "ba/0";
    m.payload = w.take();
    cluster.simulator().submit(std::move(m));
  };
  for (int from : {1, 2, 3}) inject(from, Abba::kBval, 1);
  for (int from : {1, 2}) inject(from, Abba::kAux, 1);
  for (int from : {1, 2, 3}) inject(from, Abba::kBval, 0);
  inject(3, Abba::kAux, 0);
  cluster.simulator().run(1000);
  cluster.protocol(0)->abba->start(true);
  cluster.simulator().run(1000);

  HostedParty<AbbaState> rebuilt(cluster.simulator(), 0, deployment, 3 * 7919, factory);
  rebuilt.restore(cluster.party(0)->snapshot());
  rebuilt.protocol().abba->start(true);
  cluster.simulator().run(1000);

  std::set<std::uint8_t> confs;
  for (const net::Message& m : traffic) {
    if (m.from != 0 || m.to != 1 || m.payload[0] != Abba::kConf) continue;
    confs.insert(m.payload.back());
  }
  EXPECT_EQ(confs, (std::set<std::uint8_t>{3})) << "party 0 sent conflicting CONFs in round 1";
}

TEST(AbbaTest, GeneralAdversaryStructureExample1) {
  // Full ABBA over the paper's Example 1 structure with the whole of
  // class a (four servers!) crashed — more than any threshold could take.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::example1_deployment(rng);
    net::RandomScheduler sched(seed * 41);
    PartySet class_a = party_bit(0) | party_bit(1) | party_bit(2) | party_bit(3);
    auto cluster = make_cluster(deployment, sched, class_a, seed);
    std::vector<int> inputs = {0, 0, 0, 0, 1, 1, 1, 1, 1};  // honest all 1
    auto decision = run_agreement(cluster, inputs);
    ASSERT_TRUE(decision.has_value());
    EXPECT_TRUE(*decision);  // validity among honest parties
  }
}

}  // namespace
}  // namespace sintra::protocols
