// Baseline protocol tests (Figure 1 comparisons): the CL99-style
// deterministic protocol works in benign runs but loses liveness under a
// leader-starving scheduler; the reliable-broadcast-only system delivers
// everything but diverges in order.
#include <gtest/gtest.h>

#include "protocols/baselines/pbft_like.hpp"
#include "protocols/baselines/reliable_only.hpp"
#include "protocols/harness.hpp"

namespace sintra::protocols {
namespace {

struct PbftState {
  std::unique_ptr<PbftLikeBroadcast> pbft;
  std::vector<Bytes> delivered;
};

Cluster<PbftState> make_pbft(adversary::Deployment deployment, net::Scheduler& sched,
                             crypto::PartySet corrupted = 0) {
  return Cluster<PbftState>(
      std::move(deployment), sched,
      [](net::Party& party, int) {
        auto state = std::make_unique<PbftState>();
        state->pbft = std::make_unique<PbftLikeBroadcast>(
            party, "pbft", [s = state.get()](Bytes p) { s->delivered.push_back(std::move(p)); });
        return state;
      },
      corrupted);
}

TEST(PbftBaselineTest, BenignRunDeliversInOrder) {
  Rng rng(1);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(2);
  auto cluster = make_pbft(deployment, sched);
  cluster.start();
  cluster.protocol(1)->pbft->submit(bytes_of("a"));
  cluster.protocol(2)->pbft->submit(bytes_of("b"));
  ASSERT_TRUE(cluster.run_until_all([](PbftState& s) { return s.delivered.size() >= 2; },
                                    100000));
  auto& reference = cluster.protocol(0)->delivered;
  cluster.for_each([&](int, PbftState& s) { EXPECT_EQ(s.delivered, reference); });
}

TEST(PbftBaselineTest, CheaperThanRandomizedStackWhenBenign) {
  // CL99's selling point, reproduced: far fewer messages than the
  // randomized stack for the same workload (measured fully in bench F1).
  Rng rng(3);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(3);
  auto cluster = make_pbft(deployment, sched);
  cluster.start();
  cluster.protocol(0)->pbft->submit(bytes_of("x"));
  ASSERT_TRUE(cluster.run_until_all([](PbftState& s) { return s.delivered.size() >= 1; },
                                    100000));
  EXPECT_LT(cluster.simulator().total_messages(), 60u);
}

TEST(PbftBaselineTest, LeaderStarvationBlocksProgress) {
  // The adversarial scheduler withholds all leader traffic: nothing is
  // delivered even after a long run — the liveness failure the paper
  // predicts for deterministic FD-based protocols.
  Rng rng(4);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::BlockPartyScheduler sched(4, /*victim=*/0);  // leader of view 0
  auto cluster = make_pbft(deployment, sched);
  cluster.start();
  cluster.protocol(1)->pbft->submit(bytes_of("stuck"));
  cluster.protocol(2)->pbft->submit(bytes_of("stuck2"));
  cluster.simulator().run(30000);
  cluster.for_each([](int id, PbftState& s) {
    if (id != 0) {
      EXPECT_TRUE(s.delivered.empty()) << "party " << id;
    }
  });
}

TEST(PbftBaselineTest, ViewChangeRotatesLeaderAndRecovers) {
  // With a *crashed* leader and a working failure detector, the view
  // change recovers liveness (the benign-FD case).
  Rng rng(5);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(5);
  auto cluster = make_pbft(deployment, sched, crypto::party_bit(0));  // leader crashed
  cluster.start();
  cluster.protocol(1)->pbft->submit(bytes_of("needs view change"));
  cluster.simulator().run(5000);
  // Failure detector fires at the honest parties.
  cluster.for_each([](int, PbftState& s) { s.pbft->on_timeout(); });
  ASSERT_TRUE(cluster.run_until_all([](PbftState& s) { return s.delivered.size() >= 1; },
                                    300000));
  cluster.for_each([](int, PbftState& s) { EXPECT_EQ(s.pbft->view(), 1); });
}

TEST(PbftBaselineTest, AdaptiveStarvationDefeatsViewChanges) {
  // The paper's core argument (§2.2): an adversary that starves whichever
  // party is *currently* leader defeats the failure-detector approach —
  // views keep changing, nothing is ever delivered.
  Rng rng(6);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  // The scheduler reads the current victim adaptively from the harness.
  int current_leader = 0;
  net::BlockPartyScheduler sched(6, [&current_leader](std::uint64_t) {
    return current_leader;
  });
  auto cluster = make_pbft(deployment, sched);
  cluster.start();
  cluster.protocol(1)->pbft->submit(bytes_of("never"));
  // The adversary observes the protocol and retargets instantly: after
  // every delivery it blocks whichever view any party has advanced to.
  int timeouts_fired = 0;
  for (std::uint64_t step = 0; step < 60000; ++step) {
    if (!cluster.simulator().step()) {
      // Only blocked traffic remains: the failure detector fires.
      if (++timeouts_fired > 8) break;
      cluster.for_each([](int, PbftState& s) { s.pbft->on_timeout(); });
      continue;
    }
    int max_view = 0;
    cluster.for_each([&](int, PbftState& s) { max_view = std::max(max_view, s.pbft->view()); });
    current_leader = max_view % 4;
  }
  cluster.for_each([](int, PbftState& s) { EXPECT_TRUE(s.delivered.empty()); });
}

TEST(PbftBaselineTest, CrashedLeaderAutoViewChangeViaTimerWheel) {
  // Same recovery as ViewChangeRotatesLeaderAndRecovers, but nobody calls
  // on_timeout() by hand: the failure detector is armed on the Network
  // timer interface, and the simulator fires it when the crashed leader's
  // silence quiesces the network.  Each honest party with an outstanding
  // request suspects independently; the view change still needs a quorum
  // of suspicions, exactly as with a wall-clock timeout in deployment.
  Rng rng(8);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(8);
  auto cluster = make_pbft(deployment, sched, crypto::party_bit(0));  // leader crashed
  cluster.start();
  cluster.for_each([](int, PbftState& s) { s.pbft->enable_failure_detector(50); });
  cluster.for_each([](int id, PbftState& s) {
    s.pbft->submit(bytes_of("r" + std::to_string(id)));
  });
  ASSERT_TRUE(cluster.run_until_all([](PbftState& s) { return s.delivered.size() >= 3; },
                                    500000));
  auto& reference = cluster.protocol(1)->delivered;
  cluster.for_each([&](int, PbftState& s) {
    EXPECT_GE(s.pbft->view(), 1);  // the automatic view change happened
    EXPECT_EQ(s.delivered, reference);
    // Issue-8 regression: delivery resets the CL99 timeout growth
    // immediately.  Before, the exponent stayed inflated until the next
    // (inflated) timer fired, so one historic view change left the
    // detector 2^k times slower at catching the *next* crashed leader.
    EXPECT_EQ(s.pbft->fd_backoff(), 0u)
        << "timeout growth must snap back at the delivery that proves progress";
  });
}

TEST(PbftBaselineTest, FailureDetectorIdlesWithoutPendingRequests) {
  // The armed detector must not keep the network alive (or force view
  // changes) when there is nothing outstanding — otherwise every idle
  // cluster would churn through views forever.
  Rng rng(9);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(9);
  auto cluster = make_pbft(deployment, sched);
  cluster.start();
  cluster.for_each([](int, PbftState& s) { s.pbft->enable_failure_detector(50); });
  cluster.protocol(1)->pbft->submit(bytes_of("served"));
  ASSERT_TRUE(cluster.run_until_all([](PbftState& s) { return s.delivered.size() >= 1; },
                                    100000));
  // Drain: detectors fire once more, find nothing pending, and disarm.
  cluster.simulator().run(30000);
  cluster.for_each([](int, PbftState& s) { EXPECT_EQ(s.pbft->view(), 0); });
}

// ---- reliable-only --------------------------------------------------------

struct RoState {
  std::unique_ptr<ReliableOnlyBroadcast> ro;
  std::vector<std::pair<int, Bytes>> delivered;
};

Cluster<RoState> make_ro(adversary::Deployment deployment, net::Scheduler& sched) {
  return Cluster<RoState>(
      std::move(deployment), sched,
      [](net::Party& party, int) {
        auto state = std::make_unique<RoState>();
        state->ro = std::make_unique<ReliableOnlyBroadcast>(
            party, "ro", [s = state.get()](int origin, Bytes p) {
              s->delivered.emplace_back(origin, std::move(p));
            });
        return state;
      });
}

TEST(ReliableOnlyTest, AllMessagesDeliveredEverywhere) {
  Rng rng(7);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(7);
  auto cluster = make_ro(deployment, sched);
  cluster.start();
  cluster.for_each([](int id, RoState& s) {
    s.ro->submit(bytes_of("m" + std::to_string(id)));
    s.ro->submit(bytes_of("n" + std::to_string(id)));
  });
  ASSERT_TRUE(cluster.run_until_all([](RoState& s) { return s.delivered.size() >= 8; },
                                    1000000));
  // Set agreement: same multiset everywhere.
  auto as_set = [](const std::vector<std::pair<int, Bytes>>& v) {
    std::multiset<Bytes> out;
    for (const auto& [o, p] : v) out.insert(p);
    return out;
  };
  auto reference = as_set(cluster.protocol(0)->delivered);
  cluster.for_each([&](int, RoState& s) { EXPECT_EQ(as_set(s.delivered), reference); });
}

TEST(ReliableOnlyTest, OrderDivergesUnderConcurrency) {
  // The defining deficiency vs. atomic broadcast: under concurrent senders
  // and adversarial reordering, local delivery orders differ between
  // parties for at least one seed — replicated state would fork.
  bool diverged = false;
  for (std::uint64_t seed = 1; seed <= 10 && !diverged; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 31);
    auto cluster = make_ro(deployment, sched);
    cluster.start();
    cluster.for_each([](int id, RoState& s) {
      for (int k = 0; k < 3; ++k) {
        s.ro->submit(bytes_of("p" + std::to_string(id) + "-" + std::to_string(k)));
      }
    });
    if (!cluster.run_until_all([](RoState& s) { return s.delivered.size() >= 12; }, 1000000)) {
      continue;
    }
    auto& reference = cluster.protocol(0)->delivered;
    cluster.for_each([&](int, RoState& s) {
      if (s.delivered != reference) diverged = true;
    });
  }
  EXPECT_TRUE(diverged) << "expected at least one divergent order across seeds";
}

}  // namespace
}  // namespace sintra::protocols
