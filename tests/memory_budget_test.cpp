// Byzantine resource-exhaustion attack suite (issue 4's proof obligation):
// a corrupted party sprays protocol-shaped traffic at every buffering path
// in the stack — far-future ABBA rounds, validly signed future atomic-
// broadcast batches, future PBFT views, never-registered instance tags,
// runaway client requests — and each test asserts the same three things:
//
//   1. the protocol still completes its job for the correct parties
//      (agreement / total order / receipts are unharmed);
//   2. every correct party's buffered bytes stayed under its configured
//      ResourceBudget cap (peak_total never exceeded the cap);
//   3. the attack actually hit the governance (rejections or evictions
//      were recorded — otherwise the test would be vacuous).
//
// The budget caps here are deliberately tiny compared to the flood volume
// (a FlooderProcess sprays roughly a megabyte; the caps are tens of
// kilobytes) and comfortably above what honest traffic needs.
#include <gtest/gtest.h>

#include "app/ca.hpp"
#include "app/client.hpp"
#include "protocols/abba.hpp"
#include "protocols/atomic.hpp"
#include "protocols/baselines/pbft_like.hpp"
#include "protocols/broadcast.hpp"
#include "protocols/optimistic.hpp"
#include "protocols/harness.hpp"

namespace sintra::protocols {
namespace {

/// Tight caps the floods must slam into; generous for honest traffic
/// (honest buffered bytes here are at most a few hundred — only future
/// rounds/views and unhandled tags are ever charged).  total >= n *
/// per_peer so one peer's junk can never squeeze out honest charges.
net::BudgetConfig tight_budget() {
  net::BudgetConfig config;
  config.per_peer_cap = 4 << 10;
  config.per_instance_cap = 16 << 10;
  config.total_cap = 32 << 10;
  return config;
}

/// Asserts the party held its budget line under attack: the peak stayed
/// under every cap and the attacker's residual occupancy is within its
/// per-peer allowance.
void expect_governed(const net::Party& party, const net::BudgetConfig& config, int attacker) {
  EXPECT_LE(party.budget().peak_total(), config.total_cap);
  EXPECT_LE(party.budget().peer_total(attacker), config.per_peer_cap);
}

// ------------------------------------------------- ABBA round flooding --

struct AbbaState {
  std::unique_ptr<Abba> abba;
  std::vector<bool> decisions;
};

// The flooder sprays exactly ABBA's round-stamped wire types.
static_assert(net::FlooderProcess::kAbbaRoundTypes ==
              std::array<std::uint8_t, 4>{Abba::kBval, Abba::kAux, Abba::kConf,
                                          Abba::kCoinShare});

TEST(MemoryBudgetTest, AbbaFutureRoundFloodStaysBoundedAndDecides) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 101);
    const auto config = tight_budget();
    ChaosCluster<AbbaState> cluster(
        deployment, sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<AbbaState>();
          state->abba = std::make_unique<Abba>(
              party, "ba/0", [s = state.get()](bool v, int) { s->decisions.push_back(v); });
          state->abba->start(id % 2 == 0);
          return state;
        },
        seed);
    cluster.set_custom(3, [&] {
      return std::make_unique<net::FlooderProcess>(
          cluster.simulator(), 3, deployment, seed * 17,
          net::FlooderProcess::Profile::kAbbaRounds, "ba/0");
    });
    cluster.set_budget(config);
    cluster.start();
    ASSERT_TRUE(
        cluster.run_until_all([](AbbaState& s) { return !s.decisions.empty(); }, 3000000))
        << "flood broke termination";
    // Deciding is not halting: an instance frees its rounds once a quorum
    // of DECIDEs is in, so let those land before looking at the GC.
    ASSERT_TRUE(
        cluster.run_until_all([](AbbaState& s) { return s.abba->live_rounds() == 0; }, 3000000))
        << "a decided instance never halted";
    std::optional<bool> common;
    std::uint64_t governance_hits = 0;
    cluster.for_each([&](int id, AbbaState& s) {
      ASSERT_EQ(s.decisions.size(), 1u);
      if (!common.has_value()) common = s.decisions[0];
      EXPECT_EQ(s.decisions[0], *common) << "agreement violated at party " << id;
      // Instance GC on halt: round tallies and parked future-round junk
      // are gone, and their budget charges with them.
      EXPECT_EQ(s.abba->deferred_count(), 0u);
      const net::Party* party = cluster.party(id);
      ASSERT_NE(party, nullptr);
      expect_governed(*party, config, /*attacker=*/3);
      EXPECT_EQ(party->budget().instance_total("ba/0"), 0u)
          << "decided instance still holds charges at party " << id;
      governance_hits += party->budget().rejected() + party->budget().evictions();
    });
    EXPECT_GT(governance_hits, 0u) << "flood never hit the budget: vacuous run";
  }
}

// ------------------------------------- signed future-batch abc flooding --

struct AbcState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::vector<std::pair<int, Bytes>> delivered;
};

TEST(MemoryBudgetTest, AbcSignedFutureBatchFloodDeliversWorkloadInOrder) {
  // The issue's acceptance scenario: the flooder holds a dealt key share,
  // so its future-round batches pass signature verification and occupy
  // round buffers legitimately — only the budget bounds them.  The correct
  // clients' full workload must still be delivered, in one total order.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 101);
    const auto config = tight_budget();
    ChaosCluster<AbcState> cluster(
        deployment, sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<AbcState>();
          state->abc = std::make_unique<AtomicBroadcast>(
              party, "abc", [s = state.get()](int origin, Bytes payload) {
                s->delivered.emplace_back(origin, std::move(payload));
              });
          if (id != 3) {
            state->abc->submit(bytes_of("w" + std::to_string(id) + "-a"));
            state->abc->submit(bytes_of("w" + std::to_string(id) + "-b"));
          }
          return state;
        },
        seed);
    cluster.set_custom(3, [&] {
      return std::make_unique<net::FlooderProcess>(
          cluster.simulator(), 3, deployment, seed * 17,
          net::FlooderProcess::Profile::kAbcRounds, "abc");
    });
    cluster.set_budget(config);
    cluster.start();
    auto honest_count = [](AbcState& s) {
      std::size_t count = 0;
      for (const auto& [origin, payload] : s.delivered) {
        if (origin != 3) ++count;
      }
      return count;
    };
    ASSERT_TRUE(cluster.run_until_all(
        [&](AbcState& s) { return honest_count(s) >= 6; }, 8000000))
        << "flood starved the correct clients' workload";
    const std::vector<std::pair<int, Bytes>>* reference = nullptr;
    std::uint64_t governance_hits = 0;
    cluster.for_each([&](int id, AbcState& s) {
      if (reference == nullptr) reference = &s.delivered;
      const std::size_t common = std::min(reference->size(), s.delivered.size());
      for (std::size_t i = 0; i < common; ++i) {
        EXPECT_EQ(s.delivered[i], (*reference)[i])
            << "total order violated at index " << i << ", party " << id;
      }
      const net::Party* party = cluster.party(id);
      ASSERT_NE(party, nullptr);
      expect_governed(*party, config, /*attacker=*/3);
      governance_hits += party->budget().rejected() + party->budget().evictions();
    });
    EXPECT_GT(governance_hits, 0u) << "flood never hit the budget: vacuous run";
  }
}

// --------------------------------------------- PBFT future-view flooding --

struct PbftState {
  std::unique_ptr<PbftLikeBroadcast> pbft;
  std::vector<Bytes> delivered;
};

TEST(MemoryBudgetTest, PbftFutureViewFloodStaysBoundedAndDelivers) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 101);
    const auto config = tight_budget();
    ChaosCluster<PbftState> cluster(
        deployment, sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<PbftState>();
          state->pbft = std::make_unique<PbftLikeBroadcast>(
              party, "pbft",
              [s = state.get()](Bytes p) { s->delivered.push_back(std::move(p)); });
          if (id != 3) state->pbft->submit(bytes_of("req" + std::to_string(id)));
          return state;
        },
        seed);
    cluster.set_custom(3, [&] {
      return std::make_unique<net::FlooderProcess>(
          cluster.simulator(), 3, deployment, seed * 17,
          net::FlooderProcess::Profile::kPbftViews, "pbft");
    });
    cluster.set_budget(config);
    cluster.start();
    ASSERT_TRUE(cluster.run_until_all(
        [](PbftState& s) { return s.delivered.size() >= 3; }, 2000000))
        << "flood broke pbft liveness";
    const std::vector<Bytes>* reference = nullptr;
    std::uint64_t governance_hits = 0;
    cluster.for_each([&](int id, PbftState& s) {
      if (reference == nullptr) reference = &s.delivered;
      ASSERT_GE(s.delivered.size(), 3u);
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(s.delivered[i], (*reference)[i]) << "order diverged at party " << id;
      }
      const net::Party* party = cluster.party(id);
      ASSERT_NE(party, nullptr);
      expect_governed(*party, config, /*attacker=*/3);
      governance_hits += party->budget().rejected() + party->budget().evictions();
    });
    EXPECT_GT(governance_hits, 0u) << "flood never hit the budget: vacuous run";
  }
}

TEST(MemoryBudgetTest, PbftStalledLeaderRecoveredByAutomaticViewChange) {
  // Acceptance criterion: the view-0 leader goes silent; the failure
  // detector drives an automatic view change and the workload is delivered
  // under the new leader — with the resource budget installed throughout.
  Rng rng(7);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(7 * 101);
  const auto config = tight_budget();
  ChaosCluster<PbftState> cluster(
      deployment, sched,
      [](net::Party& party, int id) {
        auto state = std::make_unique<PbftState>();
        state->pbft = std::make_unique<PbftLikeBroadcast>(
            party, "pbft",
            [s = state.get()](Bytes p) { s->delivered.push_back(std::move(p)); });
        state->pbft->enable_failure_detector(50);
        state->pbft->submit(bytes_of("req" + std::to_string(id)));
        return state;
      },
      7);
  cluster.set_custom(0, [] { return std::make_unique<net::CrashProcess>(); });
  cluster.set_budget(config);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all(
      [](PbftState& s) { return s.delivered.size() >= 3; }, 500000))
      << "view change never recovered the stalled leader";
  cluster.for_each([&](int id, PbftState& s) {
    EXPECT_GE(s.pbft->view(), 1) << "party " << id << " never left the dead leader's view";
    const net::Party* party = cluster.party(id);
    ASSERT_NE(party, nullptr);
    EXPECT_LE(party->budget().peak_total(), config.total_cap);
  });
}

// --------------------------------------------------- bogus-tag flooding --

struct RbcState {
  std::unique_ptr<ReliableBroadcast> rbc;
  std::vector<Bytes> delivered;
};

TEST(MemoryBudgetTest, BogusInstanceTagFloodBoundsThePartyBuffer) {
  // Traffic for instance tags nobody will ever register lands in the
  // Party's unhandled-traffic buffer — the layer below every protocol.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 101);
    const auto config = tight_budget();
    ChaosCluster<RbcState> cluster(
        deployment, sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<RbcState>();
          state->rbc = std::make_unique<ReliableBroadcast>(
              party, "rbc/0", /*sender=*/0,
              [s = state.get()](Bytes m) { s->delivered.push_back(std::move(m)); });
          if (id == 0) state->rbc->start(bytes_of("payload-under-attack"));
          return state;
        },
        seed);
    cluster.set_custom(3, [&] {
      return std::make_unique<net::FlooderProcess>(
          cluster.simulator(), 3, deployment, seed * 17,
          net::FlooderProcess::Profile::kBogusTags, "rbc");
    });
    cluster.set_budget(config);
    cluster.start();
    ASSERT_TRUE(
        cluster.run_until_all([](RbcState& s) { return !s.delivered.empty(); }, 1000000));
    std::uint64_t governance_hits = 0;
    cluster.for_each([&](int id, RbcState& s) {
      ASSERT_EQ(s.delivered.size(), 1u);
      EXPECT_EQ(s.delivered[0], bytes_of("payload-under-attack"));
      const net::Party* party = cluster.party(id);
      ASSERT_NE(party, nullptr);
      expect_governed(*party, config, /*attacker=*/3);
      governance_hits += party->budget().rejected() + party->budget().evictions();
    });
    EXPECT_GT(governance_hits, 0u) << "flood never hit the budget: vacuous run";
  }
}

// ------------------------------------------- optimistic slot flooding --

struct OptState {
  std::unique_ptr<OptimisticBroadcast> opt;
  std::vector<Bytes> delivered;
};

/// Party 3 sprays one optimistic message type at parties 0..2 for slots
/// 1000, 1001, ...: ACKs (any party may send them) or, as a Byzantine
/// sequencer, far-future ASSIGNs with a 256-byte payload.
class OptSlotFlooder final : public net::Process {
 public:
  OptSlotFlooder(net::Simulator& sim, std::uint8_t type) : sim_(sim), type_(type) {}
  void on_start() override {
    for (std::uint64_t seq = 1000; seq < 1500; ++seq) {
      Writer w;
      w.u8(type_);
      w.u64(seq);
      if (type_ == 0) w.bytes(Bytes(256, 0xab));  // kAssign
      for (int to = 0; to < 3; ++to) {
        net::Message m;
        m.from = 3;
        m.to = to;
        m.tag = "opt";
        m.payload = w.data();
        sim_.submit(std::move(m));
      }
    }
  }
  void on_message(const net::Message&) override {}

 private:
  net::Simulator& sim_;
  std::uint8_t type_;
};

TEST(MemoryBudgetTest, OptimisticAckAndAssignFloodsStayBoundedAndDeliver) {
  // Optimistic broadcast buffers a slot for every ACK beyond its commit
  // cursor and every out-of-order ASSIGN.  An ACK flood from a peer must
  // not stop the fast path; a far-future ASSIGN flood from a Byzantine
  // sequencer stalls it, and the switch delivers instead.
  constexpr std::uint8_t kAssign = 0;
  constexpr std::uint8_t kAck = 3;
  for (const std::uint8_t type : {kAck, kAssign}) {
    SCOPED_TRACE(type == kAck ? "ack flood" : "assign flood");
    const int sequencer = type == kAck ? 0 : 3;
    Rng rng(5);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(505);
    const auto config = tight_budget();
    ChaosCluster<OptState> cluster(
        deployment, sched,
        [sequencer](net::Party& party, int id) {
          auto state = std::make_unique<OptState>();
          state->opt = std::make_unique<OptimisticBroadcast>(
              party, "opt", sequencer,
              [s = state.get()](Bytes payload) { s->delivered.push_back(std::move(payload)); });
          state->opt->submit(bytes_of("w" + std::to_string(id)));
          return state;
        },
        5);
    cluster.set_custom(3, [&] { return std::make_unique<OptSlotFlooder>(cluster.simulator(), type); });
    cluster.set_budget(config);
    cluster.start();
    if (type == kAssign) {
      cluster.simulator().run(200000);
      cluster.for_each([](int, OptState& s) { EXPECT_TRUE(s.delivered.empty()); });
      cluster.protocol(0)->opt->switch_to_pessimistic();
    }
    ASSERT_TRUE(cluster.run_until_all([](OptState& s) { return s.delivered.size() >= 3; },
                                      20000000))
        << "flood starved the honest payloads";
    std::uint64_t governance_hits = 0;
    cluster.for_each([&](int id, OptState& s) {
      EXPECT_EQ(s.delivered, cluster.protocol(0)->delivered) << "party " << id;
      EXPECT_EQ(s.opt->pessimistic(), type == kAssign) << "party " << id;
      const net::Party* party = cluster.party(id);
      ASSERT_NE(party, nullptr);
      expect_governed(*party, config, /*attacker=*/3);
      governance_hits += party->budget().rejected();
    });
    EXPECT_GT(governance_hits, 0u) << "flood never hit the budget: vacuous run";
  }
}

// -------------------------------------------- WAL compaction under load --

TEST(MemoryBudgetTest, WalCompactionKeepsSnapshotsBoundedAcrossRestart) {
  // Sustained atomic-broadcast traffic with a crash-restarting party: the
  // WAL snapshot must not grow with delivered history (completed rounds
  // are checkpoint-compacted), and the restarted party must still agree.
  Rng rng(5);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(5 * 101);
  ChaosCluster<AbcState> cluster(
      deployment, sched,
      [](net::Party& party, int id) {
        auto state = std::make_unique<AbcState>();
        state->abc = std::make_unique<AtomicBroadcast>(
            party, "abc", [s = state.get()](int origin, Bytes payload) {
              s->delivered.emplace_back(origin, std::move(payload));
            });
        if (id == 0) state->abc->submit(Bytes(512, std::uint8_t(id)));
        return state;
      },
      5);
  cluster.set_restarting(1, /*crash_after=*/20, /*down_for=*/5);
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 1; },
                                    5000000));
  // Drive many more rounds of bulky payloads from the test body; snapshot
  // growth must stay far below the ~24 KiB of new payload bytes (each of
  // which crosses the wire in several batches and WAL entries).
  std::vector<std::size_t> before(4, 0);
  cluster.for_each([&](int id, AbcState&) {
    before[static_cast<std::size_t>(id)] = cluster.party(id)->snapshot().size();
  });
  for (int wave = 0; wave < 12; ++wave) {
    cluster.for_each([&](int id, AbcState& s) {
      if (id == 0 || id == 2) {
        s.abc->submit(Bytes(1024, std::uint8_t(wave * 4 + id)));
      }
    });
    const std::size_t target = 1 + static_cast<std::size_t>(wave + 1) * 2;
    ASSERT_TRUE(cluster.run_until_all(
        [&](AbcState& s) { return s.delivered.size() >= target; }, 5000000))
        << "wave " << wave << " stalled";
  }
  const std::vector<std::pair<int, Bytes>>* reference = nullptr;
  cluster.for_each([&](int id, AbcState& s) {
    ASSERT_GE(s.delivered.size(), 25u);
    if (reference == nullptr) reference = &s.delivered;
    const std::size_t common = std::min(reference->size(), s.delivered.size());
    for (std::size_t i = 0; i < common; ++i) {
      EXPECT_EQ(s.delivered[i], (*reference)[i]) << "order diverged at party " << id;
    }
    const std::size_t after = cluster.party(id)->snapshot().size();
    // ~24 KiB of payloads were agreed since the baseline.  The compacted
    // snapshot keeps the delivery log (one copy per payload, so the
    // application can be replayed into the same state) plus the retained
    // recent rounds — bounded by a small multiple of the payload bytes.
    // A non-compacting WAL would retain the raw traffic instead: every
    // batch broadcast n ways plus the VBA exchange, an order of magnitude
    // more.
    EXPECT_LT(after, before[static_cast<std::size_t>(id)] + 72000u)
        << "party " << id << " snapshot grew with history: " << before[id] << " -> " << after;
    // Entry-wise the WAL itself must not scale with delivered history:
    // checkpoints prune everything older than the retained rounds.
    EXPECT_LT(cluster.party(id)->wal().size(), 1500u)
        << "party " << id << " WAL holds " << cluster.party(id)->wal().size()
        << " messages: checkpoint pruning is not engaging";
  });
  EXPECT_GE(cluster.restarting(1)->restarts(), 1) << "party 1 never actually crashed";
}

// ------------------------------------------- lossy restart + watchdogs --

TEST(MemoryBudgetTest, LossyRestartRecoveredByStallWatchdog) {
  // Party 1 crashes and its downtime traffic is DROPPED (not stashed): it
  // genuinely missed those messages and only a liveness watchdog's state
  // resummary can complete its delivery.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 101);
    ChaosCluster<RbcState> cluster(
        deployment, sched,
        [](net::Party& party, int id) {
          auto state = std::make_unique<RbcState>();
          state->rbc = std::make_unique<ReliableBroadcast>(
              party, "rbc/0", /*sender=*/0,
              [s = state.get()](Bytes m) { s->delivered.push_back(std::move(m)); });
          state->rbc->enable_watchdog(300);
          if (id == 0) state->rbc->start(bytes_of("lossy-payload"));
          return state;
        },
        seed);
    cluster.set_restarting(1, /*crash_after=*/2, /*down_for=*/4, /*max_restarts=*/1,
                           /*lossy=*/true);
    cluster.start();
    ASSERT_TRUE(
        cluster.run_until_all([](RbcState& s) { return !s.delivered.empty(); }, 2000000))
        << "watchdog failed to recover the lossy restart";
    cluster.for_each([](int id, RbcState& s) {
      ASSERT_EQ(s.delivered.size(), 1u) << "party " << id;
      EXPECT_EQ(s.delivered[0], bytes_of("lossy-payload"));
    });
    EXPECT_GE(cluster.restarting(1)->restarts(), 1);
  }
}

}  // namespace
}  // namespace sintra::protocols

// ------------------------------------------- replica admission control --

namespace sintra::app {
namespace {

struct SvcState {
  std::unique_ptr<Replica> replica;
};

TEST(MemoryBudgetTest, AdmissionControlShedsLoadAndClientBacksOff) {
  // Replicas keep a single-request inflight window; a client firing four
  // concurrent requests must see explicit Busy replies, back off, retry,
  // and still obtain every receipt exactly once.
  Rng rng(3);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(3 * 101);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(
            party, "svc", Replica::Mode::kAtomic,
            std::make_unique<CertificationAuthority>());
        Admission admission;
        admission.max_inflight = 1;
        admission.max_per_client = 1;
        admission.retry_after = 40;
        state->replica->set_admission(admission);
        return state;
      },
      0, /*extra_endpoints=*/1, 3);
  std::map<std::uint64_t, ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<ServiceClient>(
      cluster.simulator(), /*net_id=*/4, deployment, "svc", Replica::Mode::kAtomic, 11,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  ServiceClient* client = client_owner.get();
  client->enable_retry(/*timeout=*/400, /*max_retries=*/8);
  cluster.attach_client(4, std::move(client_owner));
  cluster.start();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    CaRequest issue;
    issue.op = CaRequest::Op::kIssue;
    issue.subject = "user" + std::to_string(i);
    issue.credentials = "credential:user" + std::to_string(i);
    ids.push_back(client->request(issue.encode()));
  }
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.size() >= 4; }, 30000000))
      << "shed requests were never served on retry";
  std::set<std::uint64_t> serials;
  for (std::uint64_t id : ids) {
    serials.insert(CaResponse::decode(replies.at(id).reply).serial);
  }
  EXPECT_EQ(serials.size(), 4u) << "duplicate execution under retries";
  EXPECT_GT(client->busy_replies(), 0u) << "client never observed load shedding";
  std::uint64_t shed = 0;
  cluster.for_each([&](int, SvcState& s) {
    shed += s.replica->busy_sent();
    EXPECT_LE(s.replica->inflight(), 1u);
  });
  EXPECT_GT(shed, 0u) << "admission control never engaged";
}

TEST(MemoryBudgetTest, BusyReplyRotatesGatewayToIdleReplica) {
  // Issue-8 satellite: a gateway-pinned client that receives Busy from its
  // relay must rotate to the next replica and resend immediately, instead
  // of backing off against the one overloaded server.  Replica 0 sheds
  // every request (zero inflight window); the retry timer is set far
  // beyond the run so only the Busy-triggered rotation can complete the
  // request through replica 1.
  Rng rng(21);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(21 * 101);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [](net::Party& party, int id) {
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(
            party, "svc", Replica::Mode::kAtomic,
            std::make_unique<CertificationAuthority>());
        if (id == 0) {
          Admission admission;
          admission.max_inflight = 0;  // relay sheds everything
          state->replica->set_admission(admission);
        }
        return state;
      },
      0, /*extra_endpoints=*/1, 21);
  std::map<std::uint64_t, ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<ServiceClient>(
      cluster.simulator(), /*net_id=*/4, deployment, "svc", Replica::Mode::kAtomic, 13,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  ServiceClient* client = client_owner.get();
  client->enable_retry(/*timeout=*/5000000, /*max_retries=*/1);
  client->set_gateway(0);
  cluster.attach_client(4, std::move(client_owner));
  cluster.start();
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "rotating";
  issue.credentials = "credential:rotating";
  const std::uint64_t id = client->request(issue.encode());
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.contains(id); }, 3000000))
      << "Busy rotation never completed the request through another replica";
  EXPECT_GE(client->busy_replies(), 1u) << "the shedding relay never answered Busy";
  EXPECT_GE(client->busy_rotations(), 1u) << "client never rotated off the busy relay";
  EXPECT_NE(client->gateway(), 0) << "client still pinned to the shedding relay";
  EXPECT_GT(cluster.protocol(0)->replica->busy_sent(), 0u);
}

TEST(MemoryBudgetTest, RunawayClientCannotStarveHonestRequests) {
  // A runaway client (the kRequests flooder) sprays thousands of distinct
  // requests; admission caps hold the replicas' inflight state small and
  // the honest client's workload still completes.
  Rng rng(9);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(9 * 101);
  constexpr std::size_t kMaxInflight = 6;
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(
            party, "svc", Replica::Mode::kAtomic,
            std::make_unique<CertificationAuthority>());
        Admission admission;
        admission.max_inflight = kMaxInflight;
        admission.max_per_client = 2;
        admission.retry_after = 40;
        state->replica->set_admission(admission);
        return state;
      },
      0, /*extra_endpoints=*/2, 9);
  std::map<std::uint64_t, ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<ServiceClient>(
      cluster.simulator(), /*net_id=*/4, deployment, "svc", Replica::Mode::kAtomic, 13,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  ServiceClient* client = client_owner.get();
  client->enable_retry(/*timeout=*/600, /*max_retries=*/10);
  cluster.attach_client(4, std::move(client_owner));
  cluster.attach_client(5, std::make_unique<net::FlooderProcess>(
                               cluster.simulator(), 5, deployment, 9 * 17,
                               net::FlooderProcess::Profile::kRequests, "svc"));
  cluster.start();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    CaRequest issue;
    issue.op = CaRequest::Op::kIssue;
    issue.subject = "honest" + std::to_string(i);
    issue.credentials = "credential:honest" + std::to_string(i);
    ids.push_back(client->request(issue.encode()));
  }
  ASSERT_TRUE(cluster.simulator().run_until(
      [&] { return replies.size() >= ids.size(); }, 60000000))
      << "runaway client starved the honest workload";
  for (std::uint64_t id : ids) {
    EXPECT_EQ(CaResponse::decode(replies.at(id).reply).status, CaResponse::Status::kOk);
  }
  std::uint64_t shed = 0;
  cluster.for_each([&](int, SvcState& s) {
    shed += s.replica->busy_sent();
    EXPECT_LE(s.replica->inflight(), kMaxInflight);
  });
  EXPECT_GT(shed, 0u) << "the flood never tripped admission control";
}

}  // namespace
}  // namespace sintra::app
