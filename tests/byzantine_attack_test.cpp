// Active Byzantine attack tests: attackers that HOLD their dealt keys and
// misuse them — replaying shares across instances, forging certificates,
// injecting bogus shares — plus cross-instance domain-separation checks.
// These are the attacks the paper's robustness machinery (NIZK validity
// proofs, statement domain separation, quorum certificates) exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "adversary/examples.hpp"
#include "app/ca.hpp"
#include "app/client.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "protocols/abba.hpp"
#include "protocols/atomic.hpp"
#include "protocols/causal.hpp"
#include "protocols/consistent.hpp"
#include "protocols/harness.hpp"
#include "protocols/optimistic.hpp"
#include "protocols/vba.hpp"

namespace sintra {
namespace {

using crypto::BigInt;
using crypto::CoinShare;
using crypto::SigShare;

// ---- cross-instance replay (domain separation) ------------------------------

class ReplayTest : public ::testing::Test {
 protected:
  ReplayTest() : rng_(42), deployment_(adversary::Deployment::threshold(4, 1, rng_)) {}
  Rng rng_;
  adversary::Deployment deployment_;
};

TEST_F(ReplayTest, CoinShareBoundToName) {
  // A coin share for instance A replayed into instance B must not verify:
  // the Chaum–Pedersen proof covers the coin base H(name).
  const auto& pk = deployment_.keys->public_keys().coin;
  Bytes name_a = bytes_of("ba/instance-a/coin/1");
  Bytes name_b = bytes_of("ba/instance-b/coin/1");
  auto shares = deployment_.keys->share(0).coin.share(pk, name_a, rng_);
  ASSERT_FALSE(shares.empty());
  EXPECT_TRUE(pk.verify_share(name_a, shares[0]));
  EXPECT_FALSE(pk.verify_share(name_b, shares[0]));
}

TEST_F(ReplayTest, SigShareBoundToStatement) {
  const auto& pk = deployment_.keys->public_keys().cert_sig;
  Bytes stmt_a = bytes_of("abba pre r1 v1 instance-a");
  Bytes stmt_b = bytes_of("abba pre r1 v1 instance-b");
  auto shares = deployment_.keys->share(1).cert_sig.sign(pk, stmt_a, rng_);
  EXPECT_TRUE(pk.verify_share(stmt_a, shares[0]));
  EXPECT_FALSE(pk.verify_share(stmt_b, shares[0]));
}

TEST_F(ReplayTest, CombinedSignatureBoundToStatement) {
  const auto& pk = deployment_.keys->public_keys().cert_sig;
  Bytes stmt_a = bytes_of("statement a");
  std::vector<SigShare> shares;
  for (int p = 0; p < 3; ++p) {
    for (auto& s : deployment_.keys->share(p).cert_sig.sign(pk, stmt_a, rng_)) {
      shares.push_back(s);
    }
  }
  auto sig = pk.combine(stmt_a, shares);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(pk.verify(stmt_a, *sig));
  EXPECT_FALSE(pk.verify(bytes_of("statement b"), *sig));
}

TEST_F(ReplayTest, Tdh2ShareBoundToCiphertext) {
  const auto& pk = deployment_.keys->public_keys().encryption;
  auto ct_a = pk.encrypt(bytes_of("a"), bytes_of("l"), rng_);
  auto ct_b = pk.encrypt(bytes_of("b"), bytes_of("l"), rng_);
  auto shares = deployment_.keys->share(2).decryption.decrypt_shares(pk, ct_a, rng_);
  ASSERT_FALSE(shares.empty());
  EXPECT_TRUE(pk.verify_share(ct_a, shares[0]));
  EXPECT_FALSE(pk.verify_share(ct_b, shares[0]));
}

TEST_F(ReplayTest, SharesAcrossKeySchemesDoNotCrossVerify) {
  // cert_sig and reply_sig are different dealings of different access
  // structures; shares must not cross-verify even on the same statement.
  const auto& cert_pk = deployment_.keys->public_keys().cert_sig;
  const auto& reply_pk = deployment_.keys->public_keys().reply_sig;
  Bytes stmt = bytes_of("same statement");
  auto cert_shares = deployment_.keys->share(0).cert_sig.sign(cert_pk, stmt, rng_);
  EXPECT_FALSE(reply_pk.verify_share(stmt, cert_shares[0]));
}

TEST_F(ReplayTest, ShareFromOtherPartyNotAttributable) {
  // Unit-ownership checks: party 1's share claimed by party 0 is detected
  // because the unit index maps to its true owner.
  const auto& pk = deployment_.keys->public_keys().cert_sig;
  Bytes stmt = bytes_of("ownership");
  auto shares = deployment_.keys->share(1).cert_sig.sign(pk, stmt, rng_);
  EXPECT_EQ(pk.scheme().unit_owner(shares[0].unit), 1);  // not 0
}

/// Deliver `payload` on `tag` from `from` to every other party.
void inject_from(net::Simulator& sim, int n, int from, const std::string& tag,
                 const Bytes& payload) {
  for (int to = 0; to < n; ++to) {
    if (to == from) continue;
    net::Message m;
    m.from = from;
    m.to = to;
    m.tag = tag;
    m.payload = payload;
    sim.submit(std::move(m));
  }
}

/// Trace events at parties other than `except` that mention `text`.
std::size_t trace_count(const TraceLog& log, std::string_view text, int except = -1) {
  return static_cast<std::size_t>(
      std::count_if(log.events().begin(), log.events().end(), [&](const TraceEvent& e) {
        return e.party != except && e.message.find(text) != std::string::npos;
      }));
}

// ---- active ABBA attacker ----------------------------------------------------

/// One round-stamped ABBA message (BVAL, AUX or CONF), or a DECIDE.
Bytes abba_message(std::uint8_t type, int round, std::uint8_t value) {
  Writer w;
  w.u8(type);
  if (type != protocols::Abba::kDecide) w.u32(static_cast<std::uint32_t>(round));
  w.u8(value);
  return w.take();
}

/// Byzantine voter: sends its fixed `payloads` on "ba/0" to every other
/// party at start, then stays silent.
class ScriptedVoter final : public net::Process {
 public:
  ScriptedVoter(net::Simulator& sim, int id, std::vector<Bytes> payloads)
      : sim_(sim), id_(id), payloads_(std::move(payloads)) {}

  void on_start() override {
    for (const Bytes& payload : payloads_) {
      for (int to = 0; to < sim_.n(); ++to) {
        if (to == id_) continue;
        net::Message m;
        m.from = id_;
        m.to = to;
        m.tag = "ba/0";
        m.payload = payload;
        sim_.submit(std::move(m));
      }
    }
  }
  void on_message(const net::Message&) override {}

 private:
  net::Simulator& sim_;
  int id_;
  std::vector<Bytes> payloads_;
};

struct AbbaState {
  std::unique_ptr<protocols::Abba> abba;
  std::optional<bool> decision;
  int round = 0;
};

std::unique_ptr<AbbaState> make_abba_state(net::Party& party, int) {
  auto s = std::make_unique<AbbaState>();
  s->abba = std::make_unique<protocols::Abba>(party, "ba/0", [p = s.get()](bool v, int r) {
    p->decision = v;
    p->round = r;
  });
  return s;
}

TEST(AbbaAttackTest, FaultSetVotesCannotOverrideValidity) {
  // Every honest party proposes 1.  The attacker pushes 0 through every
  // phase of rounds 1-3 (BVAL, AUX, CONF) and announces DECIDE(0): a value
  // only a fault set sent never enters bin_values, so every honest vals is
  // {1} and 1 is decided in round 1.
  std::vector<Bytes> payloads;
  for (int round = 1; round <= 3; ++round) {
    payloads.push_back(abba_message(protocols::Abba::kBval, round, 0));
    payloads.push_back(abba_message(protocols::Abba::kAux, round, 0));
    payloads.push_back(abba_message(protocols::Abba::kConf, round, 1));  // {0}
  }
  payloads.push_back(abba_message(protocols::Abba::kDecide, 0, 0));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 5);
    protocols::Cluster<AbbaState> cluster(deployment, sched, make_abba_state, 0, 0, seed);
    cluster.attach_custom(3, std::make_unique<ScriptedVoter>(cluster.simulator(), 3, payloads));
    cluster.start();
    cluster.for_each([](int, AbbaState& s) { s.abba->start(true); });
    ASSERT_TRUE(cluster.run_until_all([](AbbaState& s) { return s.decision.has_value(); },
                                      3000000))
        << "seed " << seed;
    cluster.for_each([&](int id, AbbaState& s) {
      EXPECT_TRUE(*s.decision) << "validity violated under fault-set voter, seed " << seed;
      EXPECT_EQ(s.round, 1) << "party " << id << ", seed " << seed;
    });
  }
}

TEST(AbbaAttackTest, DecideFromOnlyAFaultSetDecidesNothing) {
  // n = 7, t = 2: both corrupted parties announce DECIDE(0) before any
  // honest traffic moves (FIFO), while all five honest parties propose 1.
  // Two DECIDEs are a whole fault set, not more: nobody adopts 0, and the
  // honest parties decide 1.
  Rng rng(13);
  auto deployment = adversary::Deployment::threshold(7, 2, rng);
  net::FifoScheduler sched;
  protocols::Cluster<AbbaState> cluster(deployment, sched, make_abba_state, 0, 0, 13);
  for (int attacker : {5, 6}) {
    cluster.attach_custom(
        attacker, std::make_unique<ScriptedVoter>(
                      cluster.simulator(), attacker,
                      std::vector<Bytes>{abba_message(protocols::Abba::kDecide, 0, 0)}));
  }
  cluster.start();
  cluster.for_each([](int, AbbaState& s) { s.abba->start(true); });
  ASSERT_TRUE(cluster.run_until_all(
      [](AbbaState& s) { return s.decision.has_value(); }, 3000000));
  cluster.for_each([](int id, AbbaState& s) {
    EXPECT_TRUE(*s.decision) << "party " << id << " adopted a fault set's DECIDE";
  });
}

TEST(AbbaAttackTest, ParkedBvalsForBothValuesAreBothReplayed) {
  // An honest party that echoes the value it does not hold sends BVAL(r, 0)
  // and BVAL(r, 1) in one round, so a party two rounds behind must park
  // both.  Party 3's round-3 BVALs for both values reach the others before
  // they start (FIFO); each parks two messages.  Unanimous 0 is not decided
  // in round 1, so every party enters round 2, which brings round 3 into
  // range: both parked messages are replayed and accepted before the
  // instance halts.
  Rng rng(17);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  TraceLog log;
  log.set_enabled(true);
  protocols::Cluster<AbbaState> cluster(deployment, sched, make_abba_state,
                                        crypto::party_bit(3), 0, 17, &log);
  cluster.start();
  for (std::uint8_t value : {0, 1}) {
    inject_from(cluster.simulator(), 4, 3, "ba/0",
                abba_message(protocols::Abba::kBval, 3, value));
  }
  cluster.simulator().run(100);  // only party 3's BVALs are in flight
  cluster.for_each([](int id, AbbaState& s) {
    EXPECT_EQ(s.abba->deferred_count(), 2u) << "party " << id;
  });
  cluster.for_each([](int, AbbaState& s) { s.abba->start(false); });
  ASSERT_TRUE(cluster.run_until_all([](AbbaState& s) { return s.abba->deferred_count() == 0; },
                                    3000000));
  cluster.for_each([](int id, AbbaState& s) {
    EXPECT_EQ(s.abba->live_rounds(), 3u) << "party " << id << " halted, not replayed";
  });
  EXPECT_EQ(trace_count(log, "dropped parked message"), 0u);
  ASSERT_TRUE(cluster.run_until_all([](AbbaState& s) { return s.decision.has_value(); },
                                    3000000));
  cluster.for_each([](int id, AbbaState& s) {
    EXPECT_FALSE(*s.decision) << "party " << id;
    EXPECT_EQ(s.round, 2) << "party " << id;
  });
}

/// Mirrors every ABBA message it receives on instance A into instance B.
class CrossInstanceReplayer final : public net::Process {
 public:
  explicit CrossInstanceReplayer(net::Simulator& sim, int id) : sim_(sim), id_(id) {}
  void on_message(const net::Message& message) override {
    // Capture traffic for instance A and mirror it into instance B.
    if (message.tag != "ba/A") return;
    net::Message replay = message;
    replay.from = id_;
    replay.tag = "ba/B";
    for (int to = 0; to < sim_.n(); ++to) {
      if (to == id_) continue;
      replay.to = to;
      net::Message copy = replay;
      sim_.submit(std::move(copy));
    }
  }

 private:
  net::Simulator& sim_;
  int id_;
};

struct TwoAbbaState {
  std::unique_ptr<protocols::Abba> a;
  std::unique_ptr<protocols::Abba> b;
  std::optional<bool> decision_a;
  std::optional<bool> decision_b;
};

TEST(AbbaAttackTest, CrossInstanceReplayCannotFlipOutcome) {
  // Instance A decides 1 (all honest input 1); instance B has all honest
  // input 0.  The attacker mirrors A's traffic into B.  The links
  // authenticate the sender, so every mirrored vote and DECIDE counts as
  // the attacker's own (one fault set), and a mirrored coin share holds
  // other parties' units and is refused: B must still decide 0.
  Rng rng(9);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(9);
  protocols::Cluster<TwoAbbaState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<TwoAbbaState>();
        s->a = std::make_unique<protocols::Abba>(
            party, "ba/A", [p = s.get()](bool v, int) { p->decision_a = v; });
        s->b = std::make_unique<protocols::Abba>(
            party, "ba/B", [p = s.get()](bool v, int) { p->decision_b = v; });
        return s;
      },
      0, 0, 9);
  cluster.attach_custom(3,
                        std::make_unique<CrossInstanceReplayer>(cluster.simulator(), 3));
  cluster.start();
  cluster.for_each([](int, TwoAbbaState& s) {
    s.a->start(true);
    s.b->start(false);
  });
  ASSERT_TRUE(cluster.run_until_all(
      [](TwoAbbaState& s) {
        return s.decision_a.has_value() && s.decision_b.has_value();
      },
      5000000));
  cluster.for_each([](int, TwoAbbaState& s) {
    EXPECT_TRUE(*s.decision_a);
    EXPECT_FALSE(*s.decision_b) << "cross-instance replay flipped the outcome";
  });
}

// ---- well-formed-but-invalid signatures vs the CBC sender ---------------------

/// Holds its dealt quorum key and signs the CORRECT statement, then
/// perturbs the response: the signature is structurally perfect (right
/// unit, in-range scalars) and only the curve check can tell it from an
/// honest one.
class BadQuorumSigSender final : public net::Process {
 public:
  BadQuorumSigSender(net::Simulator& sim, int id, adversary::Deployment deployment,
                     Bytes message)
      : sim_(sim), id_(id), deployment_(std::move(deployment)), message_(std::move(message)) {}

  void on_start() override {
    const auto& pk = deployment_.keys->public_keys().quorum_sig;
    const Bytes stmt = protocols::consistent_statement("cbc/x", message_);
    auto sigs = deployment_.keys->share(id_).quorum_sig.sign(pk, stmt);
    for (auto& s : sigs) s.z = pk.group().scalar_add(s.z, BigInt(1));
    Writer w;
    w.u8(1);  // ConsistentBroadcast::kShare
    w.vec(sigs, [&](Writer& wr, const crypto::QuorumSig& s) { s.encode(wr, pk.group()); });
    net::Message m;
    m.from = id_;
    m.to = 0;  // the designated sender
    m.tag = "cbc/x";
    m.payload = w.take();
    sim_.submit(std::move(m));
  }
  void on_message(const net::Message&) override {}

 private:
  net::Simulator& sim_;
  int id_;
  adversary::Deployment deployment_;
  Bytes message_;
};

struct CbcState {
  std::unique_ptr<protocols::ConsistentBroadcast> cbc;
  std::optional<Bytes> delivered;
};

TEST(CbcSignatureAttackTest, CbcFingersInvalidSignatureAndStillDelivers) {
  // FIFO delivery guarantees the attacker's unsolicited signature reaches
  // the sender before any honest one, so it is the first the sender
  // checks: the sender must finger exactly the attacker and then certify
  // from the honest quorum.
  Rng rng(3);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  const Bytes message = bytes_of("certify me");
  protocols::Cluster<CbcState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<CbcState>();
        s->cbc = std::make_unique<protocols::ConsistentBroadcast>(
            party, "cbc/x", 0,
            [p = s.get()](protocols::CertifiedMessage cm) { p->delivered = cm.message; });
        return s;
      },
      0, 0, 3);
  cluster.attach_custom(3, std::make_unique<BadQuorumSigSender>(cluster.simulator(), 3,
                                                                deployment, message));
  cluster.start();
  cluster.protocol(0)->cbc->start(message);
  ASSERT_TRUE(cluster.run_until_all(
      [](CbcState& s) { return s.delivered.has_value(); }, 1000000));
  cluster.for_each([&](int, CbcState& s) { EXPECT_EQ(*s.delivered, message); });
  // The sender fingered exactly the attacker — nobody else.
  EXPECT_EQ(cluster.protocol(0)->cbc->suspected(), crypto::party_bit(3));
}

/// The coin name of round `round` of ABBA instance "ba/0"
/// (Abba::coin_name); rounds 3, 6, ... toss the threshold coin.
Bytes abba_coin_name(int round) {
  Writer name;
  name.str("sintra/abba/coin");
  name.str("ba/0");
  name.u32(static_cast<std::uint32_t>(round));
  return name.take();
}

/// A coin-share message for round `round` of "ba/0" holding `shares`.
Bytes abba_coin_message(const adversary::Deployment& deployment, int round,
                        const std::vector<CoinShare>& shares) {
  const auto& pk = deployment.keys->public_keys().coin;
  Writer w;
  w.u8(protocols::Abba::kCoinShare);
  w.u32(static_cast<std::uint32_t>(round));
  w.vec(shares, [&](Writer& wr, const CoinShare& s) { s.encode(wr, pk.group()); });
  return w.take();
}

TEST(CoinShareAttackTest, AbbaCoinFingersInvalidShareAndTerminates) {
  // Sneakiest Byzantine coin strategy: party 3 follows the protocol
  // everywhere EXCEPT that the coin share its peers receive is tampered
  // (real coin key, correct coin name, perturbed DLEQ response).  We model
  // it by running party 3 honestly and pre-injecting the tampered share
  // for round 3 (the first threshold-coin round) under its identity; FIFO
  // delivery parks the injected copy first, so the honest copy is
  // deduplicated away at every peer and the bad share provably reaches
  // every peer's round-3 tally first.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  TraceLog log;
  log.set_enabled(true);
  protocols::Cluster<AbbaState> cluster(deployment, sched, make_abba_state, 0, 0, 11, &log);
  cluster.start();
  {
    Rng attacker_rng(8888);
    const auto& pk = deployment.keys->public_keys().coin;
    auto shares = deployment.keys->share(3).coin.share(pk, abba_coin_name(3), attacker_rng);
    for (auto& s : shares) s.proof.z = pk.group().scalar_add(s.proof.z, BigInt(1));
    inject_from(cluster.simulator(), 4, 3, "ba/0", abba_coin_message(deployment, 3, shares));
  }
  // 2-2 input split: rounds 1 and 2 cannot settle it, so the threshold
  // coin of round 3 IS tossed and every party checks the tampered share.
  std::vector<int> inputs = {1, 0, 1, 0};
  cluster.for_each([&](int id, AbbaState& s) {
    s.abba->start(inputs[static_cast<std::size_t>(id)] == 1);
  });
  ASSERT_TRUE(cluster.run_until_all(
      [](AbbaState& s) { return s.decision.has_value(); }, 3000000));
  ASSERT_GT(trace_count(log, "ba/0 coin r3 ="), 0u) << "the run never tossed the threshold coin";
  std::optional<bool> common;
  crypto::PartySet fingered_union = 0;
  cluster.for_each([&](int id, AbbaState& s) {
    if (!common.has_value()) common = s.decision;
    EXPECT_EQ(*s.decision, *common) << "agreement violated under coin-share attacker";
    // Nobody ever suspects an honest party...
    EXPECT_EQ(s.abba->suspected() & ~crypto::party_bit(3), 0u) << "party " << id;
    fingered_union |= s.abba->suspected();
  });
  // ...and the check on arrival caught the tampered share somewhere.
  EXPECT_EQ(fingered_union, crypto::party_bit(3));
}

// ---- ABBA votes injected under an honest party's identity --------------------

/// Party 3 runs honestly, but `payload_for(to)` (ABBA votes built by the
/// caller, possibly different per recipient) is injected under its
/// identity at each of parties 0..2 first; FIFO delivery then makes party
/// 3's own vote of the same type and round a duplicate, so the injected
/// ones are what count.  Every honest party must decide the same value —
/// `expected`, when given — by round `max_round`, and nobody is fingered:
/// the votes carry no signature to blame.
void expect_injected_votes_harmless(std::uint64_t seed, const std::vector<int>& inputs,
                                    std::optional<bool> expected, int max_round,
                                    const std::function<std::vector<Bytes>(int to)>& payload_for) {
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  protocols::Cluster<AbbaState> cluster(deployment, sched, make_abba_state, 0, 0, seed);
  cluster.start();
  for (int to = 0; to < 3; ++to) {
    for (Bytes& payload : payload_for(to)) {
      net::Message m;
      m.from = 3;
      m.to = to;
      m.tag = "ba/0";
      m.payload = std::move(payload);
      cluster.simulator().submit(std::move(m));
    }
  }
  cluster.for_each([&](int id, AbbaState& s) {
    s.abba->start(inputs[static_cast<std::size_t>(id)] == 1);
  });
  ASSERT_TRUE(cluster.run_until_all(
      [](AbbaState& s) { return s.decision.has_value(); }, 3000000));
  std::optional<bool> common = expected;
  cluster.for_each([&](int id, AbbaState& s) {
    if (!common.has_value()) common = s.decision;
    EXPECT_EQ(*s.decision, *common) << "party " << id;
    EXPECT_LE(s.round, max_round) << "party " << id;
    EXPECT_EQ(s.abba->suspected(), 0u) << "party " << id;
  });
}

TEST(AbbaAttackTest, InjectedBvalForUnheldValueNeverEntersBinValues) {
  // Every party holds 1; "party 3" BVAL-broadcasts 0 in rounds 1-3 and
  // its AUX and CONF name 0 too.  One sender is a fault set: 0 is never
  // echoed by an honest party, never enters bin_values, and 1 is decided
  // in round 1.
  expect_injected_votes_harmless(17, {1, 1, 1, 1}, true, 1, [](int) {
    std::vector<Bytes> votes;
    for (int round = 1; round <= 3; ++round) {
      votes.push_back(abba_message(protocols::Abba::kBval, round, 0));
      votes.push_back(abba_message(protocols::Abba::kAux, round, 0));
      votes.push_back(abba_message(protocols::Abba::kConf, round, 1));  // {0}
    }
    return votes;
  });
}

TEST(AbbaAttackTest, InjectedEquivocatingAuxCannotBreakAgreement) {
  // 2-2 split inputs put both values in bin_values.  "Party 3" tells
  // party `to` AUX(to mod 2) in rounds 1-6, pulling parties 0 and 2
  // toward 0 and party 1 toward 1: a quorum still meets every other in an
  // honest party, so no two honest parties end a round with different
  // singleton vals.
  for (std::uint64_t seed : {19u, 20u, 21u}) {
    expect_injected_votes_harmless(seed, {1, 0, 1, 0}, std::nullopt, 30, [](int to) {
      std::vector<Bytes> votes;
      for (int round = 1; round <= 6; ++round) {
        votes.push_back(
            abba_message(protocols::Abba::kAux, round, static_cast<std::uint8_t>(to % 2)));
      }
      return votes;
    });
  }
}

TEST(AbbaAttackTest, InjectedEquivocatingConfCannotBreakAgreement) {
  // As above, but the lie is in CONF: party `to` hears CONF {0}, {1} or
  // {0, 1} (cycling by recipient) in rounds 1-6, and the BVALs for both
  // values so either set can lie inside bin_values.
  for (std::uint64_t seed : {23u, 24u, 25u}) {
    expect_injected_votes_harmless(seed, {1, 0, 1, 0}, std::nullopt, 30, [](int to) {
      std::vector<Bytes> votes;
      for (int round = 1; round <= 6; ++round) {
        votes.push_back(abba_message(protocols::Abba::kBval, round, 0));
        votes.push_back(abba_message(protocols::Abba::kBval, round, 1));
        votes.push_back(
            abba_message(protocols::Abba::kConf, round, static_cast<std::uint8_t>(1 + to % 3)));
      }
      return votes;
    });
  }
}

// ---- the coin-timing schedule against the CONF-less protocol ----------------

/// MacBrough's network adversary against binary agreement without the CONF
/// phase, for n = 4 with parties 0-2 honest and party 3 corrupted.  Each
/// round it waits until every honest party has entered it, then tries to
/// leave the honest estimates split:
///
///  - Constant-coin round, coin s: one party holding s is steered to
///    vals {0, 1} (est s) and the other two to vals {~s} (est ~s).  Their
///    first bin value, their AUX and their CONF are ~s, party 3 backs ~s, and
///    every other vote reaches them only once they have a quorum for ~s.
///  - Threshold-coin round: party 1 hears nothing for the round while
///    parties 0 and 2 reach vals {0, 1} with AUX 0 and AUX 1.  The first
///    honest coin share in flight, combined with party 3's own, tells the
///    adversary s.  It then steers party 1 to vals {~s} the same way, from
///    its own AUX, party 3's and the early AUX for ~s.
///
/// Without the CONF phase the threshold round ends like a constant one,
/// so no round ever decides.  With it, parties 0 and 2 sent CONF {0, 1}
/// before any coin share went out, party 1 finds no quorum of CONF {~s},
/// and every honest party leaves the round with est s.  When the plan holds
/// every pending message the oldest goes first, so the schedule is fair.
class CoinTimingAdversary final : public net::Scheduler {
 public:
  static constexpr int kCorrupted = 3;
  static constexpr int kLate = 1;

  explicit CoinTimingAdversary(const adversary::Deployment& deployment)
      : deployment_(deployment) {}

  std::optional<std::size_t> pick(const std::vector<net::Message>& pending,
                                  std::uint64_t) override {
    observe(pending);
    std::optional<std::size_t> choice;
    std::optional<std::size_t> oldest;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const std::uint64_t id = pending[i].id;
      if (!oldest.has_value() || id < pending[*oldest].id) oldest = i;
      if (allowed(pending[i]) && (!choice.has_value() || id < pending[*choice].id)) choice = i;
    }
    if (!choice.has_value()) {
      // Party 3's planned votes go out before the plan gives anything up.
      if (!outbox_.empty()) return std::nullopt;
      choice = oldest;
    }
    record(pending[*choice]);
    return choice;
  }

  /// Submits party 3's votes planned since the last call; false if none.
  bool flush(net::Simulator& sim) {
    for (auto& message : outbox_) sim.submit(std::move(message));
    const bool any = !outbox_.empty();
    outbox_.clear();
    return any;
  }

  /// The highest round any honest party has entered.
  [[nodiscard]] int highest_round() const { return rounds_.empty() ? 0 : rounds_.rbegin()->first; }

 private:
  struct Vote {
    std::uint8_t type;
    int round;
    int value;  ///< BVAL/AUX value or CONF set; unused for coin shares
  };

  struct Round {
    std::array<int, 3> est{-1, -1, -1};  ///< value of each party's first BVAL
    bool planned = false;
    bool split = false;  ///< false: the estimates agree and the attack is over
    std::optional<bool> coin;
    std::array<int, 3> first{};             ///< first bin value to steer to
    std::array<int, 3> single{-1, -1, -1};  ///< vals {single}, or -1 for {0, 1}
    // Senders whose votes were delivered, by recipient and value.
    std::array<std::array<crypto::PartySet, 2>, 3> bval{};
    std::array<std::array<crypto::PartySet, 2>, 3> aux{};
    std::array<std::array<crypto::PartySet, 4>, 3> conf{};
  };

  static std::optional<Vote> parse(const net::Message& message) {
    Reader reader(message.payload);
    const std::uint8_t type = reader.u8();
    if (type != protocols::Abba::kBval && type != protocols::Abba::kAux &&
        type != protocols::Abba::kConf && type != protocols::Abba::kCoinShare) {
      return std::nullopt;
    }
    const int round = static_cast<int>(reader.u32());
    const int value = type == protocols::Abba::kCoinShare ? 0 : reader.u8();
    return Vote{type, round, value};
  }

  static int count(crypto::PartySet set) { return std::popcount(set); }

  void cast(int to, std::uint8_t type, int round, int value) {
    net::Message message;
    message.from = kCorrupted;
    message.to = to;
    message.tag = "ba/0";
    message.payload = abba_message(type, round, static_cast<std::uint8_t>(value));
    outbox_.push_back(std::move(message));
  }

  void observe(const std::vector<net::Message>& pending) {
    std::uint64_t next = seen_;
    for (const auto& message : pending) {
      if (message.id < seen_) continue;
      next = std::max(next, message.id + 1);
      if (message.from == kCorrupted) continue;
      const auto vote = parse(message);
      if (!vote.has_value()) continue;
      Round& round = rounds_[vote->round];
      if (vote->type == protocols::Abba::kBval && round.est[message.from] < 0) {
        round.est[message.from] = vote->value;
      }
      // A party's own votes reach it at once, off the network.
      net::Message self = message;
      self.to = message.from;
      record(self);
      if (vote->type == protocols::Abba::kCoinShare && round.planned && round.split &&
          !round.coin.has_value()) {
        round.coin = toss(vote->round, message.payload);
        round.first[kLate] = *round.coin ? 0 : 1;
        round.single[kLate] = round.first[kLate];
        cast(kLate, protocols::Abba::kAux, vote->round, round.first[kLate]);
        cast(kLate, protocols::Abba::kConf, vote->round, 1 << round.first[kLate]);
      }
    }
    seen_ = next;
    for (auto& [number, round] : rounds_) {
      if (!round.planned && std::all_of(round.est.begin(), round.est.end(),
                                        [](int est) { return est >= 0; })) {
        plan(number, round);
      }
    }
  }

  /// The coin of a threshold round from one honest share and party 3's.
  bool toss(int round, const Bytes& payload) const {
    const auto& pk = deployment_.keys->public_keys().coin;
    Reader reader(payload);
    reader.u8();
    reader.u32();
    auto shares =
        reader.vec<CoinShare>([&](Reader& r) { return CoinShare::decode(r, pk.group()); });
    Rng rng(static_cast<std::uint64_t>(round));
    const auto& key = deployment_.keys->share(kCorrupted).coin;
    for (auto& share : key.share(pk, abba_coin_name(round), rng)) shares.push_back(std::move(share));
    return crypto::CoinPublicKey::coin_bit(*pk.combine(abba_coin_name(round), shares));
  }

  void plan(int number, Round& round) {
    round.planned = true;
    for (int to = 0; to < kCorrupted; ++to) {
      cast(to, protocols::Abba::kBval, number, 0);
      cast(to, protocols::Abba::kBval, number, 1);
    }
    round.split = std::count(round.est.begin(), round.est.end(), 1) % 3 != 0;
    if (!round.split) return;
    if (number % 3 == 0) {
      // Parties 0 and 2 go first, party 1 waits for the coin.
      round.first = {0, 0, 1};
      for (int to : {0, 2}) {
        cast(to, protocols::Abba::kAux, number, 0);
        cast(to, protocols::Abba::kConf, number, 3);
      }
      return;
    }
    const int coin = number % 3 == 1 ? 1 : 0;
    round.coin = coin == 1;
    const int keeper = static_cast<int>(std::find(round.est.begin(), round.est.end(), coin) -
                                        round.est.begin());
    for (int to = 0; to < kCorrupted; ++to) {
      round.first[to] = to == keeper ? coin : 1 - coin;
      round.single[to] = to == keeper ? -1 : 1 - coin;
      cast(to, protocols::Abba::kAux, number, 1 - coin);
      cast(to, protocols::Abba::kConf, number, 1 << (1 - coin));
    }
  }

  [[nodiscard]] bool allowed(const net::Message& message) const {
    if (message.to == kCorrupted) return true;
    const auto vote = parse(message);
    if (!vote.has_value()) return true;  // DECIDE, coin verdicts
    const auto it = rounds_.find(vote->round);
    if (it == rounds_.end() || !it->second.planned) return false;
    const Round& round = it->second;
    if (!round.split) return true;
    const int to = message.to;
    if (vote->round % 3 == 0 && to == kLate && !round.coin.has_value()) return false;
    const int first = round.first[to];
    const int single = round.single[to];
    switch (vote->type) {
      case protocols::Abba::kBval:
        return vote->value == first || count(round.bval[to][first]) >= 3;
      case protocols::Abba::kAux:
        if (single >= 0) return vote->value == single || count(round.aux[to][single]) >= 3;
        return crypto::contains(round.aux[to][0] | round.aux[to][1], to);
      case protocols::Abba::kConf: {
        if (single >= 0) {
          return vote->value == 1 << single || count(round.conf[to][1 << single]) >= 3;
        }
        crypto::PartySet seen = 0;
        for (crypto::PartySet senders : round.conf[to]) seen |= senders;
        return crypto::contains(seen, to);
      }
      default: return true;  // coin shares
    }
  }

  void record(const net::Message& message) {
    if (message.to == kCorrupted) return;
    const auto vote = parse(message);
    if (!vote.has_value() || vote->type == protocols::Abba::kCoinShare) return;
    Round& round = rounds_[vote->round];
    auto& senders = vote->type == protocols::Abba::kBval  ? round.bval[message.to][vote->value]
                    : vote->type == protocols::Abba::kAux ? round.aux[message.to][vote->value]
                                                          : round.conf[message.to][vote->value];
    senders |= crypto::party_bit(message.from);
  }

  const adversary::Deployment& deployment_;
  std::map<int, Round> rounds_;
  std::vector<net::Message> outbox_;
  std::uint64_t seen_ = 0;
};

TEST(AbbaAttackTest, CoinTimingScheduleCannotOutlastTheConfPhase) {
  // Under CoinTimingAdversary the honest estimates stay split through the
  // constant-coin rounds 1 and 2; the CONF phase ends the split in round 3,
  // the first threshold-coin round, so every party decides in round 4 or 5.
  // The same schedule keeps the protocol without CONF undecided for good.
  Rng rng(19);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  CoinTimingAdversary adversary(deployment);
  TraceLog log;
  log.set_enabled(true);
  protocols::Cluster<AbbaState> cluster(deployment, adversary, make_abba_state,
                                        crypto::party_bit(CoinTimingAdversary::kCorrupted), 0, 19,
                                        &log);
  cluster.start();
  cluster.for_each([](int id, AbbaState& s) { s.abba->start(id != 0); });
  auto decided = [&] {
    bool all = true;
    cluster.for_each([&](int, AbbaState& s) { all = all && s.decision.has_value(); });
    return all;
  };
  for (int step = 0; step < 1000000 && !decided() && adversary.highest_round() <= 30; ++step) {
    const bool voted = adversary.flush(cluster.simulator());
    if (!cluster.simulator().step() && !voted) break;
  }
  ASSERT_TRUE(decided()) << "the split outlasted round " << adversary.highest_round();
  ASSERT_GT(trace_count(log, "ba/0 coin r3 ="), 0u) << "the split ended before round 3";
  std::optional<bool> common;
  cluster.for_each([&](int id, AbbaState& s) {
    if (!common.has_value()) common = s.decision;
    EXPECT_EQ(s.decision, common) << "agreement violated at party " << id;
    EXPECT_GE(s.round, 4) << "party " << id;
    EXPECT_LE(s.round, 5) << "party " << id;
  });
}

// ---- partial unit sets under a multi-unit (LSSS) deployment ------------------

/// Sends the CBC sender 8 of its 9 (valid) quorum-key signatures.
class PartialUnitSigner final : public net::Process {
 public:
  PartialUnitSigner(net::Simulator& sim, int id, adversary::Deployment deployment, Bytes message)
      : sim_(sim), id_(id), deployment_(std::move(deployment)), message_(std::move(message)) {}

  void on_start() override {
    const auto& pk = deployment_.keys->public_keys().quorum_sig;
    auto sigs = deployment_.keys->share(id_).quorum_sig.sign(
        pk, protocols::consistent_statement("cbc/x", message_));
    sigs.pop_back();
    Writer w;
    w.u8(1);  // ConsistentBroadcast::kShare
    w.vec(sigs, [&](Writer& wr, const crypto::QuorumSig& s) { s.encode(wr, pk.group()); });
    net::Message m;
    m.from = id_;
    m.to = 0;
    m.tag = "cbc/x";
    m.payload = w.take();
    sim_.submit(std::move(m));
  }
  void on_message(const net::Message&) override {}

 private:
  net::Simulator& sim_;
  int id_;
  adversary::Deployment deployment_;
  Bytes message_;
};

TEST(CbcSignatureAttackTest, CbcRejectsPartialUnitSetUnderExample2) {
  Rng rng(29);
  auto deployment = adversary::example2_deployment(rng);
  const auto& pk = deployment.keys->public_keys().quorum_sig;
  constexpr int kSigner = 15;
  ASSERT_EQ(pk.scheme().units_of(kSigner).size(), 9u);
  const Bytes message = bytes_of("certify me");
  const Bytes stmt = protocols::consistent_statement("cbc/x", message);

  // The certificate check itself: a quorum's full signature set verifies;
  // the same set missing any one of the signer's units does not.
  std::vector<crypto::QuorumSig> sigs;
  for (int i = 0; i < deployment.n(); ++i) {
    for (auto& s : deployment.keys->share(i).quorum_sig.sign(pk, stmt)) sigs.push_back(s);
  }
  ASSERT_EQ(pk.verify_set(stmt, sigs), std::optional<crypto::PartySet>(crypto::full_set(deployment.n())));
  for (std::size_t drop = 0; drop < sigs.size(); ++drop) {
    if (pk.scheme().unit_owner(sigs[drop].unit) != kSigner) continue;
    std::vector<crypto::QuorumSig> partial = sigs;
    partial.erase(partial.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_FALSE(pk.verify_set(stmt, partial).has_value()) << "dropped unit " << sigs[drop].unit;
  }

  // The protocol: the 8-of-9 message arrives first and is refused at
  // admission; the broadcast still certifies from the honest signers.
  net::FifoScheduler sched;
  TraceLog log;
  log.set_enabled(true);
  protocols::Cluster<CbcState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<CbcState>();
        s->cbc = std::make_unique<protocols::ConsistentBroadcast>(
            party, "cbc/x", 0,
            [p = s.get()](protocols::CertifiedMessage cm) { p->delivered = cm.message; });
        return s;
      },
      0, 0, 29, &log);
  cluster.attach_custom(kSigner, std::make_unique<PartialUnitSigner>(cluster.simulator(),
                                                                     kSigner, deployment, message));
  cluster.start();
  cluster.protocol(0)->cbc->start(message);
  ASSERT_TRUE(cluster.run_until_all(
      [](CbcState& s) { return s.delivered.has_value(); }, 10000000));
  cluster.for_each([&](int, CbcState& s) { EXPECT_EQ(*s.delivered, message); });
  const auto refused = std::count_if(log.events().begin(), log.events().end(), [](const auto& e) {
    return e.party == 0 &&
           e.message.find("cbc: shares not the signer's units") != std::string::npos;
  });
  EXPECT_EQ(refused, 1);
  EXPECT_EQ(cluster.protocol(0)->cbc->suspected(), 0u);  // refused, never verified
}

// ---- atomic broadcast: the verified-entry memo of the validity predicate ------

constexpr const char* kAbcTag = "abc";

struct AbcState {
  std::unique_ptr<protocols::AtomicBroadcast> abc;
  std::vector<Bytes> delivered;
};

protocols::Cluster<AbcState> make_abc_cluster(const adversary::Deployment& deployment,
                                              net::Scheduler& sched, std::uint64_t seed) {
  return protocols::Cluster<AbcState>(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<AbcState>();
        s->abc = std::make_unique<protocols::AtomicBroadcast>(
            party, kAbcTag,
            [p = s.get()](int, Bytes payload) { p->delivered.push_back(std::move(payload)); });
        return s;
      },
      0, 0, seed);
}

/// Byzantine party 3 as a round-1 VBA proposer.  It collects the honest
/// parties' signed batches, builds a batch-set from them, and runs the
/// sender side of its own consistent broadcast (honest parties sign the
/// first SEND without checking it), so the batch-set reaches every honest
/// party's validity predicate with a valid certificate.
///  - kTamper: entries 0, 1, 2, with party 1's signature response perturbed.
///  - kExtraEntry: entries 0, 1 and its own validly signed batch, which
///    it sent directly to party 0 only.
class ByzantineProposer final : public net::Process {
 public:
  enum class Mode { kTamper, kExtraEntry };

  ByzantineProposer(net::Simulator& sim, adversary::Deployment deployment, Mode mode)
      : sim_(sim), deployment_(std::move(deployment)), mode_(mode) {}

  void on_start() override {
    if (mode_ != Mode::kExtraEntry) return;
    Writer block;
    block.vec(std::vector<Bytes>{bytes_of("from 3")}, [](Writer& wr, const Bytes& p) {
      wr.bytes(p);
    });
    own_block_ = block.take();
    own_sigs_ = deployment_.keys->share(kMe).quorum_sig.sign(pk(), batch_statement(own_block_));
    Writer w;
    w.u8(1);  // AtomicBroadcast::kBatch
    w.u32(1);
    w.bytes(own_block_);
    encode_sigs(w, own_sigs_);
    send(0, kAbcTag, w.take());
  }

  void on_message(const net::Message& message) override {
    Reader r(message.payload);
    if (message.tag == kAbcTag && r.u8() == 1 && r.u32() == 1) {
      Bytes block = r.bytes();
      auto sigs = decode_sigs(r);
      batches_.emplace(message.from, std::make_pair(std::move(block), std::move(sigs)));
      maybe_propose();
    } else if (message.tag == cbc_tag() && proposal_.has_value() && r.u8() == 1) {
      // A SHARE for our SEND.
      for (auto& s : decode_sigs(r)) cbc_sigs_.push_back(std::move(s));
      signers_ |= crypto::party_bit(message.from);
      maybe_finalize();
    }
  }

 private:
  static constexpr int kMe = 3;

  static std::string cbc_tag() { return std::string(kAbcTag) + "/1/vba/cb/3"; }

  [[nodiscard]] const crypto::QuorumSigPublicKey& pk() const {
    return deployment_.keys->public_keys().quorum_sig;
  }

  void encode_sigs(Writer& w, const std::vector<crypto::QuorumSig>& sigs) const {
    w.vec(sigs, [&](Writer& wr, const crypto::QuorumSig& s) { s.encode(wr, pk().group()); });
  }

  std::vector<crypto::QuorumSig> decode_sigs(Reader& r) const {
    return r.vec<crypto::QuorumSig>(
        [&](Reader& rd) { return crypto::QuorumSig::decode(rd, pk().group()); });
  }

  Bytes entry(int party, BytesView block, const std::vector<crypto::QuorumSig>& sigs) const {
    Writer w;
    w.u32(static_cast<std::uint32_t>(party));
    w.bytes(block);
    encode_sigs(w, sigs);
    return w.take();
  }

  /// Must match AtomicBroadcast::batch_statement(1, 3, block).
  static Bytes batch_statement(BytesView block) {
    Writer w;
    w.str("sintra/abc/batch");
    w.str(kAbcTag);
    w.u32(1);
    w.u32(kMe);
    const auto digest = crypto::hash_domain("sintra/abc/block", block);
    w.raw(BytesView(digest.data(), digest.size()));
    return w.take();
  }

  void maybe_propose() {
    if (proposal_.has_value()) return;
    const std::vector<int> needed =
        mode_ == Mode::kTamper ? std::vector<int>{0, 1, 2} : std::vector<int>{0, 1};
    for (int p : needed) {
      if (!batches_.contains(p)) return;
    }
    std::vector<Bytes> entries;
    for (int p : needed) {
      auto [block, sigs] = batches_.at(p);
      if (mode_ == Mode::kTamper && p == 1) {
        for (auto& s : sigs) s.z = pk().group().scalar_add(s.z, BigInt(1));
      }
      entries.push_back(entry(p, block, sigs));
    }
    if (mode_ == Mode::kExtraEntry) entries.push_back(entry(kMe, own_block_, own_sigs_));
    Writer set;
    set.vec(entries, [](Writer& wr, const Bytes& e) { wr.bytes(e); });
    proposal_ = set.take();
    cbc_sigs_ = deployment_.keys->share(kMe).quorum_sig.sign(
        pk(), protocols::consistent_statement(cbc_tag(), *proposal_));
    signers_ = crypto::party_bit(kMe);
    Writer w;
    w.u8(0);  // ConsistentBroadcast::kSend
    w.bytes(*proposal_);
    for (int to = 0; to < kMe; ++to) send(to, cbc_tag(), w.data());
  }

  void maybe_finalize() {
    if (finalized_ || !deployment_.quorum->is_quorum(signers_)) return;
    finalized_ = true;
    Writer w;
    w.u8(2);  // ConsistentBroadcast::kFinal
    protocols::CertifiedMessage{*proposal_, cbc_sigs_}.encode(w, pk().group());
    for (int to = 0; to < kMe; ++to) send(to, cbc_tag(), w.data());
  }

  void send(int to, const std::string& tag, Bytes payload) {
    net::Message m;
    m.from = kMe;
    m.to = to;
    m.tag = tag;
    m.payload = std::move(payload);
    sim_.submit(std::move(m));
  }

  net::Simulator& sim_;
  adversary::Deployment deployment_;
  Mode mode_;
  std::map<int, std::pair<Bytes, std::vector<crypto::QuorumSig>>> batches_;  ///< round-1 batches
  Bytes own_block_;
  std::vector<crypto::QuorumSig> own_sigs_;
  std::optional<Bytes> proposal_;
  std::vector<crypto::QuorumSig> cbc_sigs_;
  crypto::PartySet signers_ = 0;
  bool finalized_ = false;
};

TEST(BatchMemoAttackTest, TamperedCopyOfMemoizedEntryIsRejected) {
  // Every honest party holds party 1's genuine round-1 batch in its memo
  // (FIFO delivers the batches before the attacker's proposal).  The
  // attacker's copy differs only in one signature response, so it misses
  // the memo and the full check rejects the whole batch-set.
  Rng rng(17);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  auto cluster = make_abc_cluster(deployment, sched, 17);
  cluster.attach_custom(3, std::make_unique<ByzantineProposer>(
                               cluster.simulator(), deployment,
                               ByzantineProposer::Mode::kTamper));
  cluster.start();
  cluster.for_each(
      [](int id, AbcState& s) { s.abc->submit(bytes_of("m" + std::to_string(id))); });
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 3; },
                                    5000000));
  // Let the attacker's late FINAL reach every predicate.
  ASSERT_TRUE(cluster.run_until_all(
      [](AbcState& s) { return s.abc->batch_sets_rejected() >= 1; }, 5000000));
  const std::vector<Bytes>* reference = nullptr;
  cluster.for_each([&](int id, AbcState& s) {
    EXPECT_EQ(s.abc->batch_sets_rejected(), 1u) << "party " << id;
    // Two peers' batches checked on arrival (a party's own is never
    // checked); of the attacker's entries only the tampered one missed
    // the memo; every honest proposal hit it.
    EXPECT_EQ(s.abc->entries_checked(), 3u) << "party " << id;
    if (reference == nullptr) reference = &s.delivered;
    EXPECT_EQ(s.delivered, *reference) << "total order violated at party " << id;
  });
}

TEST(BatchMemoAttackTest, UnseenValidEntryIsCheckedOnceThenMemoized) {
  // The attacker's own batch reaches party 0 only, ahead of every honest
  // batch, so party 0's proposal and the attacker's proposal both carry an
  // entry parties 1 and 2 never got directly.  The first of the two
  // proposals to arrive checks and accepts it; the second finds it in the
  // memo.  Only party 0 submits, so a single round runs.
  Rng rng(19);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  auto cluster = make_abc_cluster(deployment, sched, 19);
  cluster.attach_custom(3, std::make_unique<ByzantineProposer>(
                               cluster.simulator(), deployment,
                               ByzantineProposer::Mode::kExtraEntry));
  cluster.protocol(0)->abc->submit(bytes_of("m0"));
  cluster.start();
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return !s.delivered.empty(); },
                                    5000000));
  cluster.simulator().run(200000);  // drain late proposals into the predicates
  const std::vector<Bytes>* reference = nullptr;
  cluster.for_each([&](int id, AbcState& s) {
    EXPECT_EQ(s.abc->rounds_completed(), 1) << "party " << id;
    EXPECT_EQ(s.abc->batch_sets_rejected(), 0u) << "party " << id;
    // Each party checks the three distinct entries other than its own
    // exactly once: party 0 all on arrival, parties 1 and 2 two on arrival
    // plus the attacker's in the first proposal carrying it.
    EXPECT_EQ(s.abc->entries_checked(), 3u) << "party " << id;
    if (reference == nullptr) reference = &s.delivered;
    EXPECT_EQ(s.delivered, *reference) << "total order violated at party " << id;
  });
}

TEST(BatchMemoAttackTest, LiveRoundsStayBoundedOverManyRounds) {
  // Memos live and die with their rounds: after many rounds only the
  // retention window (plus the round in progress) is held.
  Rng rng(23);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(23);
  auto cluster = make_abc_cluster(deployment, sched, 23);
  cluster.start();
  constexpr std::size_t kRounds = 12;
  for (std::size_t k = 1; k <= kRounds; ++k) {
    cluster.protocol(static_cast<int>(k % 3))->abc->submit(bytes_of("r" + std::to_string(k)));
    ASSERT_TRUE(cluster.run_until_all([&](AbcState& s) { return s.delivered.size() >= k; },
                                      3000000))
        << "payload " << k;
    cluster.for_each([](int id, AbcState& s) {
      EXPECT_LE(s.abc->live_rounds(), 4u) << "party " << id;
    });
  }
  cluster.for_each([](int, AbcState& s) { EXPECT_GE(s.abc->rounds_completed(), 12); });
}

// ---- client-facing attacks ---------------------------------------------------

/// Sends the client a reply with ANOTHER party's (stolen? no — replayed)
/// signature shares attached under its own sender id.
class ShareMisattributor final : public net::Process {
 public:
  ShareMisattributor(net::Simulator& sim, int id, adversary::Deployment deployment,
                     std::uint64_t seed)
      : sim_(sim), id_(id), deployment_(std::move(deployment)), rng_(seed) {}

  void on_message(const net::Message& message) override {
    if (message.tag != "svc") return;
    try {
      Reader r(message.payload);
      app::RequestEnvelope envelope = app::RequestEnvelope::decode(r);
      // Craft a denial, make it a one-leaf round and sign that root with
      // our OWN reply key shares — a real signature on fraudulent content,
      // whose path folds for the client.  The client must outvote it.
      app::CaResponse forged;
      forged.status = app::CaResponse::Status::kDenied;
      app::SignedReply out;
      out.request_id = envelope.request_id;
      out.reply = forged.encode();
      out.count = 1;
      const crypto::Digest root =
          crypto::merkle::leaf(app::reply_statement("svc", envelope, out.reply));
      out.shares = deployment_.keys->share(id_).reply_sig.sign(
          deployment_.keys->public_keys().reply_sig, app::root_statement("svc", 1, root), rng_);
      sim_.submit(net::Message{id_, envelope.client, "svc/reply", out.encode()});
    } catch (const ProtocolError&) {
    }
  }

 private:
  net::Simulator& sim_;
  int id_;
  adversary::Deployment deployment_;
  Rng rng_;
};

struct SvcState {
  std::unique_ptr<app::Replica> replica;
};

TEST(ClientAttackTest, ValidlySignedLieStillOutvoted) {
  // The attacker's reply carries VALID signature shares (it owns the key
  // share) on fraudulent content.  One fault set cannot exceed itself:
  // the client's "beyond one corruptible set" rule keeps waiting for a
  // second voucher for that content, which never comes.
  Rng rng(21);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(21);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto s = std::make_unique<SvcState>();
        s->replica = std::make_unique<app::Replica>(
            party, "svc", app::Replica::Mode::kAtomic,
            std::make_unique<app::CertificationAuthority>());
        return s;
      },
      0, /*extra_endpoints=*/1, 21);
  cluster.attach_custom(3, std::make_unique<ShareMisattributor>(cluster.simulator(), 3,
                                                                deployment, 33));
  std::map<std::uint64_t, app::ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<app::ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", app::Replica::Mode::kAtomic, 17,
      [&](std::uint64_t id, app::ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  app::ServiceClient* client = client_owner.get();
  cluster.attach_client(4, std::move(client_owner));
  cluster.start();

  app::CaRequest issue;
  issue.op = app::CaRequest::Op::kIssue;
  issue.subject = "victim";
  issue.credentials = "credential:victim";
  Bytes body = issue.encode();
  std::uint64_t id = client->request(Bytes(body));
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.contains(id); }, 10000000));
  EXPECT_EQ(app::CaResponse::decode(replies.at(id).reply).status,
            app::CaResponse::Status::kOk);
  EXPECT_TRUE(client->verify_receipt(id, body, replies.at(id)));
  EXPECT_EQ(client->fingered(), 0u) << "a valid share on a lie is outvoted, not fingered";
}

// ---- receipts: one signed root per round -------------------------------------

/// Two clients (endpoints 4 and 5) on a simulator nobody runs, fed replies
/// by hand in an exact order.  Replies are built the way replicas build
/// them: a reply tree over one round's leaves, every reply carrying its
/// path and the sender's shares on that tree's root statement.
struct HandDriven {
  /// One round: the requests it ordered and the replies they got.
  struct Round {
    std::vector<app::RequestEnvelope> requests;
    std::vector<Bytes> replies;

    void add(int client, std::uint64_t request_id, const std::string& body,
             const std::string& reply) {
      app::RequestEnvelope envelope;
      envelope.client = client;
      envelope.request_id = request_id;
      envelope.body = bytes_of(body);
      requests.push_back(std::move(envelope));
      replies.push_back(bytes_of(reply));
    }
    [[nodiscard]] crypto::merkle::Tree tree() const {
      std::vector<crypto::Digest> leaves;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        leaves.push_back(crypto::merkle::leaf(app::reply_statement("svc", requests[i], replies[i])));
      }
      return crypto::merkle::Tree(std::move(leaves));
    }
  };

  HandDriven()
      : rng(41), deployment(adversary::Deployment::threshold(4, 1, rng)),
        sim(deployment.n() + 2, sched),
        a(sim, 4, deployment, "svc", app::Replica::Mode::kAtomic, 43, record(a_receipts)),
        b(sim, 5, deployment, "svc", app::Replica::Mode::kAtomic, 44, record(b_receipts)) {}

  using Receipts = std::map<std::uint64_t, app::ServiceClient::Receipt>;
  static app::ServiceClient::ReplyFn record(Receipts& into) {
    return [&into](std::uint64_t id, app::ServiceClient::Receipt receipt) {
      into.emplace(id, std::move(receipt));
    };
  }

  [[nodiscard]] const crypto::ThresholdSigPublicKey& pk() const {
    return deployment.keys->public_keys().reply_sig;
  }
  /// `server`'s shares on the root statement of `tree`.
  std::vector<SigShare> sign(int server, const crypto::merkle::Tree& tree) {
    return deployment.keys->share(server).reply_sig.sign(
        pk(), app::root_statement("svc", tree.count(), tree.root()), sign_rng);
  }
  /// `server`'s reply for leaf `index` of `round`, as an honest replica sends it.
  app::SignedReply reply(int server, const Round& round, std::uint32_t index) {
    const crypto::merkle::Tree tree = round.tree();
    app::SignedReply out;
    out.request_id = round.requests[index].request_id;
    out.reply = round.replies[index];
    out.index = index;
    out.count = tree.count();
    out.path = tree.path(index);
    out.shares = sign(server, tree);
    return out;
  }
  void deliver(int server, int to, const app::SignedReply& signed_reply) {
    net::Message message{server, to, "svc/reply", signed_reply.encode()};
    (to == 4 ? a : b).on_message(message);
  }

  Rng rng;
  adversary::Deployment deployment;
  net::FifoScheduler sched;
  net::Simulator sim;
  Receipts a_receipts;
  Receipts b_receipts;
  app::ServiceClient a;
  app::ServiceClient b;
  Rng sign_rng{47};
};

TEST(ClientAttackTest, InvalidReplyShareFingeredReceiptStillValid) {
  // Reply shares are combined before they are verified.  Server 3 sends
  // the correct reply and path with a tampered share, and it arrives
  // first: the receipt combine that meets it must bisect it out, strike
  // server 3 for this request (its later honest reply included) and
  // finish on honest servers.
  HandDriven h;
  const std::uint64_t id = h.a.request(bytes_of("lookup alice"));
  HandDriven::Round round;
  round.add(5, 1, "lookup bob", "bob -> 10.0.0.9");
  round.add(4, id, "lookup alice", "alice -> 10.0.0.7");
  round.add(5, 2, "lookup carol", "carol -> 10.0.0.3");
  app::SignedReply tampered = h.reply(3, round, 1);
  for (auto& s : tampered.shares) s.value = BigInt::mul_mod(s.value, BigInt(2), h.pk().modulus());
  h.deliver(3, 4, tampered);
  h.deliver(0, 4, h.reply(0, round, 1));  // {0, 3} qualifies; the combine fails and fingers 3
  EXPECT_TRUE(h.a_receipts.empty());
  EXPECT_EQ(h.a.fingered(), crypto::party_bit(3));
  h.deliver(3, 4, h.reply(3, round, 1));  // ignored: with it, {0, 3} would combine
  EXPECT_TRUE(h.a_receipts.empty());
  EXPECT_EQ(h.a.outstanding(), 1u);
  h.deliver(1, 4, h.reply(1, round, 1));
  ASSERT_TRUE(h.a_receipts.contains(id));
  EXPECT_EQ(h.a_receipts.at(id).reply, round.replies[1]);
  EXPECT_TRUE(h.a.verify_receipt(id, bytes_of("lookup alice"), h.a_receipts.at(id)));
  EXPECT_EQ(h.a.outstanding(), 0u);
  EXPECT_EQ(h.a.fingered(), crypto::party_bit(3));
}

TEST(ClientAttackTest, TamperedPathElementNeverReachesTheSignedRoot) {
  // Server 3 sends the honest reply and valid shares on the honest root,
  // but with one path element bent: the client folds its own leaf through
  // that path, reaches a root nobody signed, and keeps the vote apart.
  // Once the round's root is certified, the memo completes the request's
  // round-mate from one honest reply — but only a reply whose own path
  // folds to it: a lie with the real path, or the truth with a bent one,
  // does not.
  HandDriven h;
  const std::uint64_t alice = h.a.request(bytes_of("lookup alice"));
  const std::uint64_t bob = h.a.request(bytes_of("lookup bob"));
  HandDriven::Round round;
  round.add(4, alice, "lookup alice", "alice -> 10.0.0.7");
  round.add(5, 1, "lookup carol", "carol -> 10.0.0.3");
  round.add(4, bob, "lookup bob", "bob -> 10.0.0.9");
  app::SignedReply bent = h.reply(3, round, 0);
  bent.path[0][5] ^= 0x10;
  h.deliver(3, 4, bent);
  h.deliver(0, 4, h.reply(0, round, 0));
  EXPECT_TRUE(h.a_receipts.empty()) << "the bent path joined the honest root's vote";
  h.deliver(1, 4, h.reply(1, round, 0));
  ASSERT_TRUE(h.a_receipts.contains(alice));
  EXPECT_TRUE(h.a.verify_receipt(alice, bytes_of("lookup alice"), h.a_receipts.at(alice)));
  EXPECT_EQ(h.a.fingered(), 0u) << "the bent reply's shares never met a combine";

  app::SignedReply lie = h.reply(3, round, 2);
  lie.reply = bytes_of("bob -> 6.6.6.6");
  h.deliver(3, 4, lie);
  app::SignedReply bent_bob = h.reply(3, round, 2);
  bent_bob.path.back()[0] ^= 0x01;
  h.deliver(3, 4, bent_bob);
  EXPECT_FALSE(h.a_receipts.contains(bob)) << "a reply completed without folding to the memo";
  h.deliver(2, 4, h.reply(2, round, 2));  // one honest reply: a memo hit
  ASSERT_TRUE(h.a_receipts.contains(bob));
  EXPECT_EQ(h.a_receipts.at(bob).reply, round.replies[2]);
  EXPECT_TRUE(h.a.verify_receipt(bob, bytes_of("lookup bob"), h.a_receipts.at(bob)));
  app::ServiceClient::Receipt forged = h.a_receipts.at(bob);
  forged.path[0][0] ^= 0x01;
  EXPECT_FALSE(h.a.verify_receipt(bob, bytes_of("lookup bob"), forged));
}

TEST(ClientAttackTest, AnotherRoundsSignedRootDoesNotCompleteARequest) {
  // Server 3 replays its reply for an earlier request under a new
  // request id with the same body: a valid path and valid shares, for
  // another round's root — already certified and memoized.  The new
  // request's own leaf does not fold to that root, so nothing completes
  // until its own round answers it.
  HandDriven h;
  const std::uint64_t first = h.a.request(bytes_of("lookup alice"));
  HandDriven::Round round1;
  round1.add(4, first, "lookup alice", "alice -> 10.0.0.7");
  round1.add(5, 1, "lookup bob", "bob -> 10.0.0.9");
  h.deliver(0, 4, h.reply(0, round1, 0));
  h.deliver(1, 4, h.reply(1, round1, 0));
  ASSERT_TRUE(h.a_receipts.contains(first));

  const std::uint64_t second = h.a.request(bytes_of("lookup alice"));
  app::SignedReply replay = h.reply(3, round1, 0);
  replay.request_id = second;
  h.deliver(3, 4, replay);
  EXPECT_FALSE(h.a_receipts.contains(second)) << "a memoized root completed another request";
  EXPECT_EQ(h.a.fingered(), 0u);
  EXPECT_FALSE(h.a.verify_receipt(second, bytes_of("lookup alice"), h.a_receipts.at(first)));

  HandDriven::Round round2;
  round2.add(5, 2, "lookup carol", "carol -> 10.0.0.3");
  round2.add(4, second, "lookup alice", "alice -> 10.0.0.7");
  h.deliver(2, 4, h.reply(2, round2, 1));
  EXPECT_FALSE(h.a_receipts.contains(second));
  h.deliver(3, 4, h.reply(3, round2, 1));
  ASSERT_TRUE(h.a_receipts.contains(second));
  EXPECT_EQ(h.a_receipts.at(second).index, 1u);
  EXPECT_TRUE(h.a.verify_receipt(second, bytes_of("lookup alice"), h.a_receipts.at(second)));
}

TEST(ClientAttackTest, ReplyForAnotherClientDoesNotCompleteTheRequest) {
  // Clients A (endpoint 4) and B (endpoint 5) both send request 1 with the
  // same body, ordered in one round.  Server 3 sends B its reply for A: a
  // valid path and valid shares on the honest root, but B's leaf binds
  // B's id, so from B's side that path reaches no signed root and the
  // reply cannot join the honest replies' vote.  A's receipt is no
  // receipt for B.
  HandDriven h;
  const Bytes body = bytes_of("lookup alice");
  ASSERT_EQ(h.a.request(Bytes(body)), 1u);
  ASSERT_EQ(h.b.request(Bytes(body)), 1u);
  HandDriven::Round round;
  round.add(4, 1, "lookup alice", "alice -> 10.0.0.7");
  round.add(5, 1, "lookup alice", "alice -> 10.0.0.7");
  h.deliver(3, 5, h.reply(3, round, 0));
  h.deliver(0, 5, h.reply(0, round, 1));
  EXPECT_TRUE(h.b_receipts.empty()) << "A's reply joined B's vote";
  h.deliver(0, 4, h.reply(0, round, 0));
  h.deliver(1, 4, h.reply(1, round, 0));
  ASSERT_TRUE(h.a_receipts.contains(1));
  EXPECT_TRUE(h.a.verify_receipt(1, body, h.a_receipts.at(1)));
  EXPECT_FALSE(h.b.verify_receipt(1, body, h.a_receipts.at(1)));
  h.deliver(1, 5, h.reply(1, round, 1));
  ASSERT_TRUE(h.b_receipts.contains(1));
  EXPECT_EQ(h.b_receipts.at(1).index, 1u);
  EXPECT_TRUE(h.b.verify_receipt(1, body, h.b_receipts.at(1)));
  EXPECT_EQ(h.b.fingered(), 0u);
}

TEST(ClientAttackTest, SharesOnAnotherRootAreFingered) {
  // Server 3 sends the honest reply and path, but its shares are valid
  // signatures on a different root.  It lands in the honest root's vote,
  // breaks that combine, and is struck; the receipt from the others
  // verifies.
  HandDriven h;
  const std::uint64_t id = h.a.request(bytes_of("lookup alice"));
  HandDriven::Round round;
  round.add(4, id, "lookup alice", "alice -> 10.0.0.7");
  round.add(5, 1, "lookup bob", "bob -> 10.0.0.9");
  HandDriven::Round other;
  other.add(5, 2, "lookup carol", "carol -> 10.0.0.3");
  app::SignedReply swapped = h.reply(3, round, 0);
  swapped.shares = h.sign(3, other.tree());
  h.deliver(3, 4, swapped);
  h.deliver(0, 4, h.reply(0, round, 0));
  EXPECT_TRUE(h.a_receipts.empty());
  EXPECT_EQ(h.a.fingered(), crypto::party_bit(3));
  h.deliver(1, 4, h.reply(1, round, 0));
  ASSERT_TRUE(h.a_receipts.contains(id));
  EXPECT_TRUE(h.a.verify_receipt(id, bytes_of("lookup alice"), h.a_receipts.at(id)));
  EXPECT_EQ(h.a.fingered(), crypto::party_bit(3));
}

TEST(ClientAttackTest, SelfConsistentFakeTreeOutvoted) {
  // Server 3 builds its own tree around a forged answer and signs that
  // root with its own key: the path folds, the shares are valid, and the
  // vote is real — but it is one server's vote, and the honest root
  // outvotes it.
  HandDriven h;
  const std::uint64_t id = h.a.request(bytes_of("lookup alice"));
  HandDriven::Round round;
  round.add(4, id, "lookup alice", "alice -> 10.0.0.7");
  round.add(5, 1, "lookup bob", "bob -> 10.0.0.9");
  HandDriven::Round fake;
  fake.add(5, 7, "lookup mallory", "mallory -> 6.6.6.1");
  fake.add(4, id, "lookup alice", "alice -> 6.6.6.6");
  fake.add(5, 8, "lookup trent", "trent -> 6.6.6.2");
  fake.add(5, 9, "lookup oscar", "oscar -> 6.6.6.3");
  h.deliver(3, 4, h.reply(3, fake, 1));
  h.deliver(0, 4, h.reply(0, round, 0));
  EXPECT_TRUE(h.a_receipts.empty());
  h.deliver(1, 4, h.reply(1, round, 0));
  ASSERT_TRUE(h.a_receipts.contains(id));
  EXPECT_EQ(h.a_receipts.at(id).reply, bytes_of("alice -> 10.0.0.7"));
  EXPECT_TRUE(h.a.verify_receipt(id, bytes_of("lookup alice"), h.a_receipts.at(id)));
  EXPECT_EQ(h.a.fingered(), 0u);
}

TEST(ClientAttackTest, ReshapedPathDoesNotJoinTheHonestRoot) {
  // Leaf 0 of a 3-leaf tree has the same path shape as leaf 0 of a 4-leaf
  // tree, so its path folds to the same root under either count.  The
  // root statement binds the count: a reply that rereads the path against
  // another tree shape votes apart, and a receipt whose count was changed
  // no longer verifies.
  HandDriven h;
  const std::uint64_t id = h.a.request(bytes_of("lookup alice"));
  HandDriven::Round round;
  round.add(4, id, "lookup alice", "alice -> 10.0.0.7");
  round.add(5, 1, "lookup bob", "bob -> 10.0.0.9");
  round.add(5, 2, "lookup carol", "carol -> 10.0.0.3");
  app::SignedReply reshaped = h.reply(3, round, 0);
  reshaped.count = 4;
  ASSERT_EQ(crypto::merkle::fold(
                crypto::merkle::leaf(app::reply_statement("svc", round.requests[0],
                                                          round.replies[0])),
                0, 4, reshaped.path),
            std::optional<crypto::Digest>(round.tree().root()));
  h.deliver(3, 4, reshaped);
  h.deliver(0, 4, h.reply(0, round, 0));
  EXPECT_TRUE(h.a_receipts.empty()) << "a reshaped path joined the honest root's vote";
  h.deliver(1, 4, h.reply(1, round, 0));
  ASSERT_TRUE(h.a_receipts.contains(id));
  const app::ServiceClient::Receipt& receipt = h.a_receipts.at(id);
  EXPECT_EQ(receipt.count, 3u);
  EXPECT_TRUE(h.a.verify_receipt(id, bytes_of("lookup alice"), receipt));
  app::ServiceClient::Receipt recounted = receipt;
  recounted.count = 4;
  EXPECT_FALSE(h.a.verify_receipt(id, bytes_of("lookup alice"), recounted));
}

/// A client endpoint that records every reply and forwards it to whichever
/// ServiceClient currently owns the endpoint (a restarted client swaps in).
class ClientTap final : public net::Process {
 public:
  void on_message(const net::Message& message) override {
    seen.push_back(message);
    if (target != nullptr) target->on_message(message);
  }
  app::ServiceClient* target = nullptr;
  std::vector<net::Message> seen;
};

TEST(ClientAttackTest, DuplicateAfterCompletionIsAnsweredAsOneLeafRounds) {
  // A client restarts and re-sends request 1 after its receipt: every
  // replica finds it in its reply cache and answers, without executing it
  // again, with a one-leaf round.  All honest replicas build the same
  // one-leaf root, so their shares combine into a receipt that verifies
  // and carries the original answer.
  Rng rng(61);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(61);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto s = std::make_unique<SvcState>();
        s->replica = std::make_unique<app::Replica>(
            party, "svc", app::Replica::Mode::kAtomic,
            std::make_unique<app::CertificationAuthority>());
        return s;
      },
      0, /*extra_endpoints=*/1, 61);
  auto tap_owner = std::make_unique<ClientTap>();
  ClientTap* tap = tap_owner.get();
  cluster.attach_client(4, std::move(tap_owner));
  cluster.start();

  app::CaRequest issue;
  issue.op = app::CaRequest::Op::kIssue;
  issue.subject = "dup";
  issue.credentials = "credential:dup";
  const Bytes body = issue.encode();
  std::map<std::uint64_t, app::ServiceClient::Receipt> first_receipts;
  std::map<std::uint64_t, app::ServiceClient::Receipt> second_receipts;
  app::ServiceClient first(cluster.simulator(), 4, deployment, "svc",
                           app::Replica::Mode::kAtomic, 17, HandDriven::record(first_receipts));
  tap->target = &first;
  const std::uint64_t id = first.request(Bytes(body));
  ASSERT_TRUE(cluster.simulator().run_until([&] { return first_receipts.contains(id); },
                                            10000000));
  cluster.simulator().run(1000000);  // drain the other replicas' replies
  std::vector<std::uint64_t> executed;
  cluster.for_each([&](int, SvcState& s) { executed.push_back(s.replica->executed_count()); });

  app::ServiceClient second(cluster.simulator(), 4, deployment, "svc",
                            app::Replica::Mode::kAtomic, 18, HandDriven::record(second_receipts));
  tap->target = &second;
  tap->seen.clear();
  ASSERT_EQ(second.request(Bytes(body)), id);
  ASSERT_TRUE(cluster.simulator().run_until([&] { return second_receipts.contains(id); },
                                            10000000));
  cluster.simulator().run(1000000);
  const app::ServiceClient::Receipt& receipt = second_receipts.at(id);
  EXPECT_EQ(receipt.reply, first_receipts.at(id).reply) << "the duplicate was executed again";
  EXPECT_EQ(receipt.count, 1u);
  EXPECT_EQ(receipt.index, 0u);
  EXPECT_TRUE(receipt.path.empty());
  EXPECT_TRUE(second.verify_receipt(id, body, receipt));
  EXPECT_TRUE(first.verify_receipt(id, body, receipt));
  std::vector<std::uint64_t> executed_after;
  cluster.for_each([&](int, SvcState& s) { executed_after.push_back(s.replica->executed_count()); });
  EXPECT_EQ(executed_after, executed);
  int answers = 0;
  for (const net::Message& message : tap->seen) {
    Reader r(message.payload);
    ASSERT_EQ(r.u8(), app::kReplyOk);
    const app::SignedReply reply = app::SignedReply::decode(r);
    EXPECT_EQ(reply.count, 1u) << "server " << message.from;
    ++answers;
  }
  EXPECT_EQ(answers, 4) << "every replica answers the duplicate";
  EXPECT_EQ(second.fingered(), 0u);
  tap->target = nullptr;
}

// ---- short share vectors: one admission rule at every collection site -------
//
// A share vector counts its sender only if it holds exactly that sender's
// units.  Party `attacker` runs honestly, but a copy of its share message
// with the last share dropped is injected under its identity first: under
// threshold(4, 1) (one unit per party) that is an EMPTY vector, under
// Example 2 (nine units for party 15) it is eight of the nine.  FIFO
// delivery lands the short copy first.  It must be refused at admission —
// not counted as support, which lets a combine fail with no culprit — so
// the honest copy still counts, every honest party finishes and nobody is
// fingered.

struct ShortVectorCase {
  adversary::Deployment deployment;
  int attacker = 0;
};

ShortVectorCase short_vector_case(bool example2, std::uint64_t seed) {
  Rng rng(seed);
  if (example2) return {adversary::example2_deployment(rng), 15};
  return {adversary::Deployment::threshold(4, 1, rng), 3};
}

void expect_abba_refuses_short_coin_vector(bool example2) {
  auto [deployment, attacker] = short_vector_case(example2, 41);
  const int n = deployment.n();
  // FIFO settles this split in rounds 1 and 2 under Example 2; this seeded
  // schedule reaches round 3's threshold coin in both deployments, and the
  // short copy, sent at time zero, still lands long before the attacker's
  // own round-3 share.
  net::RandomScheduler sched(43);
  TraceLog log;
  log.set_enabled(true);
  protocols::Cluster<AbbaState> cluster(deployment, sched, make_abba_state, 0, 0, 41, &log);
  cluster.start();
  {
    Rng attacker_rng(4141);
    const auto& pk = deployment.keys->public_keys().coin;
    auto shares =
        deployment.keys->share(attacker).coin.share(pk, abba_coin_name(3), attacker_rng);
    shares.pop_back();
    inject_from(cluster.simulator(), n, attacker, "ba/0",
                abba_coin_message(deployment, 3, shares));
  }
  // Split inputs: rounds 1 and 2 cannot settle it, so the threshold coin
  // of round 3 is tossed.
  cluster.for_each([](int id, AbbaState& s) { s.abba->start(id % 2 == 0); });
  bool done = false;
  ASSERT_NO_THROW(done = cluster.run_until_all(
                      [](AbbaState& s) { return s.decision.has_value(); }, 20000000));
  ASSERT_TRUE(done);
  ASSERT_GT(trace_count(log, "ba/0 coin r3 ="), 0u) << "the run never tossed the threshold coin";
  std::optional<bool> common;
  cluster.for_each([&](int id, AbbaState& s) {
    if (!common.has_value()) common = s.decision;
    EXPECT_EQ(*s.decision, *common) << "party " << id;
    EXPECT_EQ(s.abba->suspected(), 0u) << "party " << id;
  });
  EXPECT_EQ(trace_count(log, "abba: coin shares not the sender's units", attacker),
            static_cast<std::size_t>(n - 1));
}

TEST(ShortShareVectorTest, AbbaCoinRefusesEmptyVector) {
  expect_abba_refuses_short_coin_vector(false);
}

TEST(ShortShareVectorTest, AbbaCoinRefusesPartialUnitSetUnderExample2) {
  expect_abba_refuses_short_coin_vector(true);
}

struct VbaState {
  std::unique_ptr<protocols::Vba> vba;
  std::optional<Bytes> decision;
};

/// A VBA cluster whose first candidate is `silent`.  The caller keeps that
/// party from proposing, so the first ABBA decides 0 and the permutation
/// coin (the target of the attacks below) is always tossed.
protocols::Cluster<VbaState> make_vba_cluster(const adversary::Deployment& deployment,
                                              net::Scheduler& sched, std::uint64_t seed,
                                              int silent, TraceLog* log = nullptr) {
  return protocols::Cluster<VbaState>(
      deployment, sched,
      [silent](net::Party& party, int) {
        auto s = std::make_unique<VbaState>();
        s->vba = std::make_unique<protocols::Vba>(
            party, "vba/0", silent, [](BytesView) { return true; },
            [p = s.get()](Bytes value) { p->decision = std::move(value); });
        return s;
      },
      0, 0, seed, log);
}

/// Every party but `silent` proposes.
void propose_all_but(protocols::Cluster<VbaState>& cluster, int silent) {
  cluster.for_each([silent](int id, VbaState& s) {
    if (id != silent) s.vba->propose(bytes_of("v" + std::to_string(id)));
  });
}

/// Vba::perm_coin_name() for instance tag "vba/0".
Bytes vba_perm_coin_name() {
  Writer w;
  w.str("sintra/vba/perm");
  w.str("vba/0");
  return w.take();
}

/// A VBA permutation-coin share message carrying `shares`.
Bytes perm_share_payload(const crypto::CoinPublicKey& pk, const std::vector<CoinShare>& shares) {
  Writer w;
  w.u8(0);  // Vba::kPermShare
  w.vec(shares, [&](Writer& wr, const CoinShare& s) { s.encode(wr, pk.group()); });
  return w.take();
}

void expect_vba_refuses_short_perm_vector(bool example2) {
  auto [deployment, attacker] = short_vector_case(example2, 43);
  const int n = deployment.n();
  net::FifoScheduler sched;
  TraceLog log;
  log.set_enabled(true);
  // The attacker also withholds its proposal as the first candidate.
  auto cluster = make_vba_cluster(deployment, sched, 43, attacker, &log);
  cluster.start();
  {
    Rng attacker_rng(4343);
    const auto& pk = deployment.keys->public_keys().coin;
    auto shares = deployment.keys->share(attacker).coin.share(pk, vba_perm_coin_name(),
                                                              attacker_rng);
    shares.pop_back();
    inject_from(cluster.simulator(), n, attacker, "vba/0", perm_share_payload(pk, shares));
  }
  propose_all_but(cluster, attacker);
  bool done = false;
  ASSERT_NO_THROW(done = cluster.run_until_all(
                      [](VbaState& s) { return s.decision.has_value(); }, 50000000));
  ASSERT_TRUE(done);
  const Bytes common = *cluster.protocol(0)->decision;
  cluster.for_each([&](int id, VbaState& s) {
    EXPECT_EQ(*s.decision, common) << "party " << id;
    EXPECT_GE(s.vba->candidates_tried(), 2) << "party " << id << " never combined the coin";
    EXPECT_EQ(s.vba->suspected(), 0u) << "party " << id;
  });
  EXPECT_EQ(trace_count(log, "vba: perm shares not the sender's units", attacker),
            static_cast<std::size_t>(n - 1));
}

TEST(ShortShareVectorTest, VbaPermCoinRefusesEmptyVector) {
  expect_vba_refuses_short_perm_vector(false);
}

TEST(ShortShareVectorTest, VbaPermCoinRefusesPartialUnitSetUnderExample2) {
  expect_vba_refuses_short_perm_vector(true);
}

struct ScState {
  std::unique_ptr<protocols::SecureCausalBroadcast> sc;
  std::vector<Bytes> delivered;
};

void expect_causal_refuses_short_decryption_vector(bool example2) {
  auto [deployment, attacker] = short_vector_case(example2, 47);
  const int n = deployment.n();
  net::FifoScheduler sched;
  TraceLog log;
  log.set_enabled(true);
  protocols::Cluster<ScState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<ScState>();
        s->sc = std::make_unique<protocols::SecureCausalBroadcast>(
            party, "sc", [p = s.get()](std::uint64_t, Bytes plaintext, Bytes) {
              p->delivered.push_back(std::move(plaintext));
            });
        return s;
      },
      0, 0, 47, &log);
  cluster.start();
  const auto& pk = deployment.keys->public_keys().encryption;
  Rng client_rng(4747);
  const auto ciphertext = pk.encrypt(bytes_of("notarize me"), bytes_of("svc"), client_rng);
  {
    auto shares = deployment.keys->share(attacker).decryption.decrypt_shares(pk, ciphertext,
                                                                            client_rng);
    shares.pop_back();
    Writer w;
    w.bytes(ciphertext.id(pk.group()));
    w.vec(shares, [&](Writer& wr, const crypto::Tdh2DecShare& s) { s.encode(wr, pk.group()); });
    inject_from(cluster.simulator(), n, attacker, "sc", w.data());
  }
  cluster.protocol(0)->sc->submit(ciphertext);
  bool done = false;
  ASSERT_NO_THROW(done = cluster.run_until_all(
                      [](ScState& s) { return !s.delivered.empty(); }, 50000000));
  ASSERT_TRUE(done);
  cluster.for_each([](int id, ScState& s) {
    ASSERT_EQ(s.delivered.size(), 1u) << "party " << id;
    EXPECT_EQ(s.delivered[0], bytes_of("notarize me")) << "party " << id;
  });
  EXPECT_EQ(trace_count(log, "sc-abc: shares not the sender's units", attacker),
            static_cast<std::size_t>(n - 1));
}

TEST(ShortShareVectorTest, CausalRefusesEmptyDecryptionShareVector) {
  expect_causal_refuses_short_decryption_vector(false);
}

TEST(ShortShareVectorTest, CausalRefusesPartialUnitSetUnderExample2) {
  expect_causal_refuses_short_decryption_vector(true);
}

// ---- culprits of the permutation coin ----------------------------------------

TEST(CoinShareAttackTest, VbaPermCoinFingersInvalidShareAndDecides) {
  // Party 3 runs honestly, but a permutation-coin share with a perturbed
  // proof is injected under its identity first; FIFO delivery makes it the
  // first perm-coin share from party 3 at every peer.  Party 3 is also
  // the first candidate and withholds its proposal, so the coin is
  // tossed.  The check on arrival must finger exactly party 3, and the
  // VBA still decides.
  Rng rng(53);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  auto cluster = make_vba_cluster(deployment, sched, 53, 3);
  cluster.start();
  {
    Rng attacker_rng(5353);
    const auto& pk = deployment.keys->public_keys().coin;
    auto shares = deployment.keys->share(3).coin.share(pk, vba_perm_coin_name(), attacker_rng);
    for (auto& s : shares) s.proof.z = pk.group().scalar_add(s.proof.z, BigInt(1));
    inject_from(cluster.simulator(), 4, 3, "vba/0", perm_share_payload(pk, shares));
  }
  propose_all_but(cluster, 3);
  ASSERT_TRUE(cluster.run_until_all([](VbaState& s) { return s.decision.has_value(); },
                                    20000000));
  const Bytes common = *cluster.protocol(0)->decision;
  crypto::PartySet fingered_union = 0;
  cluster.for_each([&](int id, VbaState& s) {
    EXPECT_EQ(*s.decision, common) << "party " << id;
    EXPECT_GE(s.vba->candidates_tried(), 2) << "party " << id << " never combined the coin";
    fingered_union |= s.vba->suspected();
  });
  EXPECT_EQ(fingered_union, crypto::party_bit(3));
}

// ---- a failing sender is checked once ----------------------------------------
//
// Party 3 sends a tampered coin share, the same tampered share again, then
// a valid one.  The first fails its check on arrival and strikes party 3
// from that tally, so neither later copy is checked or counted: every
// honest party refuses party 3 exactly once.  A tally that did not bar the
// sender would check the replay as well and refuse it a second time.

/// Refusals `party` traced for messages from party 3 with reason `text`.
std::size_t refusals_from_3(const TraceLog& log, int party, std::string_view text) {
  return static_cast<std::size_t>(
      std::count_if(log.events().begin(), log.events().end(), [&](const TraceEvent& e) {
        return e.party == party && e.message.find("from 3: ") != std::string::npos &&
               e.message.find(text) != std::string::npos;
      }));
}

TEST(CoinShareAttackTest, AbbaCoinFailingSenderIsCheckedOnce) {
  // Party 3 otherwise runs honestly.  Its three shares are injected as
  // soon as the last party enters round 2: round-3 traffic is then no
  // longer parked anywhere, and no party has tossed the round-3 coin yet.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  TraceLog log;
  log.set_enabled(true);
  protocols::Cluster<AbbaState> cluster(deployment, sched, make_abba_state, 0, 0, 11, &log);
  cluster.start();
  // 2-2 input split: rounds 1 and 2 cannot settle it.
  std::vector<int> inputs = {1, 0, 1, 0};
  cluster.for_each([&](int id, AbbaState& s) {
    s.abba->start(inputs[static_cast<std::size_t>(id)] == 1);
  });
  ASSERT_TRUE(cluster.run_until_all(
      [&](AbbaState&) { return trace_count(log, "ba/0 advancing to round 2") >= 4; }, 3000000));
  ASSERT_EQ(trace_count(log, "ba/0 coin r3 ="), 0u);
  {
    Rng attacker_rng(2929);
    const auto& pk = deployment.keys->public_keys().coin;
    auto valid = deployment.keys->share(3).coin.share(pk, abba_coin_name(3), attacker_rng);
    auto tampered = valid;
    for (auto& s : tampered) s.proof.z = pk.group().scalar_add(s.proof.z, BigInt(1));
    for (const auto* shares : {&tampered, &tampered, &valid}) {
      inject_from(cluster.simulator(), 4, 3, "ba/0", abba_coin_message(deployment, 3, *shares));
    }
  }
  ASSERT_TRUE(cluster.run_until_all(
      [](AbbaState& s) { return s.decision.has_value(); }, 3000000));
  ASSERT_GT(trace_count(log, "ba/0 coin r3 =", 3), 0u) << "the run never tossed the coin";
  const bool common = *cluster.protocol(0)->decision;
  for (int id = 0; id < 3; ++id) {
    const AbbaState& s = *cluster.protocol(id);
    EXPECT_EQ(*s.decision, common) << "party " << id;
    EXPECT_EQ(refusals_from_3(log, id, "abba: invalid coin share"), 1u) << "party " << id;
    EXPECT_EQ(s.abba->suspected(), crypto::party_bit(3)) << "party " << id;
  }
}

TEST(CoinShareAttackTest, VbaPermFailingSenderIsCheckedOnce) {
  // No honest party releases its permutation share before the first
  // ABBA decided 0 (party 3, the first candidate, withholds its proposal),
  // so the three shares injected up front all arrive before any
  // permutation can be combined.
  Rng rng(31);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  TraceLog log;
  log.set_enabled(true);
  auto cluster = make_vba_cluster(deployment, sched, 31, 3, &log);
  cluster.start();
  {
    Rng attacker_rng(3131);
    const auto& pk = deployment.keys->public_keys().coin;
    auto valid = deployment.keys->share(3).coin.share(pk, vba_perm_coin_name(), attacker_rng);
    auto tampered = valid;
    for (auto& s : tampered) s.proof.z = pk.group().scalar_add(s.proof.z, BigInt(1));
    for (const auto* shares : {&tampered, &tampered, &valid}) {
      inject_from(cluster.simulator(), 4, 3, "vba/0", perm_share_payload(pk, *shares));
    }
  }
  propose_all_but(cluster, 3);
  ASSERT_TRUE(cluster.run_until_all([](VbaState& s) { return s.decision.has_value(); },
                                    20000000));
  const Bytes common = *cluster.protocol(0)->decision;
  for (int id = 0; id < 3; ++id) {
    const VbaState& s = *cluster.protocol(id);
    EXPECT_EQ(*s.decision, common) << "party " << id;
    EXPECT_GE(s.vba->candidates_tried(), 2) << "party " << id << " never combined the coin";
    EXPECT_EQ(refusals_from_3(log, id, "vba: invalid perm share"), 1u) << "party " << id;
    EXPECT_EQ(s.vba->suspected(), crypto::party_bit(3)) << "party " << id;
  }
}

}  // namespace
}  // namespace sintra
