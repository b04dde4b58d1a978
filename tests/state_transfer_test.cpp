// Certified checkpoints, peer state transfer and the robustness
// satellites (issue 8).
//
// Layers under test, bottom-up:
//   - crypto/checkpoint: certificate statement/verify and the delivery
//     chain digest;
//   - net/transport/health: the accrual per-peer liveness score;
//   - net/fault PartitionProfile: seeded split/heal schedules, one-way
//     loss and gray-peer predicates;
//   - protocols/atomic checkpointing: certificates minted every interval,
//     persisted across WAL snapshot/restore (the satellite-1 retention
//     regression), and installable into a blank party;
//   - net/state_transfer end-to-end: a 4-party LoopbackHub cluster where
//     one party is SIGKILLed, its WAL and snapshots wiped, and the blank
//     restart rebuilds the identical total order from peers' certified
//     checkpoints — under the classical threshold AND a generalized
//     Q3/LSSS deployment, with a seeded partition schedule active during
//     recovery, and with Byzantine peers serving forged certificates or
//     tampered chunks being detected and failed over;
//   - StallWatchdog timeout growth resetting on progress (satellite 2);
//   - a proactive refresh (a same-committee reconfiguration epoch) running
//     concurrently with a state transfer under ExecutorPool(4).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <vector>

#include "adversary/quorum.hpp"
#include "common/rng.hpp"
#include "crypto/checkpoint.hpp"
#include "crypto/shamir.hpp"
#include "net/state_transfer.hpp"
#include "net/transport/health.hpp"
#include "net/transport/loopback.hpp"
#include "protocols/atomic.hpp"
#include "protocols/harness.hpp"
#include "protocols/net_cluster.hpp"
#include "protocols/reconfig.hpp"
#include "protocols/watchdog.hpp"

namespace sintra {
namespace {

using adversary::Deployment;
using adversary::Formula;
using crypto::CheckpointCert;
using net::StateTransfer;
using net::StateTransferOptions;
using net::PartitionProfile;
using net::transport::AccrualHealth;
using protocols::AtomicBroadcast;
using protocols::HostedParty;
using protocols::Reconfig;
using protocols::ReconfigOptions;
using protocols::ReconfigPlan;
using protocols::ReconfigResult;
using protocols::StallWatchdog;

constexpr int kN = 4;

Deployment threshold_deployment(std::uint64_t seed) {
  Rng rng(seed);
  return Deployment::threshold(kN, 1, rng);
}

/// A 4-party generalized deployment: the same access structure as the
/// classical threshold(4, 1) — any two parties reconstruct, singletons
/// are corruptible (Q³ for n = 4) — but dealt over the Benaloh–Leichter
/// LSSS (Deployment::general), so certificate signing, combining and
/// `qualified()` run through the generalized-adversary code path.
Deployment q3_deployment(std::uint64_t seed) {
  Rng rng(seed);
  auto access = Formula::threshold(
      2, {Formula::leaf(0), Formula::leaf(1), Formula::leaf(2), Formula::leaf(3)});
  return Deployment::general(access, kN, rng);
}

/// Combine a full certificate from a quorum's signature shares.
CheckpointCert make_cert(const Deployment& deployment, std::string_view tag,
                         std::uint32_t round, std::uint64_t delivered, Bytes chain,
                         Rng& rng) {
  CheckpointCert cert;
  cert.round = round;
  cert.delivered_count = delivered;
  cert.chain_digest = std::move(chain);
  const Bytes statement = cert.statement(tag);
  const auto& pk = deployment.keys->public_keys().cert_sig;
  std::vector<crypto::SigShare> shares;
  for (int id = 0; id < 3; ++id) {
    auto part = deployment.keys->share(id).cert_sig.sign(pk, statement, rng);
    shares.insert(shares.end(), part.begin(), part.end());
  }
  auto combined = pk.combine(statement, shares);
  EXPECT_TRUE(combined.has_value());
  cert.signature = *combined;
  return cert;
}

// ---- crypto/checkpoint -----------------------------------------------------

TEST(CheckpointCertTest, RoundTripEncodeAndVerify) {
  auto deployment = threshold_deployment(31);
  Rng rng(7);
  Bytes chain = crypto::chain_extend(crypto::chain_initial(), 2, bytes_of("payload"));
  auto cert = make_cert(deployment, "abc", 5, 9, chain, rng);
  const auto& pk = deployment.keys->public_keys().cert_sig;
  EXPECT_TRUE(cert.verify(pk, "abc"));

  Writer w;
  cert.encode(w);
  const Bytes encoded = w.take();
  Reader r(encoded);
  auto decoded = CheckpointCert::decode(r);
  r.expect_done();
  EXPECT_EQ(decoded.round, cert.round);
  EXPECT_EQ(decoded.delivered_count, cert.delivered_count);
  EXPECT_EQ(decoded.chain_digest, cert.chain_digest);
  EXPECT_TRUE(decoded.verify(pk, "abc"));
}

TEST(CheckpointCertTest, RejectsTamperAndForeignTag) {
  auto deployment = threshold_deployment(32);
  Rng rng(8);
  auto cert = make_cert(deployment, "abc", 3, 4, crypto::chain_initial(), rng);
  const auto& pk = deployment.keys->public_keys().cert_sig;
  ASSERT_TRUE(cert.verify(pk, "abc"));
  // Certificates are domain-separated by instance tag.
  EXPECT_FALSE(cert.verify(pk, "other"));
  // Any field flip invalidates the signature.
  auto tampered = cert;
  tampered.delivered_count += 1;
  EXPECT_FALSE(tampered.verify(pk, "abc"));
  tampered = cert;
  tampered.chain_digest[0] ^= 0x01;
  EXPECT_FALSE(tampered.verify(pk, "abc"));
  tampered = cert;
  tampered.round += 1;
  EXPECT_FALSE(tampered.verify(pk, "abc"));
}

TEST(CheckpointCertTest, ChainDigestIsOrderAndOriginSensitive) {
  const Bytes root = crypto::chain_initial();
  const Bytes a = crypto::chain_extend(root, 0, bytes_of("x"));
  const Bytes b = crypto::chain_extend(root, 1, bytes_of("x"));
  EXPECT_NE(a, b) << "origin must be bound into the chain";
  const Bytes ab = crypto::chain_extend(a, 1, bytes_of("y"));
  const Bytes ba = crypto::chain_extend(b, 0, bytes_of("y"));
  EXPECT_NE(ab, ba) << "delivery order must be bound into the chain";
  EXPECT_EQ(a, crypto::chain_extend(root, 0, bytes_of("x"))) << "chain must be deterministic";
}

// ---- net/transport/health --------------------------------------------------

TEST(AccrualHealthTest, SteadyCadenceKeepsBaseTimeout) {
  AccrualHealth health;
  health.reset(0);
  // A chatty peer arriving every 50 ms: the adaptive estimate sits far
  // below the base timeout, and the clamp keeps the base semantics.
  for (std::uint64_t t = 50; t <= 500; t += 50) health.record_arrival(t);
  EXPECT_GE(health.samples(), 4u);
  EXPECT_EQ(health.suspect_timeout_ms(2000), 2000u);
  EXPECT_FALSE(health.suspect(1999, 2000));
  EXPECT_TRUE(health.suspect(2001, 2000));
}

TEST(AccrualHealthTest, SlowJitteryPeerExtendsTimeoutWithinCap) {
  AccrualHealth health;
  health.reset(0);
  // A gray peer with ~1.2 s gaps and heavy jitter: a fixed 2 s timeout
  // would flap, the accrual deadline extends — but never past the cap.
  std::uint64_t now = 0;
  const std::uint64_t gaps[] = {900, 1500, 1100, 1600, 1000, 1400, 1200, 1500};
  for (std::uint64_t gap : gaps) {
    now += gap;
    health.record_arrival(now);
  }
  const std::uint64_t deadline = health.suspect_timeout_ms(2000);
  EXPECT_GT(deadline, 2000u) << "slow peer should earn a longer deadline";
  EXPECT_LE(deadline, 4u * 2000u) << "cap at max_factor * base";
  EXPECT_FALSE(health.suspect(deadline, 2000));
  EXPECT_TRUE(health.suspect(4 * 2000 + 1, 2000));
}

TEST(AccrualHealthTest, TooFewSamplesAndResetFallBackToBase) {
  AccrualHealth health;
  health.reset(0);
  health.record_arrival(3000);
  health.record_arrival(6000);
  EXPECT_EQ(health.suspect_timeout_ms(2000), 2000u) << "estimate not trusted yet";
  for (std::uint64_t t = 9000; t <= 21000; t += 3000) health.record_arrival(t);
  EXPECT_GT(health.suspect_timeout_ms(2000), 2000u);
  health.reset(30000);
  EXPECT_EQ(health.samples(), 0u);
  EXPECT_EQ(health.suspect_timeout_ms(2000), 2000u) << "reset must forget the cadence";
}

// ---- net/fault PartitionProfile --------------------------------------------

TEST(PartitionProfileTest, SplitHealScheduleShape) {
  auto profile = PartitionProfile::split_heal(kN, /*seed=*/5, /*period=*/32, /*splits=*/3);
  EXPECT_TRUE(profile.active());
  ASSERT_EQ(profile.phases.size(), 6u) << "each split is followed by a heal phase";
  EXPECT_EQ(profile.schedule_steps(), 6u * 32u);
  // Past the schedule everything is healed.
  for (int a = 0; a < kN; ++a) {
    for (int b = a + 1; b < kN; ++b) {
      EXPECT_FALSE(profile.severed(a, b, profile.schedule_steps() + 1));
    }
  }
  // During a split phase: severed iff the two nodes sit in different
  // groups, symmetric, never self-severed; and both groups are non-empty.
  std::uint64_t step = 0;
  for (std::size_t i = 0; i < profile.phases.size(); ++i) {
    const auto& phase = profile.phases[i];
    if (!phase.group_of.empty()) {
      ASSERT_EQ(phase.group_of.size(), static_cast<std::size_t>(kN));
      bool any_severed = false;
      for (int a = 0; a < kN; ++a) {
        EXPECT_FALSE(profile.severed(a, a, step));
        for (int b = 0; b < kN; ++b) {
          const bool expect =
              phase.group_of[static_cast<std::size_t>(a)] != phase.group_of[static_cast<std::size_t>(b)];
          EXPECT_EQ(profile.severed(a, b, step), expect);
          EXPECT_EQ(profile.severed(a, b, step), profile.severed(b, a, step));
          any_severed = any_severed || expect;
        }
      }
      EXPECT_TRUE(any_severed) << "split phase " << i << " severed nothing";
    }
    step += phase.steps;
  }
  // The last phase is a heal.
  EXPECT_TRUE(profile.phases.back().group_of.empty());
}

TEST(PartitionProfileTest, OneWayAndGrayPredicates) {
  PartitionProfile profile;
  profile.oneway_loss_chance = 512;
  profile.oneway_pairs = {{0, 2}};
  profile.gray_delay_chance = 512;
  profile.gray_peers = {1};
  EXPECT_TRUE(profile.active());
  EXPECT_TRUE(profile.one_way(0, 2));
  EXPECT_FALSE(profile.one_way(2, 0)) << "one-way loss must be asymmetric";
  EXPECT_FALSE(profile.one_way(0, 1));
  EXPECT_TRUE(profile.gray(1));
  EXPECT_FALSE(profile.gray(0));
  EXPECT_FALSE(PartitionProfile{}.active());
}

// ---- simulator cluster: certification, WAL retention, install --------------

struct AbcState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::vector<std::pair<int, Bytes>> delivered;
};

protocols::Cluster<AbcState> make_ckpt_cluster(Deployment deployment, net::Scheduler& sched,
                                               std::uint64_t seed) {
  return protocols::Cluster<AbcState>(
      std::move(deployment), sched,
      [](net::Party& party, int) {
        party.enable_wal();
        auto state = std::make_unique<AbcState>();
        state->abc = std::make_unique<AtomicBroadcast>(
            party, "abc", [s = state.get()](int origin, Bytes payload) {
              s->delivered.emplace_back(origin, std::move(payload));
            });
        state->abc->enable_checkpoints(1);
        return state;
      },
      0, 0, seed);
}

TEST(CheckpointClusterTest, EveryRoundMintsAVerifiableCertificate) {
  auto deployment = threshold_deployment(41);
  net::RandomScheduler sched(41);
  auto cluster = make_ckpt_cluster(deployment, sched, 41);
  cluster.start();
  for (int i = 0; i < 3; ++i) {
    cluster.protocol(i)->abc->submit(bytes_of("m" + std::to_string(i)));
  }
  ASSERT_TRUE(cluster.run_until_all(
      [](AbcState& s) {
        const auto& cert = s.abc->latest_certificate();
        return s.delivered.size() >= 3 && cert.has_value() && cert->delivered_count >= 3;
      },
      20000000));
  const auto& pk = deployment.keys->public_keys().cert_sig;
  const auto& reference = *cluster.protocol(0)->abc->latest_certificate();
  cluster.for_each([&](int id, AbcState& s) {
    const auto& cert = s.abc->latest_certificate();
    ASSERT_TRUE(cert.has_value()) << "party " << id;
    EXPECT_TRUE(cert->verify(pk, "abc")) << "party " << id;
    EXPECT_EQ(cert->chain_digest, reference.chain_digest) << "party " << id;
    EXPECT_EQ(cert->delivered_count, reference.delivered_count) << "party " << id;
    // The live chain caught up with (or passed) the certified prefix.
    EXPECT_EQ(s.abc->delivered_count(), cert->delivered_count) << "party " << id;
    EXPECT_EQ(s.abc->chain_digest(), cert->chain_digest) << "party " << id;
  });
}

TEST(CheckpointClusterTest, CertificateSurvivesWalCompactionAndRestore) {
  // Satellite-1 regression: run several checkpointed rounds so compaction
  // prunes old checkpoint-share records, then snapshot and restore a
  // party — the restored incarnation must still hold the latest
  // certificate and the full delivered prefix.
  auto deployment = threshold_deployment(43);
  net::RandomScheduler sched(43);
  auto cluster = make_ckpt_cluster(deployment, sched, 43);
  cluster.start();
  cluster.protocol(0)->abc->submit(bytes_of("one"));
  ASSERT_TRUE(cluster.run_until_all(
      [](AbcState& s) { return s.delivered.size() >= 1; }, 20000000));
  cluster.protocol(1)->abc->submit(bytes_of("two"));
  cluster.protocol(2)->abc->submit(bytes_of("three"));
  ASSERT_TRUE(cluster.run_until_all(
      [](AbcState& s) {
        const auto& cert = s.abc->latest_certificate();
        return s.delivered.size() >= 3 && cert.has_value() && cert->delivered_count >= 3;
      },
      20000000));

  const Bytes snapshot = cluster.party(0)->snapshot();
  const auto original_cert = *cluster.protocol(0)->abc->latest_certificate();
  const auto original_delivered = cluster.protocol(0)->delivered;

  net::RandomScheduler replay_sched(1);
  net::Simulator replay_sim(kN, replay_sched);
  HostedParty<AbcState> replayed(replay_sim, 0, deployment, 43 * 7919,
                                 [](net::Party& party) {
                                   party.enable_wal();
                                   auto state = std::make_unique<AbcState>();
                                   state->abc = std::make_unique<AtomicBroadcast>(
                                       party, "abc",
                                       [s = state.get()](int origin, Bytes payload) {
                                         s->delivered.emplace_back(origin, std::move(payload));
                                       });
                                   state->abc->enable_checkpoints(1);
                                   return state;
                                 });
  replayed.restore(snapshot);
  EXPECT_EQ(replayed.protocol().delivered, original_delivered);
  const auto& cert = replayed.protocol().abc->latest_certificate();
  ASSERT_TRUE(cert.has_value()) << "compaction lost the checkpoint record";
  EXPECT_EQ(cert->round, original_cert.round);
  EXPECT_EQ(cert->delivered_count, original_cert.delivered_count);
  EXPECT_EQ(cert->chain_digest, original_cert.chain_digest);
  EXPECT_TRUE(cert->verify(deployment.keys->public_keys().cert_sig, "abc"));
}

TEST(CheckpointClusterTest, CertifiedStateInstallsIntoBlankPartyAndRejectsTampering) {
  auto deployment = threshold_deployment(47);
  net::RandomScheduler sched(47);
  auto cluster = make_ckpt_cluster(deployment, sched, 47);
  cluster.start();
  for (int i = 0; i < 3; ++i) {
    cluster.protocol(i)->abc->submit(bytes_of("p" + std::to_string(i)));
  }
  ASSERT_TRUE(cluster.run_until_all(
      [](AbcState& s) {
        const auto& cert = s.abc->latest_certificate();
        return cert.has_value() && cert->delivered_count >= 3;
      },
      20000000));
  const auto cert = *cluster.protocol(0)->abc->latest_certificate();
  const Bytes state = cluster.protocol(0)->abc->certified_state(cert);
  ASSERT_FALSE(state.empty());

  auto blank = [&deployment](net::Simulator& sim) {
    return std::make_unique<HostedParty<AbcState>>(
        sim, 3, deployment, 99, [](net::Party& party) {
          party.enable_wal();
          auto s = std::make_unique<AbcState>();
          s->abc = std::make_unique<AtomicBroadcast>(
              party, "abc", [p = s.get()](int origin, Bytes payload) {
                p->delivered.emplace_back(origin, std::move(payload));
              });
          return s;
        });
  };

  net::RandomScheduler sched2(2);
  net::Simulator sim2(kN, sched2);
  auto good = blank(sim2);
  ASSERT_TRUE(good->protocol().abc->install_checkpoint(cert, state));
  EXPECT_EQ(good->protocol().delivered, cluster.protocol(0)->delivered)
      << "installed prefix must replay the identical total order";
  EXPECT_EQ(good->protocol().abc->chain_digest(), cert.chain_digest);
  EXPECT_FALSE(good->protocol().abc->install_checkpoint(cert, state))
      << "re-installing an already-covered checkpoint must be a no-op";

  // A tampered snapshot re-hashes to a different chain: rejected.
  net::RandomScheduler sched3(3);
  net::Simulator sim3(kN, sched3);
  auto victim = blank(sim3);
  Bytes tampered = state;
  tampered.back() ^= 0xff;
  EXPECT_FALSE(victim->protocol().abc->install_checkpoint(cert, tampered));
  EXPECT_EQ(victim->protocol().delivered.size(), 0u);

  // A forged certificate (unsigned digest) is rejected before any replay.
  auto forged = cert;
  forged.chain_digest[0] ^= 0x5a;
  EXPECT_FALSE(victim->protocol().abc->install_checkpoint(forged, state));
}

// ---- satellite 2: watchdog timeout growth resets on progress ---------------

TEST(WatchdogBackoffTest, GrowthResetsOnProgressNotOnlyOnFire) {
  auto deployment = threshold_deployment(53);
  net::RandomScheduler sched(53);
  std::uint64_t counter = 0;
  protocols::Cluster<StallWatchdog> cluster(
      deployment, sched,
      [](net::Party& party, int) { return std::make_unique<StallWatchdog>(party); }, 0, 0,
      53);
  cluster.start();
  StallWatchdog& wd = *cluster.protocol(0);
  wd.arm(/*timeout=*/10, /*done=*/[] { return false; },
         /*progress=*/[&counter] { return counter; }, /*recover=*/[] {});
  EXPECT_EQ(wd.current_timeout(), 10u);

  // Stall: three fruitless recoveries double the timeout each time.
  ASSERT_TRUE(cluster.simulator().run_until([&] { return wd.recoveries() >= 3; }, 100000));
  EXPECT_EQ(wd.backoff(), 3u);
  EXPECT_EQ(wd.current_timeout(), 10u << 3);

  // Recover: progress snaps the armed timeout back to base immediately —
  // the regression this satellite fixes (one historic stall used to leave
  // the grown timeout in place until the inflated timer next fired).
  ++counter;
  wd.note_progress();
  EXPECT_EQ(wd.backoff(), 0u);
  EXPECT_EQ(wd.current_timeout(), 10u);

  // And a later stall grows again from the base, not from the old peak.
  const std::uint64_t before = wd.recoveries();
  ASSERT_TRUE(cluster.simulator().run_until(
      [&] { return wd.recoveries() >= before + 1; }, 100000));
  EXPECT_EQ(wd.backoff(), 1u);
  EXPECT_EQ(wd.current_timeout(), 10u << 1);
}

// ---- tentpole: wipe-recovery over LoopbackHub ------------------------------

struct RecState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::unique_ptr<StateTransfer> xfer;
  std::unique_ptr<Reconfig> refresh;
  std::optional<ReconfigResult> refresh_result;
  std::vector<std::pair<int, Bytes>> delivered;
  std::atomic<std::size_t> total{0};
  std::atomic<bool> refreshed{false};
  std::atomic<int> recovery{0};  ///< 0 = pending, 1 = ok, 2 = failed
};

using RecoveryCluster = protocols::NetCluster<RecState>;

/// A checkpointed atomic broadcast with a StateTransfer wired to it (and,
/// `with_refresh`, a proactive refresh — the same-committee reconfiguration
/// epoch), built on `party`.
std::unique_ptr<RecState> make_state(net::Party& party, StateTransferOptions options,
                                     bool with_refresh) {
  auto state = std::make_unique<RecState>();
  party.with_instance("abc", [&] {
    state->abc = std::make_unique<AtomicBroadcast>(
        party, "abc", [s = state.get()](int origin, Bytes payload) {
          s->delivered.emplace_back(origin, std::move(payload));
          s->total.fetch_add(1, std::memory_order_release);
        });
    state->abc->enable_checkpoints(1);
    // The transfer instance lives in the "abc" tag tree (tag root
    // "abc"), so under concurrent executors its handlers run on the
    // same lane as the broadcast they install into — no cross-lane
    // touches of protocol state.
    auto* abc = state->abc.get();
    state->xfer = std::make_unique<StateTransfer>(
        party, "abc/xfer", "abc", [abc] { return abc->latest_certificate(); },
        [abc](const CheckpointCert& cert) { return abc->certified_state(cert); },
        [abc](const CheckpointCert& cert, BytesView bytes) {
          return abc->install_checkpoint(cert, bytes);
        },
        options);
  });
  if (with_refresh) {
    party.with_instance("reconfig", [&] {
      state->refresh = std::make_unique<Reconfig>(
          party, "reconfig", ReconfigPlan::same_committee(1, kN, 1), std::nullopt,
          ReconfigOptions{}, [s = state.get()](const ReconfigResult& r) {
            s->refresh_result = r;
            s->refreshed.store(true, std::memory_order_release);
          });
    });
  }
  return state;
}

/// Four NetworkedNode+LoopbackHub parties running make_state.  A node can
/// be killed (process gone, WAL and snapshots lost with it) and rebuilt
/// blank — only the dealt key share, which lives in the Deployment,
/// survives, exactly the disaster the certified transfer recovers from.
/// Each incarnation of node `id` runs with `options[id]` as it stands at
/// (re)build time.
RecoveryCluster make_cluster(const Deployment& deployment, std::uint64_t seed,
                             const std::vector<StateTransferOptions>& options,
                             std::size_t executors = 0, bool with_refresh = false) {
  return RecoveryCluster(
      {deployment},
      [&options, with_refresh](net::Party& party, int id, int) {
        party.enable_wal();
        return make_state(party, options[static_cast<std::size_t>(id)], with_refresh);
      },
      {.executors = executors, .seed = seed});
}

/// Retry and query windows short enough for a test-sized recovery.
StateTransferOptions fast_recovery() {
  StateTransferOptions options;
  options.query_window = 30;
  options.retry_timeout = 80;
  options.max_rounds = 16;
  return options;
}

void submit(RecoveryCluster& cluster, int id, Bytes payload) {
  auto& host = cluster.host(id);
  host.party().with_instance("abc", [&] { host.protocol().abc->submit(std::move(payload)); });
}

void begin_recovery(RecoveryCluster& cluster, int id) {
  RecState& rec = cluster.protocol(id);
  cluster.host(id).party().with_instance("abc", [&rec] {
    rec.xfer->begin_recovery([&rec](bool ok) {
      rec.recovery.store(ok ? 1 : 2, std::memory_order_release);
    });
  });
}

/// Everyone at `total`, then drain until the wire is dry: eight pump
/// passes in a row in which no frame moved and no node dispatched.
bool settle(RecoveryCluster& cluster, std::size_t total) {
  const bool at_total = cluster.run_until([&] {
    for (int id = 0; id < kN; ++id) {
      if (cluster.protocol(id).total.load(std::memory_order_acquire) < total) return false;
    }
    return true;
  });
  if (!at_total) return false;
  std::uint64_t last = 0;
  int calm = 0;
  return cluster.run_until([&] {
    std::uint64_t moved = cluster.hub().stats().delivered_frames;
    for (int id = 0; id < kN; ++id) moved += cluster.node(id).stats().dispatched;
    calm = moved == last ? calm + 1 : 0;
    last = moved;
    return calm >= 8;
  });
}

void expect_identical_total_order(RecoveryCluster& cluster, std::size_t expect_total) {
  // Synchronize with executor lanes before reading the raw vectors.
  cluster.wait_idle();
  const auto& reference = cluster.protocol(0).delivered;
  ASSERT_EQ(reference.size(), expect_total);
  for (int id = 1; id < kN; ++id) {
    EXPECT_EQ(cluster.protocol(id).delivered, reference)
        << "node " << id << " diverged from the recovered total order";
  }
}

void run_wipe_recovery(Deployment deployment, std::uint64_t seed) {
  std::vector<StateTransferOptions> options(kN);
  RecoveryCluster cluster = make_cluster(deployment, seed, options);
  for (int id = 0; id < kN; ++id) submit(cluster, id, bytes_of("pre" + std::to_string(id)));
  ASSERT_TRUE(settle(cluster, kN)) << "pre-crash traffic never settled";
  ASSERT_TRUE(cluster.protocol(0).abc->latest_certificate().has_value());
  {
    const auto& c0 = *cluster.protocol(0).abc->latest_certificate();
    ASSERT_FALSE(cluster.protocol(0).abc->certified_state(c0).empty())
        << "peer cannot serialize its own certified prefix: cert.delivered="
        << c0.delivered_count << " abc.delivered=" << cluster.protocol(0).abc->delivered_count();
  }

  // SIGKILL node 3 and wipe its disk; bring a blank incarnation back with
  // nothing but its dealt key share, under an active partition schedule
  // (split twice, heal) while it recovers.
  cluster.kill(3);
  cluster.hub().set_partition_profile(
      PartitionProfile::split_heal(kN, seed * 13 + 1, /*period=*/48, /*splits=*/2));
  options[3] = fast_recovery();
  cluster.build(3);
  RecState& rec = cluster.protocol(3);
  EXPECT_EQ(rec.total.load(), 0u) << "the wiped node must restart blank";
  begin_recovery(cluster, 3);
  ASSERT_TRUE(cluster.run_until([&] { return rec.recovery.load(std::memory_order_acquire) != 0; }))
      << "state transfer never finished";
  ASSERT_EQ(rec.recovery.load(), 1)
      << "state transfer failed: offers=" << rec.xfer->stats().offers_received
      << " bad_certs=" << rec.xfer->stats().bad_certificates
      << " fetched=" << rec.xfer->stats().chunks_fetched
      << " retries=" << rec.xfer->stats().chunk_retries
      << " failovers=" << rec.xfer->stats().failovers
      << " peer0_queries_served=" << cluster.protocol(0).xfer->stats().queries_served
      << " peer0_cert=" << cluster.protocol(0).abc->latest_certificate().has_value();
  EXPECT_EQ(rec.xfer->stats().installs, 1u);
  EXPECT_EQ(rec.total.load(), static_cast<std::size_t>(kN))
      << "install must re-deliver the certified prefix";
  EXPECT_GT(cluster.hub().stats().partition_splits, 0u) << "partition schedule never engaged";

  // The rejoined node commits new traffic in the same total order.
  submit(cluster, 0, bytes_of("post0"));
  submit(cluster, 3, bytes_of("post3"));
  ASSERT_TRUE(settle(cluster, kN + 2)) << "post-recovery traffic never settled";
  // By now the schedule has drained: every severed pair was healed again.
  EXPECT_EQ(cluster.hub().stats().partition_heals, cluster.hub().stats().partition_splits)
      << "schedule must end healed";
  expect_identical_total_order(cluster, kN + 2);
}

TEST(StateTransferClusterTest, WipedPartyRecoversUnderThresholdDeployment) {
  run_wipe_recovery(threshold_deployment(61), 61);
}

TEST(StateTransferClusterTest, WipedPartyRecoversUnderGeneralQ3Deployment) {
  run_wipe_recovery(q3_deployment(67), 67);
}

TEST(StateTransferClusterTest, PartitionWipeSeedSweep) {
  // Chaos coverage: sweep fresh (hub seed, partition schedule, deployment)
  // tuples through the full wipe-and-recover scenario, alternating
  // threshold and general-Q3 deployments.  SINTRA_STATEXFER_SEEDS widens
  // the sweep in the nightly ASan job; the per-push default runs a single
  // extra tuple beyond the two pinned tests above.
  int seeds = 1;
  if (const char* env = std::getenv("SINTRA_STATEXFER_SEEDS")) {
    const int value = std::atoi(env);
    if (value > 0) seeds = value;
  }
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 101 + 7 * static_cast<std::uint64_t>(i);
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    if (i % 2 == 0) {
      run_wipe_recovery(threshold_deployment(seed), seed);
    } else {
      run_wipe_recovery(q3_deployment(seed), seed);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Peer 0 serves a forged certificate (chain digest altered after
/// signing), peer 1 serves tampered chunks, peer 2 is honest.  The
/// recovery must detect both, blacklist the offenders and install from
/// the honest peer.  Returns the recovering node's stats so the caller
/// can tell whether the tamperer's offer won the tie and the
/// chunk-verification failover genuinely ran.
StateTransfer::Stats run_byzantine_recovery(std::uint64_t seed) {
  std::vector<StateTransferOptions> options(kN);
  options[0].forge_certificate = true;
  options[1].tamper_chunks = true;
  RecoveryCluster cluster = make_cluster(threshold_deployment(seed), seed, options);
  for (int id = 0; id < kN; ++id) submit(cluster, id, bytes_of("pre" + std::to_string(id)));
  EXPECT_TRUE(settle(cluster, kN));

  cluster.kill(3);
  options[3] = fast_recovery();
  cluster.build(3);
  RecState& rec = cluster.protocol(3);
  begin_recovery(cluster, 3);
  EXPECT_TRUE(
      cluster.run_until([&] { return rec.recovery.load(std::memory_order_acquire) != 0; }));
  EXPECT_EQ(rec.recovery.load(), 1) << "recovery must fail over to the honest peer";

  const StateTransfer::Stats stats = rec.xfer->stats();
  EXPECT_GE(stats.bad_certificates, 1u) << "forged certificate went undetected";
  EXPECT_EQ(stats.installs, 1u);
  EXPECT_EQ(rec.total.load(), static_cast<std::size_t>(kN));

  submit(cluster, 2, bytes_of("post"));
  EXPECT_TRUE(settle(cluster, kN + 1));
  expect_identical_total_order(cluster, kN + 1);
  return stats;
}


TEST(StateTransferClusterTest, ByzantineServersAreDetectedAndFailedOver) {
  // Every run must detect both offenders and recover.  Whether the
  // tampering peer's offer arrives (and wins the highest-round tie) before
  // the honest peer's depends on the hub's delivery order, so hub seeds are
  // swept until one does: there the fetch starts against the tamperer,
  // every chunk fails the manifest digest, and the protocol fails over to
  // the honest peer — on top of the forged-certificate blacklisting every
  // run checks.
  bool tampered = false;
  for (std::uint64_t seed = 1; seed <= 8 && !tampered; ++seed) {
    SCOPED_TRACE("hub seed " + std::to_string(seed));
    const StateTransfer::Stats stats = run_byzantine_recovery(seed);
    if (stats.bad_chunks == 0) continue;
    tampered = true;
    EXPECT_GE(stats.failovers, 1u) << "tamperer was never abandoned";
  }
  EXPECT_TRUE(tampered) << "no hub seed in 1-8 ran the tampered chunk path";
}

// ---- refresh concurrent with state transfer under E=4 ----------------------

TEST(StateTransferClusterTest, RefreshRunsConcurrentlyWithRecoveryUnderExecutors) {
  // Nodes 0-2 run a proactive refresh (a same-committee reconfiguration
  // epoch) while the wiped node 3 rebuilds via state transfer, all with
  // ExecutorPool(4) per node — the reconfig tree, the service tree and the
  // transfer run on separate lanes.  Afterwards: the refreshed shares are
  // consistent among themselves, reject mixing with epoch e-1 shares, and
  // the recovered node holds the identical total order.
  auto deployment = threshold_deployment(83);
  const std::uint64_t seed = 83;
  std::vector<StateTransferOptions> options(kN);
  RecoveryCluster cluster =
      make_cluster(deployment, seed, options, /*executors=*/4, /*with_refresh=*/true);
  for (int id = 0; id < kN; ++id) submit(cluster, id, bytes_of("pre" + std::to_string(id)));
  ASSERT_TRUE(settle(cluster, kN));

  cluster.kill(3);
  options[3] = fast_recovery();
  cluster.build(3);
  RecState& rec = cluster.protocol(3);
  // Kick off the refresh epoch and the recovery together.
  for (int id = 0; id < 3; ++id) {
    auto& host = cluster.host(id);
    host.party().with_instance("reconfig", [&] { host.protocol().refresh->start(); });
  }
  begin_recovery(cluster, 3);
  ASSERT_TRUE(cluster.run_until([&] {
    if (rec.recovery.load(std::memory_order_acquire) == 0) return false;
    for (int id = 0; id < 3; ++id) {
      if (!cluster.protocol(id).refreshed.load(std::memory_order_acquire)) return false;
    }
    return true;
  })) << "refresh and recovery did not both complete";
  ASSERT_EQ(rec.recovery.load(), 1);
  EXPECT_EQ(rec.total.load(), static_cast<std::size_t>(kN));

  submit(cluster, 1, bytes_of("post"));
  ASSERT_TRUE(settle(cluster, kN + 1));
  cluster.stop();  // join lanes: refresh results are safe to read now
  for (int id = 0; id < 3; ++id) {
    const ReconfigResult& r = *cluster.protocol(id).refresh_result;
    EXPECT_TRUE(r.completed && r.share_valid) << "node " << id;
  }
  expect_identical_total_order(cluster, kN + 1);

  // Epoch algebra: fresh shares agree with each other and reconstruct the
  // original secret; a share from epoch e-1 mixed into epoch e
  // interpolates to garbage — the restored party must not accept stale
  // shares after the epoch advanced.
  const auto& group = deployment.keys->public_keys().coin.group();
  crypto::ThresholdScheme scheme(kN, 1);
  std::map<int, crypto::BigInt> old_shares;
  std::map<int, crypto::BigInt> new_shares;
  for (int id : {0, 2}) {
    old_shares[id] = deployment.keys->share(id).coin.unit_shares().at(id);
    new_shares[id] = cluster.protocol(id).refresh_result->shares[protocols::kKeyCoin];
  }
  EXPECT_EQ(scheme.reconstruct(old_shares, group.q()),
            scheme.reconstruct(new_shares, group.q()))
      << "refresh must preserve the shared secret";
  std::map<int, crypto::BigInt> mixed;
  mixed[0] = deployment.keys->share(0).coin.unit_shares().at(0);  // epoch e-1
  mixed[1] = cluster.protocol(1).refresh_result->shares[protocols::kKeyCoin];         // epoch e
  EXPECT_NE(scheme.reconstruct(mixed, group.q()), scheme.reconstruct(new_shares, group.q()))
      << "stale epoch e-1 shares must not combine into epoch e";
}

}  // namespace
}  // namespace sintra
