// Online membership reconfiguration (issue 9).
//
// Layers under test, bottom-up:
//   - crypto/reshare: DL and RSA verifiable share redistribution preserve
//     the shared secret across (n, t) -> (n', t') committee changes while
//     old shares stop combining with new ones;
//   - protocols/reconfig: the epoch protocol — swap / grow / shrink
//     committees over the embedded atomic broadcast, Byzantine dealers
//     fingered, too-few dealings aborting cleanly with the old committee
//     intact, joiners verifying a JoinPackage, pre-epoch coin values,
//     TDH2 ciphertexts and checkpoint certificates surviving the epoch, and
//     the same-committee epoch that serves as proactive refresh;
//   - chaos: the same epoch under message chaos, a mid-epoch crash restart
//     (WAL replay), and an active LoopbackHub partition schedule;
//   - the membership fence: a same-committee epoch re-keys every pair's
//     channel, so a TcpTransport end keyed for the old deployment cannot
//     reach one keyed for the new; a mid-epoch WAL snapshot restores
//     bit-exactly under ExecutorPool(4), and Party refuses snapshot
//     layouts it does not know;
//   - app/client: ServiceClient follows a signed NEW-CONFIG announcement
//     and rejects stale or tampered ones;
//   - the documented gap: an applied-but-invalid sub-share is DETECTED
//     (share_valid == false) instead of surfacing as a bad signature share
//     later.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adversary/quorum.hpp"
#include "app/client.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "crypto/reshare.hpp"
#include "crypto/shamir.hpp"
#include "crypto/sha256.hpp"
#include "net/fault.hpp"
#include "net/transport/loopback.hpp"
#include "net/transport/networked_node.hpp"
#include "net/transport/tcp_transport.hpp"
#include "protocols/harness.hpp"
#include "protocols/net_cluster.hpp"
#include "protocols/reconfig.hpp"

namespace sintra {
namespace {

using adversary::Deployment;
using common::ExecutorPool;
using crypto::BigInt;
using crypto::CheckpointCert;
using crypto::PartySet;
using crypto::contains;
using crypto::party_bit;
using net::PartitionProfile;
using net::transport::NetworkedNode;
using protocols::AtomicBroadcast;
using protocols::ChaosCluster;
using protocols::Cluster;
using protocols::HostedParty;
using protocols::JoinListener;
using protocols::JoinPackage;
using protocols::NewConfig;
using protocols::Reconfig;
using protocols::ReconfigOptions;
using protocols::ReconfigPlan;
using protocols::ReconfigResult;
using protocols::assemble_committee;
using protocols::kKeyCert;
using protocols::kKeyCoin;
using protocols::kKeyQuorum;
using protocols::kKeyReply;
using protocols::kKeyTdh2;
using protocols::reconfig_public_deployment;

constexpr const char* kTag = "reconfig";

/// Out-of-band provisioned pairwise secret between old member `dealer` and
/// the joiner filling new slot `slot` in epoch `epoch`.  Both sides of a
/// test derive it from the same inputs, standing in for the operator
/// channel that provisions real deployments.
Bytes join_key(std::uint32_t epoch, int dealer, int slot) {
  Writer w;
  w.u32(epoch);
  w.u32(static_cast<std::uint32_t>(dealer));
  w.u32(static_cast<std::uint32_t>(slot));
  return crypto::hash_expand("test/reconfig/join-key", w.data(), 32);
}

ReconfigPlan make_plan(std::uint32_t epoch, int n_old, int t_old, int t_new,
                       std::vector<std::int32_t> old_slot) {
  ReconfigPlan plan;
  plan.new_epoch = epoch;
  plan.n_old = n_old;
  plan.t_old = t_old;
  plan.n_new = static_cast<std::int32_t>(old_slot.size());
  plan.t_new = t_new;
  plan.old_slot = std::move(old_slot);
  return plan;
}

/// (4,1) -> (4,1): old slot 3 retires, a blank joiner fills new slot 3.
ReconfigPlan swap_plan() { return make_plan(1, 4, 1, 1, {0, 1, 2, -1}); }
/// (4,1) -> (5,1): everyone survives, a joiner fills new slot 4.
ReconfigPlan grow_plan() { return make_plan(1, 4, 1, 1, {0, 1, 2, 3, -1}); }

struct ReconfigState {
  std::unique_ptr<Reconfig> reconfig;
  std::optional<ReconfigResult> result;
  /// Set after `result` on loopback runs, where a pump-thread predicate
  /// polls it while executor lanes write `result`.
  std::atomic<bool> finished{false};
};

ReconfigOptions options_for(const ReconfigPlan& plan, int id, PartySet garbage) {
  ReconfigOptions options;
  for (int slot = 0; slot < plan.n_new; ++slot) {
    if (plan.joining(slot)) options.join_keys[slot] = join_key(plan.new_epoch, id, slot);
  }
  options.deal_garbage = contains(garbage, id);
  return options;
}

/// One reconfiguration epoch over the simulator: an old committee dealt by
/// `deployment` (or a fresh threshold one) runs Reconfig for `plan`.
struct EpochHarness {
  EpochHarness(Deployment dep, ReconfigPlan p, std::uint64_t seed, PartySet garbage = 0,
               std::optional<CheckpointCert> fence = std::nullopt, PartySet crashed = 0)
      : deployment(std::move(dep)), plan(std::move(p)), fence_(std::move(fence)),
        sched(seed * 3 + 1),
        cluster(
            deployment, sched,
            [this, garbage](net::Party& party, int id) {
              auto state = std::make_unique<ReconfigState>();
              state->reconfig = std::make_unique<Reconfig>(
                  party, kTag, plan, fence_, options_for(plan, id, garbage),
                  [s = state.get()](const ReconfigResult& r) { s->result = r; });
              return state;
            },
            crashed, 0, seed) {}

  static EpochHarness fresh(ReconfigPlan plan, std::uint64_t seed, PartySet garbage = 0,
                            PartySet crashed = 0) {
    Rng rng(seed);
    auto deployment = Deployment::threshold(plan.n_old, plan.t_old, rng);
    return EpochHarness(std::move(deployment), std::move(plan), seed, garbage, std::nullopt,
                        crashed);
  }

  bool run() {
    cluster.start();
    cluster.for_each([](int, ReconfigState& s) { s.reconfig->start(); });
    return cluster.run_until_all([](ReconfigState& s) { return s.result.has_value(); },
                                 60000000);
  }

  const ReconfigResult& result(int id) { return *cluster.protocol(id)->result; }

  /// Run a JoinListener for `joiner_slot` against `provider`'s package.
  ReconfigResult join(int joiner_slot, int provider) {
    std::map<int, Bytes> keys;
    for (int dealer = 0; dealer < plan.n_old; ++dealer) {
      keys[dealer] = join_key(plan.new_epoch, dealer, joiner_slot);
    }
    const auto& old_public = deployment.keys->public_keys();
    JoinListener listener(kTag, joiner_slot, std::move(keys), old_public.coin.group_ptr(),
                          old_public);
    EXPECT_TRUE(
        listener.offer(cluster.protocol(provider)->reconfig->join_package(joiner_slot)));
    EXPECT_TRUE(listener.ready());
    return *listener.result();
  }

  Deployment deployment;
  ReconfigPlan plan;
  std::optional<CheckpointCert> fence_;
  net::RandomScheduler sched;
  Cluster<ReconfigState> cluster;
};

/// The test deployment's join keys for epoch `epoch`, as assemble_committee
/// asks for them.
protocols::JoinKeyFn join_keys(std::uint32_t epoch) {
  return [epoch](int dealer, int slot) { return join_key(epoch, dealer, slot); };
}

/// Results for every new slot: survivors from the cluster, joiners via a
/// JoinListener fed from survivor 0's package.
std::vector<ReconfigResult> all_results(EpochHarness& h) {
  std::vector<ReconfigResult> results(static_cast<std::size_t>(h.plan.n_new));
  int provider = -1;
  for (int old = 0; old < h.plan.n_old; ++old) {
    const auto& r = h.result(old);
    if (r.new_slot >= 0) {
      results[static_cast<std::size_t>(r.new_slot)] = r;
      if (provider < 0) provider = old;
    }
  }
  for (int slot = 0; slot < h.plan.n_new; ++slot) {
    if (h.plan.joining(slot)) results[static_cast<std::size_t>(slot)] = h.join(slot, provider);
  }
  return results;
}

// ---- crypto/reshare unit level --------------------------------------------

TEST(ReshareTest, DlRedistributionPreservesSecretAcrossGeometryChange) {
  auto group = crypto::Group::test_group();
  Rng rng(42);
  const BigInt secret = group->random_scalar(rng);
  crypto::ThresholdScheme old_scheme(4, 1);
  const auto old_shares = old_scheme.deal(secret, group->q(), rng);

  // Old slots 1 and 3 (any t+1) each deal a degree-2 resharing to 7 slots.
  const std::vector<int> dealers = {1, 3};
  std::vector<std::vector<crypto::Element>> commitments;
  std::vector<crypto::FeldmanDealing> dealings;
  for (int j : dealers) {
    auto dealing = crypto::dl_reshare_deal(
        *group, old_shares[static_cast<std::size_t>(j)], 7, 2, rng);
    // Binding: the constant-term commitment IS the dealer's old public
    // verification value.
    EXPECT_EQ(dealing.commitments[0],
              group->exp_g(old_shares[static_cast<std::size_t>(j)]));
    commitments.push_back(dealing.commitments);
    dealings.push_back(std::move(dealing));
  }

  std::map<int, BigInt> new_shares;
  for (int slot = 0; slot < 7; ++slot) {
    std::vector<BigInt> subshares;
    for (const auto& dealing : dealings) {
      subshares.push_back(dealing.shares[static_cast<std::size_t>(slot)]);
    }
    new_shares[slot] = crypto::dl_combine_subshares(*group, dealers, subshares);
  }

  // Any t'+1 = 3 new shares reconstruct the ORIGINAL secret.
  crypto::ThresholdScheme new_scheme(7, 2);
  std::map<int, BigInt> quorum{{0, new_shares[0]}, {3, new_shares[3]}, {6, new_shares[6]}};
  EXPECT_EQ(new_scheme.reconstruct(quorum, group->q()), secret);

  // New verification values follow from commitments alone and match.
  const auto verification = crypto::dl_new_verification(*group, dealers, commitments, 7);
  for (int slot = 0; slot < 7; ++slot) {
    EXPECT_EQ(verification[static_cast<std::size_t>(slot)], group->exp_g(new_shares[slot]));
  }

  // Mixing an OLD share into the new scheme interpolates garbage: the
  // retired share is useless in the new epoch.
  std::map<int, BigInt> mixed{{0, old_shares[0]}, {3, new_shares[3]}, {6, new_shares[6]}};
  EXPECT_NE(new_scheme.reconstruct(mixed, group->q()), secret);
}

TEST(ReshareTest, RsaRedistributedSharesStillSignUnderOldKey) {
  Rng rng(43);
  auto scheme = std::make_shared<const crypto::ThresholdScheme>(4, 1);
  auto deal = crypto::ThresholdSigDeal::deal(crypto::RsaParams::precomputed(128), scheme, rng);
  const auto& pk = deal.public_key;
  const BigInt delta_base = scheme->delta();

  // Dealers 0 and 2 reshare their integer shares to a (5, 1) committee.
  const std::vector<int> dealers = {0, 2};
  const std::size_t coeff_bits = crypto::rsa_reshare_coeff_bits(pk.modulus().bit_length());
  std::vector<std::vector<BigInt>> commitments;
  std::vector<crypto::RsaReshareDealing> dealings;
  for (int j : dealers) {
    const BigInt& share = deal.secret_keys[static_cast<std::size_t>(j)].unit_shares().at(j);
    auto dealing = crypto::RsaReshareDealing::deal(share, pk.verification(j), coeff_bits, 5, 1,
                                                   pk.v(), pk.mont(), rng);
    for (int slot = 0; slot < 5; ++slot) {
      EXPECT_TRUE(crypto::RsaReshareDealing::verify_subshare(
          dealing.commitments, slot, dealing.subshares[static_cast<std::size_t>(slot)],
          pk.v(), pk.mont()));
    }
    commitments.push_back(dealing.commitments);
    dealings.push_back(std::move(dealing));
  }

  std::vector<BigInt> new_shares;
  for (int slot = 0; slot < 5; ++slot) {
    std::vector<BigInt> subshares;
    for (const auto& dealing : dealings) {
      subshares.push_back(dealing.subshares[static_cast<std::size_t>(slot)]);
    }
    new_shares.push_back(crypto::rsa_combine_subshares(dealers, subshares, delta_base));
  }
  const auto verification =
      crypto::rsa_new_verification(dealers, commitments, 5, delta_base, pk.mont());

  // Rebuild the public key over the compounded-delta scheme and sign with
  // the NEW shares: the combined signature is a standard RSA signature
  // under the ORIGINAL key.
  auto new_base = std::make_shared<const crypto::ThresholdScheme>(5, 1);
  auto scaled = std::make_shared<const crypto::ScaledScheme>(new_base, scheme->delta());
  const std::size_t share_bits =
      crypto::rsa_reshare_share_bits(coeff_bits, 4, 1, 5, 1);
  crypto::ThresholdSigPublicKey new_pk(pk.modulus(), pk.exponent(), pk.v(), verification,
                                       scaled, share_bits);
  const Bytes message = bytes_of("post-epoch statement");
  std::vector<crypto::SigShare> shares;
  for (int slot : {1, 4}) {
    crypto::ThresholdSigSecretKey sk(slot, {{slot, new_shares[static_cast<std::size_t>(slot)]}});
    for (auto& share : sk.sign(new_pk, message, rng)) {
      EXPECT_TRUE(new_pk.verify_share(message, share));
      shares.push_back(share);
    }
  }
  auto signature = new_pk.combine(message, shares);
  ASSERT_TRUE(signature.has_value());
  EXPECT_TRUE(pk.verify(message, *signature));
}

// ---- protocols/reconfig over the simulator --------------------------------

TEST(ReconfigTest, SwapsOneReplicaOnline) {
  auto h = EpochHarness::fresh(swap_plan(), 5);
  ASSERT_TRUE(h.run());

  const auto& reference = h.result(0);
  ASSERT_TRUE(reference.completed);
  Writer ref_w;
  reference.config.encode(ref_w, h.deployment.keys->public_keys().coin.group());
  h.cluster.for_each([&](int id, ReconfigState& s) {
    ASSERT_TRUE(s.result->completed) << "member " << id;
    EXPECT_TRUE(s.result->share_valid);
    EXPECT_EQ(s.result->suspected, 0u);
    EXPECT_EQ(s.result->new_slot, id == 3 ? -1 : id);
    // Unique combined signatures make announcements bit-identical.
    Writer w;
    s.result->config.encode(w, h.deployment.keys->public_keys().coin.group());
    EXPECT_EQ(w.data(), ref_w.data());
  });

  // The announcement verifies under the OLD reply key — the key clients
  // already hold.
  const auto& old_public = h.deployment.keys->public_keys();
  EXPECT_TRUE(reference.config.verify(old_public.reply_sig, kTag, old_public.coin.group()));

  // The joiner bootstraps from any member's package and lands on a share
  // consistent with the announced verification values.
  const ReconfigResult joiner = h.join(3, 1);
  EXPECT_TRUE(joiner.completed);
  EXPECT_TRUE(joiner.share_valid);
  EXPECT_EQ(joiner.new_slot, 3);
  const auto& group = old_public.coin.group();
  EXPECT_EQ(group.exp_g(joiner.shares[kKeyCoin]), reference.config.verification[kKeyCoin][3]);

  // Secret preservation: old and new coin shares interpolate to the same
  // key, and the retiree's wiped share is useless in the new epoch.
  crypto::ThresholdScheme scheme(4, 1);
  std::map<int, BigInt> old_shares;
  std::map<int, BigInt> new_shares;
  for (int id : {0, 2}) {
    old_shares[id] = h.deployment.keys->share(id).coin.unit_shares().at(id);
    new_shares[id] = h.result(id).shares[kKeyCoin];
  }
  EXPECT_EQ(scheme.reconstruct(old_shares, group.q()),
            scheme.reconstruct(new_shares, group.q()));
  std::map<int, BigInt> with_retired{
      {1, h.result(1).shares[kKeyCoin]},
      {3, h.deployment.keys->share(3).coin.unit_shares().at(3)}};  // retired old share
  std::map<int, BigInt> pure{{1, h.result(1).shares[kKeyCoin]}, {3, joiner.shares[kKeyCoin]}};
  EXPECT_NE(scheme.reconstruct(with_retired, group.q()),
            scheme.reconstruct(pure, group.q()));
}

TEST(ReconfigTest, PreEpochArtifactsSurviveGrowth) {
  auto h = EpochHarness::fresh(grow_plan(), 7);
  const auto& old_public = h.deployment.keys->public_keys();
  Rng rng(70);

  // Artifacts minted BEFORE the epoch.
  const Bytes coin_name = bytes_of("pre-epoch-coin");
  std::vector<crypto::CoinShare> old_coin_shares;
  for (int id : {0, 1}) {
    for (auto& share :
         h.deployment.keys->share(id).coin.share(old_public.coin, coin_name, rng)) {
      old_coin_shares.push_back(share);
    }
  }
  const auto pre_coin = old_public.coin.combine(coin_name, old_coin_shares);
  ASSERT_TRUE(pre_coin.has_value());
  const auto ciphertext =
      old_public.encryption.encrypt(bytes_of("sealed before the epoch"), bytes_of("label"), rng);

  ASSERT_TRUE(h.run());
  auto results = all_results(h);
  const auto& old_keys = old_public;
  Deployment committee = assemble_committee(h.deployment, h.plan, results, join_keys(1));
  const auto& new_public = committee.keys->public_keys();

  // The coin is the SAME key: the pre-epoch name yields the identical
  // value under the redistributed shares (disjoint slots, including the
  // joiner's).
  std::vector<crypto::CoinShare> new_coin_shares;
  for (int slot : {2, 4}) {
    const auto& sk = committee.keys->share(slot).coin;
    for (auto& share : sk.share(new_public.coin, coin_name, rng)) {
      EXPECT_TRUE(new_public.coin.verify_share(coin_name, share));
      new_coin_shares.push_back(share);
    }
  }
  const auto post_coin = new_public.coin.combine(coin_name, new_coin_shares);
  ASSERT_TRUE(post_coin.has_value());
  EXPECT_EQ(*pre_coin, *post_coin);

  // A pre-epoch TDH2 ciphertext decrypts with post-epoch shares.
  std::vector<crypto::Tdh2DecShare> dec_shares;
  for (int slot : {1, 3}) {
    const auto& sk = committee.keys->share(slot).decryption;
    for (auto& share : sk.decrypt_shares(new_public.encryption, ciphertext, rng)) {
      EXPECT_TRUE(new_public.encryption.verify_share(ciphertext, share));
      dec_shares.push_back(share);
    }
  }
  const auto plaintext = new_public.encryption.combine(ciphertext, dec_shares);
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, bytes_of("sealed before the epoch"));

  // Reply signatures from the new committee verify under the ORIGINAL
  // reply public key (combined RSA signatures are epoch-blind).
  const Bytes statement = bytes_of("receipt minted after the epoch");
  std::vector<crypto::SigShare> sig_shares;
  for (int slot : {0, 4}) {
    const auto& sk = committee.keys->share(slot).reply_sig;
    for (auto& share : sk.sign(new_public.reply_sig, statement, rng)) {
      EXPECT_TRUE(new_public.reply_sig.verify_share(statement, share));
      sig_shares.push_back(share);
    }
  }
  auto signature = new_public.reply_sig.combine(statement, sig_shares);
  ASSERT_TRUE(signature.has_value());
  EXPECT_TRUE(old_keys.reply_sig.verify(statement, *signature));
}

TEST(ReconfigTest, GrowsThresholdWithCommittee) {
  // (4,1) -> (7,2): a genuine threshold increase (the issue's t' growth;
  // n' = 7 is the smallest committee with t' = 2 under n > 3t).
  auto h = EpochHarness::fresh(make_plan(1, 4, 1, 2, {0, 1, 2, 3, -1, -1, -1}), 9);
  ASSERT_TRUE(h.run());
  auto results = all_results(h);
  const auto& group = h.deployment.keys->public_keys().coin.group();

  // t'+1 = 3 new shares reconstruct the original coin secret; t' = 2 do not
  // suffice for the (7,2) scheme's qualified test.
  crypto::ThresholdScheme old_scheme(4, 1);
  crypto::ThresholdScheme new_scheme(7, 2);
  std::map<int, BigInt> old_shares{
      {0, h.deployment.keys->share(0).coin.unit_shares().at(0)},
      {1, h.deployment.keys->share(1).coin.unit_shares().at(1)}};
  std::map<int, BigInt> new_shares{{1, results[1].shares[kKeyCoin]},
                                   {4, results[4].shares[kKeyCoin]},
                                   {6, results[6].shares[kKeyCoin]}};
  EXPECT_EQ(old_scheme.reconstruct(old_shares, group.q()),
            new_scheme.reconstruct(new_shares, group.q()));
  EXPECT_FALSE(new_scheme.qualified(party_bit(1) | party_bit(4)));
  for (int slot = 0; slot < 7; ++slot) {
    EXPECT_EQ(group.exp_g(results[static_cast<std::size_t>(slot)].shares[kKeyCoin]),
              results[0].config.verification[kKeyCoin][static_cast<std::size_t>(slot)]);
  }
}

TEST(ReconfigTest, ByzantineDealerIsFingeredAndEpochCompletes) {
  auto h = EpochHarness::fresh(grow_plan(), 11, party_bit(2));
  ASSERT_TRUE(h.run());
  h.cluster.for_each([&](int id, ReconfigState& s) {
    ASSERT_TRUE(s.result->completed) << "member " << id;
    EXPECT_EQ(s.result->suspected, party_bit(2)) << "member " << id;
    EXPECT_EQ(s.result->dealings_applied, 3);
    EXPECT_TRUE(s.result->share_valid);
  });
  // The joiner's package excludes the garbage dealing and still verifies.
  const ReconfigResult joiner = h.join(4, 0);
  EXPECT_TRUE(joiner.completed);
  EXPECT_EQ(h.deployment.keys->public_keys().coin.group().exp_g(joiner.shares[kKeyCoin]),
            h.result(0).config.verification[kKeyCoin][4]);
}

TEST(ReconfigTest, DealerHoldingAWrongShareIsExcludedForEveryKey) {
  // Old member 2 holds a share of one key that its published verification
  // value does not commit to.  For a discrete-log key its dealing is a
  // self-consistent sharing of that wrong share — every sub-share verifies
  // — and only the C_0 binding to the old verification value exposes it;
  // for an RSA key C_0 is the published value and the sub-shares fail
  // instead.  The dealing is never applied, and a member fingers dealer 2
  // whenever a first-quorum verdict saw its dealing (lateness is no
  // evidence); at least one seed per key must exhibit the fingering.  A
  // wrong quorum-key share also signs the dealer's atomic-broadcast
  // batches, so its dealing is never ordered; the members finger it as the
  // authenticated sender of those badly signed batches instead.
  for (std::size_t key = 0; key < protocols::kDealtKeys; ++key) {
    bool fingered = false;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("key " + std::to_string(key) + ", seed " + std::to_string(seed));
      Rng rng(seed);
      auto deployment = Deployment::threshold(4, 1, rng);
      std::vector<crypto::PartyKeyShare> shares;
      for (int id = 0; id < 4; ++id) shares.push_back(deployment.keys->share(id));
      crypto::PartyKeyShare& bad = shares[2];
      const auto off_by_one = [](std::map<int, BigInt> units) {
        for (auto& [unit, share] : units) share = share + BigInt(1);
        return units;
      };
      if (key == kKeyCoin) bad.coin = crypto::CoinSecretKey(2, off_by_one(bad.coin.unit_shares()));
      if (key == kKeyTdh2) {
        bad.decryption = crypto::Tdh2SecretKey(2, off_by_one(bad.decryption.unit_shares()));
      }
      if (key == kKeyReply) {
        bad.reply_sig = crypto::ThresholdSigSecretKey(2, off_by_one(bad.reply_sig.unit_shares()));
      }
      if (key == kKeyCert) {
        bad.cert_sig = crypto::ThresholdSigSecretKey(2, off_by_one(bad.cert_sig.unit_shares()));
      }
      if (key == kKeyQuorum) {
        bad.quorum_sig = crypto::QuorumSigSecretKey(2, off_by_one(bad.quorum_sig.unit_shares()));
      }
      Deployment tampered;
      tampered.quorum = deployment.quorum;
      tampered.keys =
          std::make_shared<const crypto::KeyBundle>(deployment.keys->public_keys(), shares);

      const ReconfigPlan plan = grow_plan();
      const auto factory = [&plan](net::Party& party, int id) {
        auto state = std::make_unique<ReconfigState>();
        state->reconfig = std::make_unique<Reconfig>(
            party, kTag, plan, std::nullopt, options_for(plan, id, 0),
            [s = state.get()](const ReconfigResult& r) { s->result = r; });
        return state;
      };
      net::RandomScheduler sched(seed * 3 + 1);
      Cluster<ReconfigState> cluster(deployment, sched, factory, 0, 0, seed);
      auto dealer = std::make_unique<HostedParty<ReconfigState>>(
          cluster.simulator(), 2, tampered, seed * 7919 + 2,
          [&](net::Party& party) { return factory(party, 2); });
      ReconfigState& dealer_state = dealer->protocol();
      cluster.attach_custom(2, std::move(dealer));
      cluster.start();
      cluster.for_each([](int, ReconfigState& s) { s.reconfig->start(); });
      dealer_state.reconfig->start();
      ASSERT_TRUE(cluster.simulator().run_until(
          [&] {
            bool done = dealer_state.result.has_value();
            for (int id : {0, 1, 3}) done = done && cluster.protocol(id)->result.has_value();
            return done;
          },
          60000000));
      for (int id : {0, 1, 3}) {
        const ReconfigResult& r = *cluster.protocol(id)->result;
        ASSERT_TRUE(r.completed) << "member " << id;
        EXPECT_TRUE(r.share_valid) << "member " << id;
        EXPECT_EQ(r.suspected & ~party_bit(2), 0u) << "member " << id;
        fingered = fingered || r.suspected == party_bit(2);
        const auto applied = cluster.protocol(id)->reconfig->join_package(4).applied;
        EXPECT_EQ(std::count(applied.begin(), applied.end(), 2), 0) << "member " << id;
      }
    }
    EXPECT_TRUE(fingered) << "no seed fingered the wrong-share dealer";
  }
}

TEST(ReconfigTest, AbortsCleanlyWhenTooFewDealingsApply) {
  // Two garbage dealers out of four leave only 2 < n-t = 3 applicable
  // dealings: every member aborts, fingers both, and the old committee
  // stays intact.
  auto h = EpochHarness::fresh(swap_plan(), 13, party_bit(1) | party_bit(2));
  ASSERT_TRUE(h.run());
  h.cluster.for_each([&](int id, ReconfigState& s) {
    EXPECT_FALSE(s.result->completed) << "member " << id;
    EXPECT_EQ(s.result->suspected, party_bit(1) | party_bit(2)) << "member " << id;
  });
  // Old shares still work: a post-abort coin toss under the old keys.
  const auto& old_public = h.deployment.keys->public_keys();
  Rng rng(131);
  const Bytes name = bytes_of("post-abort-coin");
  std::vector<crypto::CoinShare> shares;
  for (int id : {0, 3}) {
    for (auto& share : h.deployment.keys->share(id).coin.share(old_public.coin, name, rng)) {
      shares.push_back(share);
    }
  }
  EXPECT_TRUE(old_public.coin.combine(name, shares).has_value());
}

TEST(ReconfigTest, JoinListenerRejectsTamperedPackageAndFingersDealer) {
  // One tampering per check a joiner runs on a package.  A sub-share the
  // providing member altered fails its dealer's MAC, which proves nothing
  // about the dealer: nobody is fingered.  A bad sub-share under a valid
  // MAC is provable misbehaviour of its dealer, who is fingered.  A
  // package failing a package-level check proves nothing about any dealer
  // either.  Every time the package is refused and an honest one still
  // wins afterwards.
  auto h = EpochHarness::fresh(swap_plan(), 15);
  ASSERT_TRUE(h.run());
  const auto& old_public = h.deployment.keys->public_keys();
  const auto& group = old_public.coin.group();
  // Re-sign a doctored announcement under the old reply key, so the case
  // reaches the checks behind the signature.
  const auto resign = [&](NewConfig& config) {
    Rng rng(151);
    const Bytes statement = config.statement(kTag, group);
    std::vector<crypto::SigShare> shares;
    for (int id = 0; id < 4; ++id) {
      for (auto& share :
           h.deployment.keys->share(id).reply_sig.sign(old_public.reply_sig, statement, rng)) {
        shares.push_back(share);
      }
    }
    config.signature = *old_public.reply_sig.combine(statement, shares);
  };
  const BigInt one(1);
  // An RSA commitment rides as a residue mod N; move it by one.
  const auto bump = [&](crypto::Element& e) {
    e = crypto::Element::from_residue(e.residue() + one);
  };
  struct Case {
    const char* name;
    std::function<void(JoinPackage&)> tamper;
    int fingered;  ///< position in `applied` of the dealer to finger, -1: nobody
  };
  // The dealer's MAC over a doctored row, as only the dealer (holding the
  // join key) could compute it.
  const auto remac = [&](JoinPackage& p, std::size_t a) {
    const int dealer = p.applied[a];
    p.macs[a] = protocols::join_rows_mac(join_key(1, dealer, 3), kTag, 1, dealer, 3, p.subshares, a);
  };
  const std::vector<Case> cases = {
      {"coin sub-share",
       [&](JoinPackage& p) {
         p.subshares[kKeyCoin][1] = group.scalar_add(p.subshares[kKeyCoin][1], one);
       },
       -1},
      {"tdh2 sub-share",
       [&](JoinPackage& p) {
         p.subshares[kKeyTdh2][0] = group.scalar_add(p.subshares[kKeyTdh2][0], one);
       },
       -1},
      {"reply sub-share", [&](JoinPackage& p) { p.subshares[kKeyReply][1] += one; }, -1},
      {"cert sub-share beyond the first t+1",
       [&](JoinPackage& p) { p.subshares[kKeyCert][2] += one; }, -1},
      {"reply sub-share under its dealer's MAC",
       [&](JoinPackage& p) {
         p.subshares[kKeyReply][1] += one;
         remac(p, 1);
       },
       1},
      {"MAC of another dealer", [&](JoinPackage& p) { p.macs[0] = p.macs[1]; }, -1},
      {"coin C0 binding", [&](JoinPackage& p) { p.commitments[kKeyCoin][0][0] = group.g(); }, -1},
      {"tdh2 C0 binding", [&](JoinPackage& p) { p.commitments[kKeyTdh2][1][0] = group.g(); }, -1},
      {"reply C0 binding", [&](JoinPackage& p) { bump(p.commitments[kKeyReply][0][0]); }, -1},
      {"cert C0 binding", [&](JoinPackage& p) { bump(p.commitments[kKeyCert][2][0]); }, -1},
      {"reply delta scale",
       [&](JoinPackage& p) {
         p.config.scale[kKeyReply] += one;
         resign(p.config);
       },
       -1},
      {"cert delta scale",
       [&](JoinPackage& p) {
         p.config.scale[kKeyCert] += one;
         resign(p.config);
       },
       -1},
      {"reply share width",
       [&](JoinPackage& p) {
         p.config.share_bits[kKeyReply] += 1;
         resign(p.config);
       },
       -1},
      {"cert share width",
       [&](JoinPackage& p) {
         p.config.share_bits[kKeyCert] += 1;
         resign(p.config);
       },
       -1},
      {"announced verification value",
       [&](JoinPackage& p) {
         p.config.verification[kKeyCoin][3] = group.g();
         resign(p.config);
       },
       -1},
      {"commitment behind the announced verification values",
       [&](JoinPackage& p) { bump(p.commitments[kKeyCert][2][1]); }, -1},
      {"applied-dealer count", [&](JoinPackage& p) { p.applied.pop_back(); }, -1},
      {"duplicate applied dealer", [&](JoinPackage& p) { p.applied[1] = p.applied[0]; }, -1},
  };

  std::map<int, Bytes> keys;
  for (int dealer = 0; dealer < 4; ++dealer) keys[dealer] = join_key(1, dealer, 3);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto package = h.cluster.protocol(0)->reconfig->join_package(3);
    const std::vector<std::int32_t> applied = package.applied;
    c.tamper(package);
    JoinListener listener(kTag, 3, keys, old_public.coin.group_ptr(), old_public);
    EXPECT_FALSE(listener.offer(package));
    EXPECT_FALSE(listener.ready());
    EXPECT_EQ(listener.suspected(),
              c.fingered < 0 ? PartySet{0}
                             : party_bit(applied[static_cast<std::size_t>(c.fingered)]));
    EXPECT_TRUE(listener.offer(h.cluster.protocol(2)->reconfig->join_package(3)));
    EXPECT_TRUE(listener.ready());
  }
}

TEST(ReconfigTest, GrowEpochIsPinnedBitExactly) {
  // One fixed-seed (4,1) -> (5,1) grow epoch over the simulator, pinned
  // bit-exactly: the signed announcement, the joiner's package, every new
  // slot's five shares, and the epoch's per-tag message and byte totals.
  // Any change to the wire bytes, the masks or the key order fails here.
  auto h = EpochHarness::fresh(grow_plan(), 21);
  ASSERT_TRUE(h.run());
  const auto& group = h.deployment.keys->public_keys().coin.group();
  Writer w;
  h.result(0).config.encode(w, group);
  h.cluster.protocol(0)->reconfig->join_package(4).encode(w, group);
  for (const ReconfigResult& r : all_results(h)) {
    r.shares[kKeyCoin].encode(w);
    r.shares[kKeyTdh2].encode(w);
    r.shares[kKeyReply].encode(w);
    r.shares[kKeyCert].encode(w);
    r.shares[kKeyQuorum].encode(w);
  }
  EXPECT_EQ(to_hex(crypto::sha256_bytes(w.data())),
            "320ed4acff2ade09e25c67ce7f2f70a34d7930472a946bd782d9ad51e72e294e");

  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> traffic;
  for (const auto& [tag, stats] : h.cluster.simulator().traffic()) {
    traffic[tag] = {stats.messages, stats.bytes};
  }
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> expected{
      {"reconfig", {480, 226719}}};
  EXPECT_EQ(traffic, expected);
}

TEST(ReconfigTest, SequentialEpochsGrowThenShrink) {
  // Epoch 1: (4,1) -> (5,1) with a joiner; epoch 2: (5,1) -> (4,1), old
  // slot 1 retires and slots compact.  Reply signatures minted by the
  // final committee — with a TWICE-compounded delta — still verify under
  // the epoch-0 reply public key.
  auto h1 = EpochHarness::fresh(grow_plan(), 17);
  ASSERT_TRUE(h1.run());
  Deployment committee1 =
      assemble_committee(h1.deployment, h1.plan, all_results(h1), join_keys(1));

  ReconfigPlan plan2 = make_plan(2, 5, 1, 1, {0, 2, 3, 4});
  EpochHarness h2(committee1, plan2, 19);
  ASSERT_TRUE(h2.run());
  std::vector<ReconfigResult> results2(4);
  for (int old = 0; old < 5; ++old) {
    const auto& r = h2.result(old);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.config.plan.new_epoch, 2u);
    if (r.new_slot >= 0) results2[static_cast<std::size_t>(r.new_slot)] = r;
  }
  Deployment committee2 = assemble_committee(committee1, plan2, results2);

  // The compounded scale is the epoch-1 scheme's full delta.
  const auto& epoch1_reply = committee1.keys->public_keys().reply_sig;
  EXPECT_EQ(h2.result(0).config.scale[kKeyReply], epoch1_reply.scheme().delta());

  const auto& new_public = committee2.keys->public_keys();
  const Bytes statement = bytes_of("two epochs later");
  Rng rng(171);
  std::vector<crypto::SigShare> shares;
  for (int slot : {0, 3}) {
    for (auto& share :
         committee2.keys->share(slot).reply_sig.sign(new_public.reply_sig, statement, rng)) {
      EXPECT_TRUE(new_public.reply_sig.verify_share(statement, share));
      shares.push_back(share);
    }
  }
  auto signature = new_public.reply_sig.combine(statement, shares);
  ASSERT_TRUE(signature.has_value());
  EXPECT_TRUE(h1.deployment.keys->public_keys().reply_sig.verify(statement, *signature));

  // And the coin secret is still the dealer's original.
  const auto& group = h1.deployment.keys->public_keys().coin.group();
  crypto::ThresholdScheme scheme0(4, 1);
  std::map<int, BigInt> dealt{
      {0, h1.deployment.keys->share(0).coin.unit_shares().at(0)},
      {2, h1.deployment.keys->share(2).coin.unit_shares().at(2)}};
  std::map<int, BigInt> final_shares{{1, results2[1].shares[kKeyCoin]},
                                     {2, results2[2].shares[kKeyCoin]}};
  EXPECT_EQ(scheme0.reconstruct(dealt, group.q()),
            crypto::ThresholdScheme(4, 1).reconstruct(final_shares, group.q()));
}

TEST(ReconfigTest, SameCommitteeEpochRefreshesEveryShare) {
  // Proactive refresh (§6) is the identity plan: every member keeps its
  // slot, every share moves, the secrets stay.  Crashed old members only
  // cost their dealings.
  struct Row {
    int n;
    int t;
    PartySet crashed;
    std::uint64_t seed;
  };
  for (const Row& row : {Row{4, 1, 0, 41}, Row{4, 1, party_bit(2), 43},
                         Row{7, 2, party_bit(1) | party_bit(4), 47}}) {
    SCOPED_TRACE("n=" + std::to_string(row.n) + " crashed=" + std::to_string(row.crashed));
    auto h = EpochHarness::fresh(ReconfigPlan::same_committee(1, row.n, row.t), row.seed, 0,
                                 row.crashed);
    ASSERT_TRUE(h.run());
    const auto& old_public = h.deployment.keys->public_keys();
    const auto& group = old_public.coin.group();
    const auto old_share = [&](int id) {
      return h.deployment.keys->share(id).coin.unit_shares().at(id);
    };

    std::vector<int> live;
    Bytes reference;
    h.cluster.for_each([&](int id, ReconfigState& s) {
      live.push_back(id);
      const ReconfigResult& r = *s.result;
      ASSERT_TRUE(r.completed && r.share_valid) << "member " << id;
      EXPECT_EQ(r.new_slot, id);
      EXPECT_EQ(r.dealings_applied, row.n - row.t);
      Writer w;
      r.config.encode(w, group);
      if (reference.empty()) reference = w.data();
      EXPECT_EQ(w.data(), reference) << "member " << id;
      EXPECT_NE(r.shares[kKeyCoin], old_share(id));
      EXPECT_EQ(group.exp_g(r.shares[kKeyCoin]),
                r.config.verification[kKeyCoin][static_cast<std::size_t>(id)]);
    });

    // t+1 new shares reconstruct the dealt secret; swapping one of them for
    // its pre-epoch share does not.
    crypto::ThresholdScheme scheme(row.n, row.t);
    std::map<int, BigInt> dealt;
    std::map<int, BigInt> fresh;
    for (std::size_t k = 0; k <= static_cast<std::size_t>(row.t); ++k) {
      dealt[live[k]] = old_share(live[k]);
      fresh[live[k]] = h.result(live[k]).shares[kKeyCoin];
    }
    const BigInt secret = scheme.reconstruct(dealt, group.q());
    EXPECT_EQ(scheme.reconstruct(fresh, group.q()), secret);
    std::map<int, BigInt> mixed = fresh;
    mixed[live[0]] = old_share(live[0]);
    EXPECT_NE(scheme.reconstruct(mixed, group.q()), secret);

    if (row.crashed != 0) continue;
    // Fault-free: a coin name tossed before the epoch gives the same value
    // under the refreshed committee.
    Rng rng(row.seed);
    const Bytes name = bytes_of("pre-refresh-coin");
    std::vector<crypto::CoinShare> before;
    for (int id : {0, 1}) {
      for (auto& share : h.deployment.keys->share(id).coin.share(old_public.coin, name, rng)) {
        before.push_back(share);
      }
    }
    std::vector<ReconfigResult> results;
    for (int id = 0; id < row.n; ++id) results.push_back(h.result(id));
    Deployment committee = assemble_committee(h.deployment, h.plan, results);
    const auto& new_public = committee.keys->public_keys();
    std::vector<crypto::CoinShare> after;
    for (int id : {2, 3}) {
      for (auto& share : committee.keys->share(id).coin.share(new_public.coin, name, rng)) {
        EXPECT_TRUE(new_public.coin.verify_share(name, share));
        after.push_back(share);
      }
    }
    const auto pre = old_public.coin.combine(name, before);
    const auto post = new_public.coin.combine(name, after);
    ASSERT_TRUE(pre.has_value() && post.has_value());
    EXPECT_EQ(*pre, *post);
  }
}

// ---- identical total order across the fence --------------------------------

struct AbcState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::vector<std::pair<int, Bytes>> delivered;
};

Cluster<AbcState>::Factory abc_factory(int checkpoint_interval) {
  return [checkpoint_interval](net::Party& party, int) {
    party.enable_wal();  // certified_state and snapshot replay need the log
    auto state = std::make_unique<AbcState>();
    state->abc = std::make_unique<AtomicBroadcast>(
        party, "abc", [s = state.get()](int origin, Bytes payload) {
          s->delivered.emplace_back(origin, std::move(payload));
        });
    if (checkpoint_interval > 0) state->abc->enable_checkpoints(checkpoint_interval);
    return state;
  };
}

TEST(ReconfigTest, JoinerCommitsIdenticalTotalOrderFromInstalledCheckpoint) {
  Rng rng(21);
  auto old_deployment = Deployment::threshold(4, 1, rng);

  // Phase 1: the old committee delivers traffic under certified
  // checkpoints.
  net::RandomScheduler sched1(210);
  Cluster<AbcState> service(old_deployment, sched1, abc_factory(1), 0, 0, 21);
  service.start();
  for (int id = 0; id < 4; ++id) {
    service.protocol(id)->abc->submit(bytes_of("pre-" + std::to_string(id)));
  }
  ASSERT_TRUE(service.run_until_all(
      [](AbcState& s) {
        return s.delivered.size() >= 4 && s.abc->latest_certificate().has_value();
      },
      60000000));
  const CheckpointCert fence = *service.protocol(0)->abc->latest_certificate();
  const Bytes certified = service.protocol(0)->abc->certified_state(fence);
  ASSERT_FALSE(certified.empty());
  const std::vector<std::pair<int, Bytes>> old_log(
      service.protocol(0)->delivered.begin(),
      service.protocol(0)->delivered.begin() +
          static_cast<std::ptrdiff_t>(fence.delivered_count));

  // Phase 2: reconfiguration fenced at that certificate.
  EpochHarness epoch(old_deployment, swap_plan(), 23, 0, fence);
  ASSERT_TRUE(epoch.run());
  auto results = all_results(epoch);
  EXPECT_EQ(results[0].config.fence.chain_digest, fence.chain_digest);
  Deployment committee = assemble_committee(old_deployment, epoch.plan, results,
                                           join_keys(epoch.plan.new_epoch));

  // The fence certificate verifies under the REBUILT certificate key (same
  // modulus, new verification values) — what the joiner checks before
  // trusting a snapshot.
  EXPECT_TRUE(fence.verify(committee.keys->public_keys().cert_sig, "abc"));

  // Phase 3: the new committee (joiner included) installs the certified
  // prefix and keeps delivering — everyone, the joiner from its installed
  // checkpoint forward, commits the identical total order.
  net::RandomScheduler sched2(230);
  Cluster<AbcState> next(committee, sched2, abc_factory(1), 0, 0, 25);
  next.start();
  next.for_each([&](int id, AbcState& s) {
    ASSERT_TRUE(s.abc->install_checkpoint(fence, certified)) << "member " << id;
  });
  for (int id = 0; id < 4; ++id) {
    next.protocol(id)->abc->submit(bytes_of("post-" + std::to_string(id)));
  }
  const std::size_t want = fence.delivered_count + 4;
  ASSERT_TRUE(next.run_until_all(
      [want](AbcState& s) { return s.delivered.size() >= want; }, 60000000));

  const auto& reference = next.protocol(0)->delivered;
  next.for_each([&](int id, AbcState& s) {
    ASSERT_GE(s.delivered.size(), want) << "member " << id;
    for (std::size_t i = 0; i < want; ++i) {
      EXPECT_EQ(s.delivered[i], reference[i]) << "member " << id << " at " << i;
    }
  });
  // The common prefix is exactly the old committee's certified log.
  for (std::size_t i = 0; i < old_log.size(); ++i) {
    EXPECT_EQ(reference[i], old_log[i]) << "certified prefix diverged at " << i;
  }
  // The reshared certificate key mints NEW certificates past the fence.
  EXPECT_TRUE(next.run_until_all(
      [&](AbcState& s) {
        const auto& cert = s.abc->latest_certificate();
        return cert.has_value() && cert->delivered_count > fence.delivered_count;
      },
      60000000));
}

// ---- chaos -----------------------------------------------------------------

std::vector<std::uint64_t> reconfig_seeds() {
  std::vector<std::uint64_t> seeds = {3};
  if (const char* env = std::getenv("SINTRA_RECONFIG_SEEDS")) {
    seeds.clear();
    std::uint64_t value = 0;
    bool any = false;
    for (const char* p = env;; ++p) {
      if (*p >= '0' && *p <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(*p - '0');
        any = true;
      } else {
        if (any) seeds.push_back(value);
        value = 0;
        any = false;
        if (*p == '\0') break;
      }
    }
    if (seeds.empty()) seeds.push_back(3);
  }
  return seeds;
}

ChaosCluster<ReconfigState>::Factory chaos_factory(const ReconfigPlan& plan) {
  return [plan](net::Party& party, int id) {
    auto state = std::make_unique<ReconfigState>();
    state->reconfig = std::make_unique<Reconfig>(
        party, kTag, plan, std::nullopt, options_for(plan, id, 0),
        [s = state.get()](const ReconfigResult& r) { s->result = r; });
    state->reconfig->start();  // ChaosCluster factories also start
    return state;
  };
}

void expect_agreement(ChaosCluster<ReconfigState>& cluster, const Deployment& deployment) {
  std::optional<Bytes> reference;
  cluster.for_each([&](int id, ReconfigState& s) {
    ASSERT_TRUE(s.result.has_value()) << "member " << id;
    ASSERT_TRUE(s.result->completed) << "member " << id;
    Writer w;
    s.result->config.encode(w, deployment.keys->public_keys().coin.group());
    if (!reference.has_value()) {
      reference = w.take();
      return;
    }
    EXPECT_EQ(w.data(), *reference) << "member " << id;
  });
}

TEST(ReconfigChaosTest, EpochCompletesUnderMessageChaos) {
  for (std::uint64_t seed : reconfig_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 31 + 7);
    ChaosCluster<ReconfigState> cluster(deployment, sched, chaos_factory(swap_plan()), seed);
    cluster.set_fault_policy(seed * 97 + 1, net::FaultPolicy::chaos());
    cluster.start();
    ASSERT_TRUE(cluster.run_until_all(
        [](ReconfigState& s) { return s.result.has_value(); }, 60000000));
    expect_agreement(cluster, deployment);
  }
}

TEST(ReconfigChaosTest, MidEpochCrashRestartReplaysToTheSameEpoch) {
  for (std::uint64_t seed : reconfig_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed + 100);
    auto deployment = Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 37 + 5);
    ChaosCluster<ReconfigState> cluster(deployment, sched, chaos_factory(swap_plan()), seed);
    // SIGKILL party 1 mid-epoch; the restarted incarnation replays its WAL
    // and must land on the identical announcement.
    cluster.set_restarting(1, /*crash_after=*/12, /*down_for=*/8);
    cluster.start();
    ASSERT_TRUE(cluster.run_until_all(
        [](ReconfigState& s) { return s.result.has_value(); }, 60000000));
    expect_agreement(cluster, deployment);
  }
}

// ---- loopback: partition schedule + WAL snapshots --------------------------

constexpr int kLoopN = 4;

/// Party `id`'s stack for one reconfiguration epoch under `plan`, started.
std::unique_ptr<ReconfigState> make_epoch_state(net::Party& party, const ReconfigPlan& plan,
                                                int id) {
  party.enable_wal();
  auto state = std::make_unique<ReconfigState>();
  party.with_instance(kTag, [&] {
    state->reconfig = std::make_unique<Reconfig>(
        party, kTag, plan, std::nullopt, options_for(plan, id, 0),
        [s = state.get()](const ReconfigResult& r) {
          s->result = r;
          s->finished.store(true, std::memory_order_release);
        });
    state->reconfig->start();
  });
  return state;
}

using LoopbackEpoch = protocols::NetCluster<ReconfigState>;

/// Four NetworkedNode+LoopbackHub parties running one reconfiguration
/// epoch over real (in-process) transport framing.
LoopbackEpoch make_loopback_epoch(const Deployment& deployment, ReconfigPlan plan,
                                  std::uint64_t seed, std::size_t executors = 0) {
  return LoopbackEpoch(
      {deployment},
      [plan = std::move(plan)](net::Party& party, int id, int) {
        return make_epoch_state(party, plan, id);
      },
      {.executors = executors, .seed = seed});
}

bool all_done(LoopbackEpoch& cluster) {
  for (int id = 0; id < cluster.n(); ++id) {
    if (!cluster.protocol(id).finished.load(std::memory_order_acquire)) return false;
  }
  return true;
}

TEST(ReconfigChaosTest, EpochCompletesUnderActivePartitionSchedule) {
  for (std::uint64_t seed : reconfig_seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed + 200);
    auto deployment = Deployment::threshold(kLoopN, 1, rng);
    LoopbackEpoch cluster = make_loopback_epoch(deployment, swap_plan(), seed);
    cluster.hub().set_partition_profile(
        PartitionProfile::split_heal(kLoopN, seed * 13 + 1, /*period=*/48, /*splits=*/2));
    ASSERT_TRUE(cluster.run_until([&] { return all_done(cluster); }));
    const auto& group = deployment.keys->public_keys().coin.group();
    Writer ref_w;
    cluster.protocol(0).result->config.encode(ref_w, group);
    for (int id = 0; id < kLoopN; ++id) {
      const auto& result = cluster.protocol(id).result;
      ASSERT_TRUE(result->completed) << "member " << id;
      Writer w;
      result->config.encode(w, group);
      EXPECT_EQ(w.data(), ref_w.data()) << "member " << id;
    }
  }
}

TEST(ReconfigChaosTest, MidEpochWalSnapshotRestoresBitExactly) {
  // Stop pumping at an arbitrary mid-epoch point, snapshot a party's WAL
  // under ExecutorPool(4), and restore it into TWO independent fresh
  // stacks: replay is deterministic by contract, so their re-snapshots
  // must be bit-identical — whatever executor interleaving produced the
  // WAL being replayed.
  Rng rng(77);
  auto deployment = Deployment::threshold(kLoopN, 1, rng);
  const ReconfigPlan plan = swap_plan();
  LoopbackEpoch cluster = make_loopback_epoch(deployment, plan, 7, /*executors=*/4);
  std::size_t steps = 0;
  cluster.run_until([&] { return ++steps >= 4000 || all_done(cluster); }, 4000);
  cluster.wait_idle();
  const Bytes snapshot = cluster.host(1).snapshot();
  ASSERT_FALSE(snapshot.empty());

  const auto restore_into_fresh_stack = [&](Bytes& out) {
    NetworkedNode::Config config;
    config.node_id = 1;
    config.n = kLoopN;
    NetworkedNode fresh_node(config);  // not wired to the hub: replay only
    ExecutorPool fresh_pool(4);
    HostedParty<ReconfigState> fresh(
        fresh_node, 1, deployment, 7 * 7919 + 1, [&](net::Party& party) {
          party.set_executors(&fresh_pool);
          return make_epoch_state(party, plan, 1);
        });
    fresh.restore(snapshot);
    fresh_pool.wait_idle();
    out = fresh.snapshot();
    fresh_pool.stop();
  };
  Bytes first, second;
  restore_into_fresh_stack(first);
  restore_into_fresh_stack(second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// ---- the membership fence: per-epoch link keys -----------------------------

TEST(ReconfigTest, QuorumCertificateUnderThePreviousEpochIsRejected) {
  // A same-committee epoch re-randomizes the quorum-signature key: a
  // consistent-broadcast certificate signed with the old shares no longer
  // verifies against the new verification values, and one signed with the
  // new shares does.
  auto h = EpochHarness::fresh(ReconfigPlan::same_committee(1, 4, 1), 41);
  ASSERT_TRUE(h.run());
  const Deployment next = assemble_committee(h.deployment, h.plan, all_results(h));
  const auto certify = [](const Deployment& d) {
    protocols::CertifiedMessage cm{bytes_of("certified"), {}};
    for (int party : {0, 1, 2}) {
      for (auto& sig : d.keys->share(party).quorum_sig.sign(
               d.keys->public_keys().quorum_sig,
               protocols::consistent_statement("cbc/0", cm.message))) {
        cm.certificate.push_back(std::move(sig));
      }
    }
    return cm;
  };
  const auto valid = [](const Deployment& d, const protocols::CertifiedMessage& cm) {
    return protocols::verify_certificate(d.keys->public_keys().quorum_sig, *d.quorum, "cbc/0",
                                         cm);
  };
  const auto old_cert = certify(h.deployment);
  const auto new_cert = certify(next);
  EXPECT_TRUE(valid(h.deployment, old_cert));
  EXPECT_TRUE(valid(next, new_cert));
  EXPECT_FALSE(valid(next, old_cert));
  EXPECT_FALSE(valid(h.deployment, new_cert));
}

TEST(MembershipFenceTest, PerEpochLinkKeysFenceOutTheOldCommittee) {
  // The link keys are the one membership fence.  A same-committee epoch
  // re-derives every pair's channel key, so a transport end keyed for the
  // old deployment fails the HELLO MAC of one keyed for the new: nothing
  // is delivered and the listener counts the failure.  Two ends keyed
  // from the same epoch connect and deliver.
  auto h = EpochHarness::fresh(ReconfigPlan::same_committee(1, 4, 1), 41);
  ASSERT_TRUE(h.run());
  const Deployment next = assemble_committee(h.deployment, h.plan, all_results(h));
  const auto channel_key = [](const Deployment& d, int a, int b) {
    return d.keys->share(a).channel_keys.at(static_cast<std::size_t>(b));
  };
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      SCOPED_TRACE("pair " + std::to_string(a) + "-" + std::to_string(b));
      EXPECT_EQ(channel_key(next, a, b), channel_key(next, b, a));
      EXPECT_NE(channel_key(next, a, b), channel_key(h.deployment, a, b));
    }
  }

  using net::transport::TcpTransport;
  const auto make_config = [&](int node_id, const Deployment& keyed_by) {
    TcpTransport::Config config;
    config.node_id = node_id;
    config.endpoints.resize(2);
    config.link_keys.resize(2);
    config.link_keys[static_cast<std::size_t>(1 - node_id)] =
        channel_key(keyed_by, node_id, 1 - node_id);
    config.seed = 41 + static_cast<std::uint64_t>(node_id);
    config.heartbeat_interval_ms = 50;
    config.heartbeat_timeout_ms = 600;
    config.reconnect_min_ms = 10;
    config.reconnect_max_ms = 100;
    config.ack_flush_ms = 5;
    return config;
  };
  const auto wait_for = [](const std::function<bool()>& pred) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  };
  // Node 0 listens, node 1 dials and sends one payload.
  const auto run_pair = [&](const Deployment& listener_keys, const Deployment& dialer_keys,
                            bool same_epoch) {
    std::atomic<std::size_t> received{0};
    TcpTransport listener(make_config(0, listener_keys),
                          [&](int, std::uint32_t, BytesView) { received++; });
    listener.start();
    auto dialer_config = make_config(1, dialer_keys);
    dialer_config.endpoints[0].port = listener.listen_port();
    TcpTransport dialer(dialer_config, [](int, std::uint32_t, BytesView) {});
    dialer.start();
    dialer.send(0, bytes_of("committee traffic"));
    if (same_epoch) {
      EXPECT_TRUE(wait_for([&] { return received.load() >= 1; }));
      EXPECT_EQ(listener.stats().auth_failures, 0u);
    } else {
      EXPECT_TRUE(wait_for([&] { return listener.stats().auth_failures >= 1; }));
      EXPECT_EQ(received.load(), 0u);
      EXPECT_EQ(listener.stats().connects, 0u);
    }
    dialer.stop();
    listener.stop();
  };
  {
    SCOPED_TRACE("old listener, new dialer");
    run_pair(h.deployment, next, false);
  }
  {
    SCOPED_TRACE("new listener, old dialer");
    run_pair(next, h.deployment, false);
  }
  {
    SCOPED_TRACE("both new");
    run_pair(next, next, true);
  }
}

TEST(MembershipFenceTest, PartyRefusesUnknownSnapshotVersion) {
  // The smallest well-formed snapshot of each layout: no checkpoints, no
  // retired tags, an empty WAL — and, in v3 only, epoch 0 with an empty
  // membership history.  Only v4 is the current layout; a snapshot is
  // input from disk, so any other version is refused as a ProtocolError.
  const auto empty_snapshot = [](std::uint8_t version) {
    Writer w;
    w.u8(version);
    w.u32(0);  // checkpoints
    if (version == 3) {
      w.u32(0);  // epoch
      w.u32(0);  // epoch log
    }
    w.u32(0);  // retired tags
    w.u32(0);  // WAL
    return w.take();
  };
  Rng rng(33);
  auto deployment = Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(330);
  Cluster<AbcState> cluster(deployment, sched, abc_factory(0), 0, 0, 33);
  cluster.start();
  net::Party& party = *cluster.party(0);
  EXPECT_NO_THROW(party.restore(empty_snapshot(4)));
  EXPECT_THROW(party.restore(empty_snapshot(3)), ProtocolError);
  EXPECT_THROW(party.restore(empty_snapshot(5)), ProtocolError);
}

// ---- app/client follows a signed NEW-CONFIG --------------------------------

TEST(ReconfigTest, ServiceClientFollowsSignedNewConfig) {
  auto h = EpochHarness::fresh(grow_plan(), 27);
  ASSERT_TRUE(h.run());
  const NewConfig& config = h.result(0).config;

  net::RandomScheduler sched(270);
  net::Simulator simulator(9, sched);
  app::ServiceClient client(simulator, /*net_id=*/8, h.deployment, "svc",
                            app::Replica::Mode::kAtomic, 271, nullptr);
  EXPECT_EQ(client.config_epoch(), 0u);

  // Tampered signature: rejected, nothing changes.
  NewConfig forged = config;
  forged.signature = forged.signature + BigInt(1);
  EXPECT_FALSE(client.apply_new_config(forged, kTag));
  EXPECT_EQ(client.config_epoch(), 0u);

  // The authentic announcement moves the client to the new committee.
  EXPECT_TRUE(client.apply_new_config(config, kTag));
  EXPECT_EQ(client.config_epoch(), 1u);
  // Replay (same epoch) is stale.
  EXPECT_FALSE(client.apply_new_config(config, kTag));

  // The relay path: a replica forwards the announcement on
  // "<service>/newconfig"; a second client applies it from the wire.
  app::ServiceClient relayed(simulator, /*net_id=*/8, h.deployment, "svc",
                             app::Replica::Mode::kAtomic, 272, nullptr);
  Writer w;
  w.str(kTag);
  config.encode(w, h.deployment.keys->public_keys().coin.group());
  net::Message announcement;
  announcement.from = 0;
  announcement.to = 8;
  announcement.tag = "svc/newconfig";
  announcement.payload = w.take();
  relayed.on_message(announcement);
  EXPECT_EQ(relayed.config_epoch(), 1u);
}

// ---- the documented gap: an applied-but-invalid sub-share is detected -----

TEST(ReconfigTest, SameCommitteeEpochDetectsUnusableShareFromMisprovisionedChannel) {
  // Member 3's pairwise channel keys disagree with everyone else's (the
  // mis-provisioning stand-in for a Byzantine dealer targeting a member
  // whose verdict misses the first quorum): every sub-share it unmasks is
  // garbage, and its own dealing is garbage to the others.  When its
  // verdict misses the first quorum, the three honest dealings are applied
  // over its objection and the victim must DETECT the unusable share via
  // share_valid == false rather than serve with it.  When its verdict makes
  // the first quorum, too few dealings are applied and every member aborts
  // cleanly.  Every seed runs, so both paths are checked; at least one seed
  // must exhibit the detection path.
  bool detected = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto deployment = Deployment::threshold(4, 1, rng);
    std::vector<crypto::PartyKeyShare> shares;
    for (int id = 0; id < 4; ++id) shares.push_back(deployment.keys->share(id));
    for (auto& key : shares[3].channel_keys) {
      if (!key.empty()) key = crypto::hash_expand("test/reconfig/bad-key", key, 32);
    }
    Deployment tampered;
    tampered.quorum = deployment.quorum;
    tampered.keys =
        std::make_shared<const crypto::KeyBundle>(deployment.keys->public_keys(), shares);

    const ReconfigPlan plan = ReconfigPlan::same_committee(1, 4, 1);
    const auto factory = [&plan](net::Party& party, int) {
      auto state = std::make_unique<ReconfigState>();
      state->reconfig = std::make_unique<Reconfig>(
          party, kTag, plan, std::nullopt, ReconfigOptions{},
          [s = state.get()](const ReconfigResult& r) { s->result = r; });
      return state;
    };
    net::RandomScheduler sched(seed * 3 + 1);
    Cluster<ReconfigState> cluster(deployment, sched, factory, 0, 0, seed);
    auto victim = std::make_unique<HostedParty<ReconfigState>>(
        cluster.simulator(), 3, tampered, seed * 7919 + 3,
        [&](net::Party& party) { return factory(party, 3); });
    ReconfigState& victim_state = victim->protocol();
    cluster.attach_custom(3, std::move(victim));

    cluster.start();
    cluster.for_each([](int, ReconfigState& s) { s.reconfig->start(); });
    victim_state.reconfig->start();
    ASSERT_TRUE(cluster.simulator().run_until(
        [&] {
          bool done = victim_state.result.has_value();
          for (int id = 0; id < 3; ++id) {
            done = done && cluster.protocol(id)->result.has_value();
          }
          return done;
        },
        60000000));

    const ReconfigResult& hit = *victim_state.result;
    if (!hit.completed) {
      // Abort seed: the honest members abort with the victim.
      for (int id = 0; id < 3; ++id) {
        EXPECT_FALSE(cluster.protocol(id)->result->completed) << "member " << id;
      }
      continue;
    }
    // The honest majority ends on one bit-identical announcement.
    const auto& group = deployment.keys->public_keys().coin.group();
    std::vector<Bytes> encodings;
    for (int id = 0; id < 3; ++id) {
      const ReconfigResult& r = *cluster.protocol(id)->result;
      ASSERT_TRUE(r.completed && r.share_valid) << "member " << id;
      Writer w;
      r.config.encode(w, group);
      encodings.push_back(w.take());
    }
    EXPECT_EQ(encodings[1], encodings[0]);
    EXPECT_EQ(encodings[2], encodings[0]);
    if (!hit.share_valid &&
        group.exp_g(hit.shares[kKeyCoin]) != hit.config.verification[kKeyCoin][3]) {
      // The detected share really is unusable: it does not match the
      // published verification value.
      detected = true;
    }
  }
  EXPECT_TRUE(detected) << "no seed exercised the applied-but-invalid detection path";
}

}  // namespace
}  // namespace sintra
