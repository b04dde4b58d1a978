// Proactive refresh across epochs (paper §6, "Proactive Protocols").
//
// A mobile adversary compromises a different server every epoch.  Without
// refresh, after compromising servers 0 and 1 (in different epochs) it
// holds t+1 = 2 shares and owns the coin key.  A refresh is a
// same-committee reconfiguration epoch (protocols/reconfig.hpp): every
// server keeps its slot and gets fresh shares of the SAME four keys, so the
// share stolen in epoch 1 is USELESS in epoch 2 — the adversary never holds
// a qualified set of same-epoch shares.  Each epoch runs on the committee
// assembled from the previous epoch's results.
//
// Exits nonzero if an epoch stalls or aborts, a server ends with an
// unusable share, the stolen shares reconstruct the key, or the coin
// changes value.
//
//   build/examples/proactive_epochs
#include <cstdio>

#include "crypto/shamir.hpp"
#include "protocols/harness.hpp"
#include "protocols/reconfig.hpp"

using namespace sintra;

namespace {

constexpr int kN = 4;
constexpr int kT = 1;

struct Node {
  std::unique_ptr<protocols::Reconfig> reconfig;
  std::optional<protocols::ReconfigResult> result;
};

/// One refresh epoch over the simulator: the committee after it, or
/// nullopt if the epoch stalled, aborted or left a server unusable.
std::optional<adversary::Deployment> refresh(const adversary::Deployment& committee,
                                             std::uint32_t epoch) {
  const auto plan = protocols::ReconfigPlan::same_committee(epoch, kN, kT);
  net::RandomScheduler sched(epoch * 11);
  protocols::Cluster<Node> cluster(committee, sched, [&plan](net::Party& party, int) {
    auto node = std::make_unique<Node>();
    node->reconfig = std::make_unique<protocols::Reconfig>(
        party, "refresh", plan, std::nullopt, protocols::ReconfigOptions{},
        [n = node.get()](const protocols::ReconfigResult& r) { n->result = r; });
    return node;
  });
  cluster.start();
  cluster.for_each([](int, Node& n) { n.reconfig->start(); });
  if (!cluster.run_until_all([](Node& n) { return n.result.has_value(); }, 60000000)) {
    std::printf("FAILED: refresh epoch %u stalled\n", epoch);
    return std::nullopt;
  }
  std::vector<protocols::ReconfigResult> results;
  for (int id = 0; id < kN; ++id) {
    const auto& r = *cluster.protocol(id)->result;
    if (!r.completed || !r.share_valid) {
      std::printf("FAILED: refresh epoch %u, server %d: %s\n", epoch, id,
                  r.completed ? "unusable share" : "epoch aborted");
      return std::nullopt;
    }
    results.push_back(r);
  }
  std::printf("refresh %u complete: %d dealings applied, every share of all four keys "
              "replaced\n",
              epoch, results[0].dealings_applied);
  return protocols::assemble_committee(committee, plan, results);
}

crypto::BigInt coin_share(const adversary::Deployment& committee, int id) {
  return committee.keys->share(id).coin.unit_shares().at(id);
}

/// The coin value for `name`, combined from servers 2 and 3.
std::optional<Bytes> toss(const adversary::Deployment& committee, BytesView name, Rng& rng) {
  const auto& pk = committee.keys->public_keys().coin;
  std::vector<crypto::CoinShare> shares;
  for (int id = 2; id < kN; ++id) {
    for (auto& s : committee.keys->share(id).coin.share(pk, name, rng)) shares.push_back(s);
  }
  return pk.combine(name, shares);
}

}  // namespace

int main() {
  Rng rng(2026);
  std::vector<adversary::Deployment> epochs{adversary::Deployment::threshold(kN, kT, rng)};

  // The mobile adversary's loot: one share per epoch.
  std::map<int, crypto::BigInt> stolen;  // server -> share (as of theft epoch)
  stolen[0] = coin_share(epochs[0], 0);  // epoch 1: server 0 compromised
  std::printf("epoch 1: adversary steals server 0's share\n");

  for (std::uint32_t epoch = 1; epoch <= 2; ++epoch) {
    auto next = refresh(epochs.back(), epoch);
    if (!next) return 1;
    epochs.push_back(std::move(*next));
    if (epoch == 1) {
      stolen[1] = coin_share(epochs.back(), 1);  // epoch 2: server 1 compromised
      std::printf("epoch 2: adversary steals server 1's (fresh) share\n");
    }
  }
  std::printf("certificate-key share width: %zu -> %zu -> %zu bits (grows every epoch)\n",
              epochs[0].keys->public_keys().cert_sig.share_bits(),
              epochs[1].keys->public_keys().cert_sig.share_bits(),
              epochs[2].keys->public_keys().cert_sig.share_bits());

  // The adversary now holds shares of servers 0 and 1 — but from DIFFERENT
  // epochs.  Interpolating them yields garbage:
  const auto& group = epochs[0].keys->public_keys().coin.group();
  crypto::ThresholdScheme scheme(kN, kT);
  const crypto::BigInt loot = scheme.reconstruct(stolen, group.q());
  std::map<int, crypto::BigInt> current{{0, coin_share(epochs.back(), 0)},
                                        {1, coin_share(epochs.back(), 1)}};
  const bool broken = loot == scheme.reconstruct(current, group.q());
  std::printf("\ncross-epoch loot reconstructs the real key: %s\n",
              broken ? "YES (BROKEN!)" : "no — stale shares are useless");

  // And the refreshed key still tosses the same coins (same secret):
  const Bytes name = bytes_of("post-refresh-coin");
  Rng coin_rng(7);
  const auto fresh = toss(epochs.back(), name, coin_rng);
  const auto original = toss(epochs.front(), name, coin_rng);
  const bool same = fresh && original && *fresh == *original;
  std::printf("coin value unchanged across two refresh epochs: %s\n", same ? "YES" : "NO");
  return (!broken && same) ? 0 : 1;
}
