// Experiment E13 — the verification pipeline (google-benchmark).
//
// Two layers, matching the two halves of the pipeline:
//
//   1. Micro: batch verification (crypto/batch.hpp) against one-at-a-time
//      verification for the same share sets — coin (DLEQ), threshold-RSA
//      signature, and TDH2 decryption shares, at k = 4 and k = 16.  The
//      headline acceptance number is Sig k=16: batch must be >= 3x the
//      individual path.  Combine-then-verify, the path ServiceClient
//      takes for reply receipts, is measured separately.
//
//   2. Macro: E3-style atomic broadcast, full protocol stack over
//      NetworkedNode + LoopbackHub, four independent groups per node with
//      0/1/2/4 protocol executors per node.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "adversary/examples.hpp"
#include "crypto/batch.hpp"
#include "crypto/dealer.hpp"
#include "crypto/shamir.hpp"
#include "protocols/atomic.hpp"
#include "protocols/net_cluster.hpp"

using namespace sintra;
using namespace sintra::crypto;

namespace {

std::shared_ptr<const LinearScheme> scheme_for(int n, int t) {
  return std::make_shared<ThresholdScheme>(n, t);
}

// Backend selector, same convention as bench_e7_crypto (always the LAST
// benchmark arg): 0 = test Schnorr, 1 = big Schnorr, 2 = secp256k1.  The
// backend name is attached as the label for run_bench.sh's comparison.
GroupPtr group_for(std::int64_t which) {
  switch (which) {
    case 0: return Group::test_group();
    case 1: return Group::big_group();
    default: return Group::curve_group();
  }
}

void label_backend(benchmark::State& state, const Group& g) { state.SetLabel(g.name()); }

// ---- micro: batch vs individual share verification --------------------------
// All share sets are dealt at (n=16, t=5); Arg(0) picks how many of the
// 16 shares the verifier is handed (the batch API cost is per set size,
// not per dealing).

void BM_CoinVerifyIndividual(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  auto deal = CoinDeal::deal(g, scheme_for(16, 5), rng);
  Bytes name = bytes_of("e13");
  std::vector<CoinShare> shares;
  for (std::size_t p = 0; p < k; ++p) {
    for (auto& s : deal.secret_keys[p].share(deal.public_key, name, rng)) shares.push_back(s);
  }
  for (auto _ : state) {
    bool all = true;
    for (const auto& s : shares) all = deal.public_key.verify_share(name, s) && all;
    benchmark::DoNotOptimize(all);
  }
}
BENCHMARK(BM_CoinVerifyIndividual)
    ->Args({4, 0})->Args({16, 0})->Args({4, 1})->Args({16, 1})->Args({4, 2})->Args({16, 2});

void BM_CoinVerifyBatch(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(21);
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  auto deal = CoinDeal::deal(g, scheme_for(16, 5), rng);
  Bytes name = bytes_of("e13");
  std::vector<CoinShare> shares;
  for (std::size_t p = 0; p < k; ++p) {
    for (auto& s : deal.secret_keys[p].share(deal.public_key, name, rng)) shares.push_back(s);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch::verify_coin_shares(deal.public_key, name, shares, rng));
  }
}
BENCHMARK(BM_CoinVerifyBatch)
    ->Args({4, 0})->Args({16, 0})->Args({4, 1})->Args({16, 1})->Args({4, 2})->Args({16, 2});

void BM_SigVerifyIndividual(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(22);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(128), scheme_for(16, 5), rng);
  Bytes message = bytes_of("e13 sign this");
  std::vector<SigShare> shares;
  for (std::size_t p = 0; p < k; ++p) {
    for (auto& s : deal.secret_keys[p].sign(deal.public_key, message, rng)) shares.push_back(s);
  }
  for (auto _ : state) {
    bool all = true;
    for (const auto& s : shares) all = deal.public_key.verify_share(message, s) && all;
    benchmark::DoNotOptimize(all);
  }
}
BENCHMARK(BM_SigVerifyIndividual)->Arg(4)->Arg(16);

void BM_SigVerifyBatch(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(22);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(128), scheme_for(16, 5), rng);
  Bytes message = bytes_of("e13 sign this");
  std::vector<SigShare> shares;
  for (std::size_t p = 0; p < k; ++p) {
    for (auto& s : deal.secret_keys[p].sign(deal.public_key, message, rng)) shares.push_back(s);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch::verify_sig_shares(deal.public_key, message, shares, rng));
  }
}
BENCHMARK(BM_SigVerifyBatch)->Arg(4)->Arg(16);

void BM_SigCombineOptimistic(benchmark::State& state) {
  // The honest-execution fast path: combine a threshold set unverified
  // and check the single combined signature (one e = 65537 exponentiation).
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(22);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(128), scheme_for(16, 5), rng);
  Bytes message = bytes_of("e13 sign this");
  std::vector<SigShare> shares;
  for (std::size_t p = 0; p < k; ++p) {
    for (auto& s : deal.secret_keys[p].sign(deal.public_key, message, rng)) shares.push_back(s);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch::combine_sig_optimistic(deal.public_key, message, shares, rng));
  }
}
BENCHMARK(BM_SigCombineOptimistic)->Arg(16);

void BM_Tdh2VerifyIndividual(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  auto deal = Tdh2Deal::deal(g, scheme_for(16, 5), rng);
  auto ct = deal.public_key.encrypt(bytes_of("message"), bytes_of("l"), rng);
  std::vector<Tdh2DecShare> shares;
  for (std::size_t p = 0; p < k; ++p) {
    for (auto& s : deal.secret_keys[p].decrypt_shares(deal.public_key, ct, rng)) {
      shares.push_back(s);
    }
  }
  for (auto _ : state) {
    bool all = true;
    for (const auto& s : shares) all = deal.public_key.verify_share(ct, s) && all;
    benchmark::DoNotOptimize(all);
  }
}
BENCHMARK(BM_Tdh2VerifyIndividual)
    ->Args({4, 0})->Args({16, 0})->Args({4, 1})->Args({16, 1})->Args({4, 2})->Args({16, 2});

void BM_Tdh2VerifyBatch(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  auto deal = Tdh2Deal::deal(g, scheme_for(16, 5), rng);
  auto ct = deal.public_key.encrypt(bytes_of("message"), bytes_of("l"), rng);
  std::vector<Tdh2DecShare> shares;
  for (std::size_t p = 0; p < k; ++p) {
    for (auto& s : deal.secret_keys[p].decrypt_shares(deal.public_key, ct, rng)) {
      shares.push_back(s);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch::verify_dec_shares(deal.public_key, ct, shares, rng));
  }
}
BENCHMARK(BM_Tdh2VerifyBatch)
    ->Args({4, 0})->Args({16, 0})->Args({4, 1})->Args({16, 1})->Args({4, 2})->Args({16, 2});

using protocols::AtomicBroadcast;

/// Every node has delivered at least `payloads` payloads.
template <typename State>
bool each_delivered(protocols::NetCluster<State>& cluster, std::size_t payloads) {
  for (int id = 0; id < cluster.n(); ++id) {
    if (cluster.protocol(id).delivered < payloads) return false;
  }
  return true;
}

// ---- macro: multi-group atomic broadcast with 0/1/2/4 protocol executors ----
//
// The executor-scaling experiment (issue 7): G independent atomic
// broadcast groups ("abc0".."abc3") per node are independent instance
// trees, so with E executors attached their handlers run on up to E cores
// concurrently while the pump thread only moves frames.  E=0 is the
// sequential inline baseline over the identical group layout; the
// speedup at E=4 on a multi-core host is the tentpole acceptance number
// (on a 1-core container the numbers collapse to ~1x — run on the CI
// bench runner for the real curve).

constexpr int kGroups = 4;

struct MultiAbcState {
  std::vector<std::unique_ptr<AtomicBroadcast>> groups;
  std::atomic<std::size_t> delivered{0};  ///< read by the pump's done()
};

std::unique_ptr<MultiAbcState> make_multi_abc_state(net::Party& party, int, int) {
  auto state = std::make_unique<MultiAbcState>();
  for (int g = 0; g < kGroups; ++g) {
    const std::string tag = "abc" + std::to_string(g);
    // Construction inside with_instance: timers the stack arms while
    // being built are attributed to this group's executor.
    party.with_instance(tag, [&] {
      state->groups.push_back(std::make_unique<AtomicBroadcast>(
          party, tag, [s = state.get()](int, Bytes) {
            s->delivered.fetch_add(1, std::memory_order_relaxed);
          }));
    });
  }
  return state;
}

void BM_E3AtomicExecutors(benchmark::State& state) {
  const auto executors = static_cast<std::size_t>(state.range(0));
  constexpr int kN = 4;
  constexpr std::size_t kPayloadsPerGroup = 4;
  constexpr std::size_t kPayloads = kPayloadsPerGroup * kGroups;
  Rng rng(37);
  adversary::CryptoConfig config;
  config.group = group_for(state.range(1));
  label_backend(state, *config.group);
  auto deployment = adversary::Deployment::threshold(kN, 1, rng, config);
  std::uint64_t seed = 1;
  bool live = true;
  for (auto _ : state) {
    state.PauseTiming();
    auto cluster = std::make_unique<protocols::NetCluster<MultiAbcState>>(
        std::vector<adversary::Deployment>{deployment}, make_multi_abc_state,
        protocols::NetClusterShape{.executors = executors, .seed = ++seed});
    state.ResumeTiming();
    for (std::size_t k = 0; k < kPayloads; ++k) {
      const int g = static_cast<int>(k) % kGroups;
      auto& host = cluster->host(static_cast<int>(k % kN));
      host.party().with_instance("abc" + std::to_string(g), [&] {
        host.protocol().groups[static_cast<std::size_t>(g)]->submit(
            bytes_of("pay" + std::to_string(k)));
      });
    }
    // Every node delivers every submitted payload (once, atomically).
    live = cluster->run_until([&] { return each_delivered(*cluster, kPayloads); }, 50'000'000) &&
           live;
    state.PauseTiming();
    cluster.reset();
    state.ResumeTiming();
  }
  if (!live) state.SkipWithError("atomic broadcast did not deliver");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kPayloads));
}
BENCHMARK(BM_E3AtomicExecutors)
    ->Args({0, 0})->Args({1, 0})->Args({2, 0})->Args({4, 0})
    ->Args({0, 2})->Args({4, 2})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
