// Experiment E7 — threshold-cryptography micro-benchmarks
// (google-benchmark): the primitives the paper calls "quite practical
// given current processor speed" (§2), plus robustness overhead (share
// verification) and the generalized-LSSS variants.
//
// One benchmark per operation: coin share/verify/combine, threshold-RSA
// sign-share/verify/combine, TDH2 encrypt/decrypt-share/verify/combine —
// at threshold (n, t) configurations and over the Example 1 LSSS.
// Discrete-log benchmarks run per group backend (test/big Schnorr,
// secp256k1); the backend name is attached as the benchmark label so
// run_bench.sh can compare backends at fixed (benchmark, args).
#include <benchmark/benchmark.h>

#include "adversary/examples.hpp"
#include "crypto/batch.hpp"
#include "crypto/dealer.hpp"
#include "crypto/group_schnorr.hpp"
#include "crypto/nizk.hpp"
#include "crypto/shamir.hpp"

using namespace sintra;
using namespace sintra::crypto;

namespace {

std::shared_ptr<const LinearScheme> scheme_for(int n, int t) {
  return std::make_shared<ThresholdScheme>(n, t);
}

// Backend selector shared by all discrete-log benchmarks:
//   0 = test Schnorr (256/128), 1 = big Schnorr (1536/256), 2 = secp256k1,
//   3 = production Schnorr (768/256, CryptoConfig::production()).
GroupPtr group_for(std::int64_t which) {
  switch (which) {
    case 0: return Group::test_group();
    case 1: return Group::big_group();
    case 3: return Group::default_group();
    default: return Group::curve_group();
  }
}

void label_backend(benchmark::State& state, const Group& g) { state.SetLabel(g.name()); }

// ---- modular-exponentiation substrate ---------------------------------------
// Arg(0): backend selector (see group_for).

void BM_ExpFixedBaseG(benchmark::State& state) {
  GroupPtr g = group_for(state.range(0));
  label_backend(state, *g);
  Rng rng(10);
  const BigInt s = g->random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->exp_g(s));
  }
}
BENCHMARK(BM_ExpFixedBaseG)->Arg(0)->Arg(1)->Arg(2);

void BM_ExpGenericBase(benchmark::State& state) {
  GroupPtr g = group_for(state.range(0));
  label_backend(state, *g);
  Rng rng(10);
  const Element base = g->exp_g(g->random_scalar(rng));
  const BigInt s = g->random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->exp(base, s));
  }
}
BENCHMARK(BM_ExpGenericBase)->Arg(0)->Arg(1)->Arg(2);

void BM_ExpReferencePath(benchmark::State& state) {
  // Schoolbook modular exponentiation; Schnorr-representation only (the
  // curve backend has no Z_p* reference path).
  auto g = state.range(0) == 0 ? SchnorrGroup::test() : SchnorrGroup::big();
  label_backend(state, *g);
  Rng rng(10);
  const BigInt base = g->exp_g(g->random_scalar(rng)).residue();
  const BigInt s = g->random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::pow_mod_reference(base, s, g->p()));
  }
}
BENCHMARK(BM_ExpReferencePath)->Arg(0)->Arg(1);

void BM_Exp2(benchmark::State& state) {
  GroupPtr g = group_for(state.range(0));
  label_backend(state, *g);
  Rng rng(10);
  const Element b1 = g->exp_g(g->random_scalar(rng));
  const Element b2 = g->exp_g(g->random_scalar(rng));
  const BigInt e1 = g->random_scalar(rng);
  const BigInt e2 = g->random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->exp2(b1, e1, b2, e2));
  }
}
BENCHMARK(BM_Exp2)->Arg(0)->Arg(1)->Arg(2);

void BM_MultiExp(benchmark::State& state) {
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  Rng rng(10);
  std::vector<std::pair<Element, BigInt>> pairs;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    pairs.emplace_back(g->exp_g(g->random_scalar(rng)), g->random_scalar(rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->multi_exp(pairs));
  }
}
BENCHMARK(BM_MultiExp)
    ->Args({2, 0})->Args({5, 0})->Args({11, 0})
    ->Args({2, 2})->Args({5, 2})->Args({11, 2})->Args({33, 2});

// DLEQ proof verification — the primitive under every coin/TDH2 share
// check.  Arg(0): 1 = all statement bases are
// long-lived registered keys served by fixed-base tables (the shape of
// repeated verification against a fixed key set), 0 = all bases fresh
// (worst case: nothing precomputable; the coin/TDH2 verify benches
// cover the mixed shape with one fresh base per equation).
// Arg(1): backend selector.
void BM_DleqVerify(benchmark::State& state) {
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  const bool registered = state.range(0) != 0;
  Rng rng(11);
  const BigInt x = g->random_scalar(rng);
  const Element g1 = registered ? g->g() : g->hash_to_element("bench/dleq/g1", bytes_of("1"));
  const Element g2 = g->hash_to_element("bench/dleq/g2", bytes_of("2"));
  const Element h1 = g->exp(g1, x);
  const Element h2 = g->exp(g2, x);
  if (registered) {
    g->precompute_base(h1);
    g->precompute_base(g2);
    g->precompute_base(h2);
  }
  auto proof = DleqProof::prove(*g, "bench/dleq", g1, h1, g2, h2, x, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(proof.verify(*g, "bench/dleq", g1, h1, g2, h2));
  }
}
BENCHMARK(BM_DleqVerify)
    ->Args({1, 0})->Args({1, 1})->Args({1, 2})->Args({0, 1})->Args({0, 2});

// ---- coin -------------------------------------------------------------------
// Arg(0): n (t = (n-1)/3).  Arg(1): backend selector.

void BM_CoinShare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  Rng rng(1);
  auto deal = CoinDeal::deal(g, scheme_for(n, t), rng);
  Bytes name = bytes_of("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.secret_keys[0].share(deal.public_key, name, rng));
  }
}
BENCHMARK(BM_CoinShare)
    ->Args({4, 0})->Args({7, 0})->Args({10, 0})->Args({16, 0})
    ->Args({4, 1})->Args({4, 2})->Args({16, 2});

void BM_CoinVerifyShare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  Rng rng(1);
  auto deal = CoinDeal::deal(g, scheme_for(n, t), rng);
  Bytes name = bytes_of("bench");
  auto shares = deal.secret_keys[0].share(deal.public_key, name, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.public_key.verify_share(name, shares[0]));
  }
}
BENCHMARK(BM_CoinVerifyShare)
    ->Args({4, 0})->Args({16, 0})->Args({4, 1})->Args({4, 2})->Args({16, 2});

// Checking k coin shares of one name: Arg(1) = 0 through
// batch::verify_coin_shares (one small-exponent batch above the crossover),
// 1 one share at a time over one coin base; Arg(2) = backend (see
// group_for).  Sets the per-backend crossover constants in crypto/batch.cpp.
void BM_CoinVerifyShareSet(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const bool one_by_one = state.range(1) == 1;
  GroupPtr g = group_for(state.range(2));
  label_backend(state, *g);
  Rng rng(1);
  auto deal = CoinDeal::deal(g, scheme_for(16, 5), rng);
  Bytes name = bytes_of("bench");
  std::vector<CoinShare> shares;
  for (int party = 0; party < k; ++party) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(party)].share(deal.public_key, name,
                                                                          rng)) {
      shares.push_back(s);
    }
  }
  for (auto _ : state) {
    if (one_by_one) {
      // What verify_coin_shares does below its crossover: hash once.
      const Element base = deal.public_key.coin_base(name);
      bool ok = true;
      for (const CoinShare& s : shares) ok = ok && deal.public_key.verify_share_at(base, s);
      benchmark::DoNotOptimize(ok);
    } else {
      benchmark::DoNotOptimize(batch::verify_coin_shares(deal.public_key, name, shares, rng));
    }
  }
}
BENCHMARK(BM_CoinVerifyShareSet)
    ->ArgsProduct({{2, 3, 4, 6, 8, 11}, {0, 1}, {0, 3, 2}});

void BM_CoinCombine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  Rng rng(1);
  auto deal = CoinDeal::deal(g, scheme_for(n, t), rng);
  Bytes name = bytes_of("bench");
  std::vector<CoinShare> shares;
  for (int p = 0; p <= t; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].share(deal.public_key, name,
                                                                       rng)) {
      shares.push_back(s);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.public_key.combine(name, shares));
  }
}
BENCHMARK(BM_CoinCombine)
    ->Args({4, 0})->Args({7, 0})->Args({10, 0})->Args({16, 0})
    ->Args({4, 1})->Args({4, 2})->Args({16, 2});

// ---- threshold RSA signatures ------------------------------------------------
// RSA works in Z_Nm*, independent of the Group backend — no curve arms.

void BM_SigShare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  Rng rng(2);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(256), scheme_for(n, t), rng);
  Bytes message = bytes_of("sign this");
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.secret_keys[0].sign(deal.public_key, message, rng));
  }
}
BENCHMARK(BM_SigShare)->Arg(4)->Arg(16);

void BM_SigVerifyShare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  Rng rng(2);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(256), scheme_for(n, t), rng);
  Bytes message = bytes_of("sign this");
  auto shares = deal.secret_keys[0].sign(deal.public_key, message, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.public_key.verify_share(message, shares[0]));
  }
}
BENCHMARK(BM_SigVerifyShare)->Arg(4)->Arg(16);

void BM_SigCombine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  Rng rng(2);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(256), scheme_for(n, t), rng);
  Bytes message = bytes_of("sign this");
  std::vector<SigShare> shares;
  for (int p = 0; p <= t; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].sign(deal.public_key,
                                                                      message, rng)) {
      shares.push_back(s);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.public_key.combine(message, shares));
  }
}
BENCHMARK(BM_SigCombine)->Arg(4)->Arg(7)->Arg(10)->Arg(16);

void BM_SigVerifyCombined(benchmark::State& state) {
  Rng rng(2);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(256), scheme_for(4, 1), rng);
  Bytes message = bytes_of("sign this");
  std::vector<SigShare> shares;
  for (int p = 0; p <= 1; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].sign(deal.public_key,
                                                                      message, rng)) {
      shares.push_back(s);
    }
  }
  auto sig = deal.public_key.combine(message, shares);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.public_key.verify(message, *sig));
  }
}
BENCHMARK(BM_SigVerifyCombined);

// ---- TDH2 --------------------------------------------------------------------
// Arg layout as for the coin: trailing arg selects the backend.

void BM_Tdh2Encrypt(benchmark::State& state) {
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  Rng rng(3);
  auto deal = Tdh2Deal::deal(g, scheme_for(4, 1), rng);
  Bytes message(static_cast<std::size_t>(state.range(0)), 0xaa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.public_key.encrypt(message, bytes_of("l"), rng));
  }
}
BENCHMARK(BM_Tdh2Encrypt)->Args({32, 0})->Args({1024, 0})->Args({32, 2})->Args({1024, 2});

void BM_Tdh2DecShare(benchmark::State& state) {
  GroupPtr g = group_for(state.range(0));
  label_backend(state, *g);
  Rng rng(3);
  auto deal = Tdh2Deal::deal(g, scheme_for(4, 1), rng);
  auto ct = deal.public_key.encrypt(bytes_of("message"), bytes_of("l"), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.secret_keys[0].decrypt_shares(deal.public_key, ct, rng));
  }
}
BENCHMARK(BM_Tdh2DecShare)->Arg(0)->Arg(1)->Arg(2);

void BM_Tdh2VerifyShare(benchmark::State& state) {
  GroupPtr g = group_for(state.range(0));
  label_backend(state, *g);
  Rng rng(3);
  auto deal = Tdh2Deal::deal(g, scheme_for(4, 1), rng);
  auto ct = deal.public_key.encrypt(bytes_of("message"), bytes_of("l"), rng);
  auto shares = deal.secret_keys[0].decrypt_shares(deal.public_key, ct, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.public_key.verify_share(ct, shares[0]));
  }
}
BENCHMARK(BM_Tdh2VerifyShare)->Arg(0)->Arg(1)->Arg(2);

void BM_Tdh2Combine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  Rng rng(3);
  auto deal = Tdh2Deal::deal(g, scheme_for(n, t), rng);
  auto ct = deal.public_key.encrypt(bytes_of("message"), bytes_of("l"), rng);
  std::vector<Tdh2DecShare> shares;
  for (int p = 0; p <= t; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].decrypt_shares(
             deal.public_key, ct, rng)) {
      shares.push_back(s);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.public_key.combine(ct, shares));
  }
}
BENCHMARK(BM_Tdh2Combine)->Args({4, 0})->Args({16, 0})->Args({4, 2})->Args({16, 2});

// ---- generalized structures ----------------------------------------------------

void BM_CoinShareExample1Lsss(benchmark::State& state) {
  GroupPtr g = group_for(state.range(0));
  label_backend(state, *g);
  Rng rng(4);
  auto scheme = std::make_shared<adversary::LsssScheme>(adversary::example1_access(), 9);
  auto deal = CoinDeal::deal(g, scheme, rng);
  Bytes name = bytes_of("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.secret_keys[0].share(deal.public_key, name, rng));
  }
}
BENCHMARK(BM_CoinShareExample1Lsss)->Arg(0)->Arg(2);

void BM_CoinCombineExample1Lsss(benchmark::State& state) {
  GroupPtr g = group_for(state.range(0));
  label_backend(state, *g);
  Rng rng(4);
  auto scheme = std::make_shared<adversary::LsssScheme>(adversary::example1_access(), 9);
  auto deal = CoinDeal::deal(g, scheme, rng);
  Bytes name = bytes_of("bench");
  std::vector<CoinShare> shares;
  for (int p : {0, 4, 8}) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].share(deal.public_key, name,
                                                                       rng)) {
      shares.push_back(s);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(deal.public_key.combine(name, shares));
  }
}
BENCHMARK(BM_CoinCombineExample1Lsss)->Arg(0)->Arg(2);

void BM_DealerFullBundle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  GroupPtr g = group_for(state.range(1));
  label_backend(state, *g);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyBundle::deal_threshold(n, t, rng, g));
  }
}
BENCHMARK(BM_DealerFullBundle)
    ->Args({4, 0})->Args({16, 0})->Args({4, 2})->Args({16, 2})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
