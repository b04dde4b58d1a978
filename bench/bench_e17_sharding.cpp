// Experiment E17 — sharded multi-group operation (google-benchmark).
//
// Four machines, each one NetworkedNode hosting S independent SINTRA
// groups (distinct dealt keys per group) over ONE LoopbackHub link mesh,
// with ONE machine-wide ExecutorPool per node shared by every tenant.
// Each group runs a full atomic broadcast; the benchmark measures
// submit-to-last-delivery for S * K payloads, so items/s is the AGGREGATE
// committed request rate across shards — the number the shard-scaling
// acceptance gate reads at S = 1, 2, 4, 8.
//
// Because group ids ride per record inside the coalesced BATCH
// super-frames (wire v4), multiplexing S groups adds zero frames: the
// payloads-per-batch counter reported per row proves multi-shard flushes
// still cost one HMAC (and on TCP one sendmsg) per link flush.
//
// On a 1-core container the curve collapses to ~1x — the CI bench runner
// (>= 4 CPUs) produces the real scaling numbers for BENCH_E17.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "adversary/quorum.hpp"
#include "protocols/atomic.hpp"
#include "protocols/net_cluster.hpp"

using namespace sintra;

namespace {

using protocols::AtomicBroadcast;

constexpr int kN = 4;
constexpr std::size_t kPayloadsPerShard = 4;

struct ShardAbcState {
  std::unique_ptr<AtomicBroadcast> abc;
  std::atomic<std::size_t> delivered{0};  ///< read by the pump's done()
};

std::unique_ptr<ShardAbcState> make_shard_state(net::Party& party, int, int) {
  auto state = std::make_unique<ShardAbcState>();
  party.with_instance("abc", [&party, &state] {
    state->abc = std::make_unique<AtomicBroadcast>(party, "abc", [st = state.get()](int, Bytes) {
      st->delivered.fetch_add(1, std::memory_order_relaxed);
    });
  });
  return state;
}

/// Four machines × S tenants, one Deployment per group.  Every tenant of
/// a machine shares that machine's NetworkedNode (transport link, pump,
/// timers) and its ExecutorPool; lanes are salted by group id so two
/// shards running the same protocol tag spread across cores instead of
/// colliding.
using ShardedBenchCluster = protocols::NetCluster<ShardAbcState>;

bool each_delivered(ShardedBenchCluster& cluster, std::size_t per_shard) {
  for (int id = 0; id < cluster.n(); ++id) {
    for (int s = 0; s < cluster.groups(); ++s) {
      if (cluster.protocol(id, s).delivered.load(std::memory_order_relaxed) < per_shard) {
        return false;
      }
    }
  }
  return true;
}

void BM_E17ShardedAtomic(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::size_t executors = std::min<std::size_t>(4, std::thread::hardware_concurrency());
  Rng rng(41);
  // Distinct dealt keys per group: each shard is a real independent
  // service, not a replay of one key set.  Dealt once, outside timing.
  std::vector<adversary::Deployment> deployments;
  for (std::size_t s = 0; s < shards; ++s) {
    deployments.push_back(adversary::Deployment::threshold(kN, 1, rng));
  }
  std::uint64_t seed = 1;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  bool live = true;
  for (auto _ : state) {
    state.PauseTiming();
    auto cluster = std::make_unique<ShardedBenchCluster>(
        deployments, make_shard_state,
        protocols::NetClusterShape{.executors = executors, .seed = ++seed});
    state.ResumeTiming();
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::size_t k = 0; k < kPayloadsPerShard; ++k) {
        auto& host = cluster->host(static_cast<int>((s + k) % kN), static_cast<int>(s));
        host.party().with_instance("abc", [&host, s, k] {
          host.protocol().abc->submit(bytes_of("s" + std::to_string(s) + "/p" + std::to_string(k)));
        });
      }
    }
    live = cluster->run_until([&] { return each_delivered(*cluster, kPayloadsPerShard); },
                              50'000'000) &&
           live;
    state.PauseTiming();
    const net::transport::LoopbackHub::Stats wire = cluster->hub().stats();
    batches += wire.batches_sent;
    coalesced += wire.coalesced_payloads;
    cluster.reset();
    state.ResumeTiming();
  }
  if (!live) state.SkipWithError("sharded atomic broadcast did not deliver");
  // Aggregate committed requests across ALL shards: the scaling gate's
  // numerator.  payloads_per_batch > 1 is the one-HMAC-per-flush proof —
  // multi-shard traffic coalesced instead of fragmenting into frames.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * shards * kPayloadsPerShard));
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["batches"] = static_cast<double>(batches);
  state.counters["payloads_per_batch"] =
      batches == 0 ? 0.0 : static_cast<double>(coalesced) / static_cast<double>(batches);
}
BENCHMARK(BM_E17ShardedAtomic)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
