// Experiment E16 — online membership reconfiguration: epoch latency.
//
// One reconfiguration epoch = every old member deals a verifiable
// redistribution of its key shares, the dealings and verdicts ride the
// embedded atomic broadcast, and the epoch concludes with a NEW-CONFIG
// announcement signed under the old reply key (PROTOCOLS.md
// "Reconfiguration").  We time the full n=4 -> 5 -> 4 chain the paper's
// long-lived-service story needs: grow by one replica, then shrink back,
// plus the in-place swap (retire one, admit one).  Each timed iteration
// runs the complete epoch over the discrete-event simulator, including
// the joiner's package verification where a joiner exists; the "steps"
// counter reports scheduler steps per epoch, averaged over a fixed list of
// seeds outside the timed loop (so two runs of the same code print the
// same count), and wall time reports the crypto-dominated compute cost.
#include <benchmark/benchmark.h>

#include "crypto/sha256.hpp"
#include "protocols/harness.hpp"
#include "protocols/reconfig.hpp"

using namespace sintra;

namespace {

constexpr const char* kTag = "reconfig";

struct ReconfigState {
  std::unique_ptr<protocols::Reconfig> reconfig;
  std::optional<protocols::ReconfigResult> result;
};

/// Out-of-band pairwise secret between old member `dealer` and the joiner
/// filling `slot` — both sides derive it from the same inputs, standing in
/// for the operator provisioning channel.
Bytes join_key(std::uint32_t epoch, int dealer, int slot) {
  Writer w;
  w.u32(epoch);
  w.u32(static_cast<std::uint32_t>(dealer));
  w.u32(static_cast<std::uint32_t>(slot));
  return crypto::hash_expand("bench/e16/join-key", w.data(), 32);
}

protocols::ReconfigPlan make_plan(std::uint32_t epoch, int n_old, int t_old, int t_new,
                                  std::vector<std::int32_t> old_slot) {
  protocols::ReconfigPlan plan;
  plan.new_epoch = epoch;
  plan.n_old = n_old;
  plan.t_old = t_old;
  plan.n_new = static_cast<std::int32_t>(old_slot.size());
  plan.t_new = t_new;
  plan.old_slot = std::move(old_slot);
  return plan;
}

protocols::ReconfigOptions options_for(const protocols::ReconfigPlan& plan, int id) {
  protocols::ReconfigOptions options;
  for (int slot = 0; slot < plan.n_new; ++slot) {
    if (plan.joining(slot)) options.join_keys[slot] = join_key(plan.new_epoch, id, slot);
  }
  return options;
}

struct EpochOutcome {
  bool completed = false;
  std::uint64_t steps = 0;
  std::vector<protocols::ReconfigResult> results;  ///< indexed by new slot
};

/// Run one full epoch over the simulator; joiner slots bootstrap through a
/// JoinListener fed from the first survivor's package.
EpochOutcome run_epoch(const adversary::Deployment& deployment,
                       const protocols::ReconfigPlan& plan, std::uint64_t seed) {
  net::RandomScheduler sched(seed * 3 + 1);
  protocols::Cluster<ReconfigState> cluster(
      deployment, sched,
      [&plan](net::Party& party, int id) {
        auto state = std::make_unique<ReconfigState>();
        state->reconfig = std::make_unique<protocols::Reconfig>(
            party, kTag, plan, std::nullopt, options_for(plan, id),
            [s = state.get()](const protocols::ReconfigResult& r) { s->result = r; });
        return state;
      },
      0, 0, seed);
  cluster.start();
  cluster.for_each([](int, ReconfigState& s) { s.reconfig->start(); });

  EpochOutcome outcome;
  outcome.completed = cluster.run_until_all(
      [](ReconfigState& s) { return s.result.has_value(); }, 60000000);
  outcome.steps = cluster.simulator().now();
  if (!outcome.completed) return outcome;

  outcome.results.resize(static_cast<std::size_t>(plan.n_new));
  int provider = -1;
  for (int old = 0; old < plan.n_old; ++old) {
    const auto& r = *cluster.protocol(old)->result;
    outcome.completed = outcome.completed && r.completed;
    if (r.new_slot >= 0) {
      outcome.results[static_cast<std::size_t>(r.new_slot)] = r;
      if (provider < 0) provider = old;
    }
  }
  const auto& old_public = deployment.keys->public_keys();
  for (int slot = 0; slot < plan.n_new; ++slot) {
    if (!plan.joining(slot)) continue;
    std::map<int, Bytes> keys;
    for (int dealer = 0; dealer < plan.n_old; ++dealer) {
      keys[dealer] = join_key(plan.new_epoch, dealer, slot);
    }
    protocols::JoinListener listener(kTag, slot, std::move(keys), old_public.coin.group_ptr(),
                                     old_public);
    outcome.completed = outcome.completed &&
                        listener.offer(cluster.protocol(provider)->reconfig->join_package(slot)) &&
                        listener.ready();
    if (listener.result().has_value()) {
      outcome.results[static_cast<std::size_t>(slot)] = *listener.result();
    }
  }
  return outcome;
}

/// Scheduler steps per epoch over seeds first_seed .. first_seed + 7.
double mean_steps(const adversary::Deployment& deployment, const protocols::ReconfigPlan& plan,
                  std::uint64_t first_seed) {
  constexpr std::uint64_t kSeeds = 8;
  std::uint64_t steps = 0;
  for (std::uint64_t seed = first_seed; seed < first_seed + kSeeds; ++seed) {
    steps += run_epoch(deployment, plan, seed).steps;
  }
  return static_cast<double>(steps) / kSeeds;
}

protocols::ReconfigPlan grow_plan() { return make_plan(1, 4, 1, 1, {0, 1, 2, 3, -1}); }
protocols::ReconfigPlan shrink_plan() { return make_plan(2, 5, 1, 1, {0, 2, 3, 4}); }
protocols::ReconfigPlan swap_plan() { return make_plan(1, 4, 1, 1, {0, 1, 2, -1}); }

void BM_EpochGrow4to5(benchmark::State& state) {
  Rng rng(11);
  const auto deployment = adversary::Deployment::threshold(4, 1, rng);
  std::uint64_t seed = 11;
  for (auto _ : state) {
    auto outcome = run_epoch(deployment, grow_plan(), seed++);
    if (!outcome.completed) state.SkipWithError("grow epoch failed");
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["steps"] = mean_steps(deployment, grow_plan(), 11);
}

void BM_EpochShrink5to4(benchmark::State& state) {
  // Setup: one grow epoch produces the 5-member committee we shrink.
  Rng rng(13);
  const auto old_deployment = adversary::Deployment::threshold(4, 1, rng);
  auto grow = run_epoch(old_deployment, grow_plan(), 13);
  if (!grow.completed) {
    state.SkipWithError("setup grow epoch failed");
    return;
  }
  const auto committee = protocols::assemble_committee(
      old_deployment, grow_plan(), grow.results,
      [](int dealer, int slot) { return join_key(grow_plan().new_epoch, dealer, slot); });
  std::uint64_t seed = 13;
  for (auto _ : state) {
    auto outcome = run_epoch(committee, shrink_plan(), seed++);
    if (!outcome.completed) state.SkipWithError("shrink epoch failed");
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["steps"] = mean_steps(committee, shrink_plan(), 13);
}

void BM_EpochSwapReplica(benchmark::State& state) {
  Rng rng(17);
  const auto deployment = adversary::Deployment::threshold(4, 1, rng);
  std::uint64_t seed = 17;
  for (auto _ : state) {
    auto outcome = run_epoch(deployment, swap_plan(), seed++);
    if (!outcome.completed) state.SkipWithError("swap epoch failed");
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["steps"] = mean_steps(deployment, swap_plan(), 17);
}

BENCHMARK(BM_EpochGrow4to5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EpochShrink5to4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EpochSwapReplica)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
