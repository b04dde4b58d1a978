// Experiment E2 — ABBA terminates in an expected CONSTANT number of
// rounds, independent of n (paper §2/§3: "Byzantine agreement can be
// solved by randomization in an expected constant number of rounds").
//
// Sweep n (with t = floor((n-1)/3)), run many independent agreement
// instances with adversarially mixed inputs under random and hostile
// schedulers, and report the distribution of decision rounds.  The paper's
// claim holds if mean/max rounds stay flat as n grows.
//
// A second table prices the validated agreement (VBA) that atomic
// broadcast runs every round: its first candidate is fixed, so an
// adversary who silences that party forces one ABBA decision of 0 and the
// permutation coin before the next candidate.  It reports messages, ABBA
// instances and ABBA decision rounds per VBA with the first candidate
// live and silent.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>

#include "protocols/abba.hpp"
#include "protocols/harness.hpp"
#include "protocols/vba.hpp"

using namespace sintra;

namespace {

struct AbbaState {
  std::unique_ptr<protocols::Abba> abba;
  std::optional<bool> decision;
  int round = 0;
};

struct RunStats {
  double mean_rounds = 0;
  int max_rounds = 0;
  std::array<int, 6> by_round{};  ///< instances whose last decision came in round 1..5, 6+
  double mean_steps = 0;
  int failures = 0;
};

/// `crashes`: parties 0, 3, 6, ... (t of them) are silent and the rest
/// alternate inputs, which leaves a value only a fault set holds unless
/// the split survives; otherwise nobody crashes and the inputs alternate,
/// so both values have honest support and the threshold coin decides.
RunStats sweep(int n, int t, int instances, bool hostile, bool crashes) {
  RunStats stats;
  double total_rounds = 0;
  double total_steps = 0;
  for (int inst = 0; inst < instances; ++inst) {
    const std::uint64_t seed = static_cast<std::uint64_t>(inst) * 131 + 7;
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(n, t, rng);
    std::unique_ptr<net::Scheduler> sched;
    if (hostile) {
      sched = std::make_unique<net::LifoScheduler>(seed);
    } else {
      sched = std::make_unique<net::RandomScheduler>(seed);
    }
    crypto::PartySet corrupted = 0;
    for (int i = 0; crashes && i < t; ++i) corrupted |= crypto::party_bit(3 * i);
    protocols::Cluster<AbbaState> cluster(
        deployment, *sched,
        [](net::Party& party, int) {
          auto s = std::make_unique<AbbaState>();
          s->abba = std::make_unique<protocols::Abba>(party, "ba",
                                                      [p = s.get()](bool v, int r) {
                                                        p->decision = v;
                                                        p->round = r;
                                                      });
          return s;
        },
        corrupted, 0, seed);
    cluster.start();
    cluster.for_each([&](int id, AbbaState& s) { s.abba->start(id % 2 == 0); });
    if (!cluster.run_until_all([](AbbaState& s) { return s.decision.has_value(); },
                               30000000)) {
      ++stats.failures;
      continue;
    }
    int worst_round = 0;
    cluster.for_each([&](int, AbbaState& s) { worst_round = std::max(worst_round, s.round); });
    total_rounds += worst_round;
    stats.max_rounds = std::max(stats.max_rounds, worst_round);
    ++stats.by_round[static_cast<std::size_t>(std::min(worst_round, 6) - 1)];
    total_steps += static_cast<double>(cluster.simulator().now());
  }
  const int ok = instances - stats.failures;
  if (ok > 0) {
    stats.mean_rounds = total_rounds / ok;
    stats.mean_steps = total_steps / ok;
  }
  return stats;
}

struct VbaState {
  std::unique_ptr<protocols::Vba> vba;
  bool done = false;
};

struct VbaCost {
  double messages = 0;
  double abba_instances = 0;
  double abba_rounds = 0;  ///< per instance, the latest decision round at any party, summed
  int coin_tossed = 0;     ///< VBAs that went past the first candidate
  int failures = 0;
};

/// `silent_first`: the first candidate (party 0) is crashed; otherwise
/// every party is live.
VbaCost vba_cost(int n, int t, int instances, bool silent_first) {
  VbaCost cost;
  for (int inst = 0; inst < instances; ++inst) {
    const std::uint64_t seed = static_cast<std::uint64_t>(inst) * 131 + 11;
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(n, t, rng);
    net::RandomScheduler sched(seed);
    TraceLog log;
    log.set_enabled(true);
    protocols::Cluster<VbaState> cluster(
        deployment, sched,
        [](net::Party& party, int) {
          auto s = std::make_unique<VbaState>();
          s->vba = std::make_unique<protocols::Vba>(party, "vba", /*first_candidate=*/0,
                                                    [](BytesView) { return true; },
                                                    [p = s.get()](Bytes) { p->done = true; });
          return s;
        },
        silent_first ? crypto::party_bit(0) : 0, 0, seed, &log);
    cluster.start();
    cluster.for_each([](int id, VbaState& s) {
      s.vba->propose(bytes_of("proposal-" + std::to_string(id)));
    });
    if (!cluster.run_until_all([](VbaState& s) { return s.done; }, 50000000)) {
      ++cost.failures;
      continue;
    }
    int tried = 0;
    cluster.for_each([&](int, VbaState& s) { tried = std::max(tried, s.vba->candidates_tried()); });
    // "vba/ba/<i> decided <v> in round <r>": the latest round per instance.
    std::map<std::string, int> decided_round;
    for (const TraceEvent& e : log.events()) {
      const std::size_t at = e.message.find(" decided ");
      const std::size_t round_at = e.message.find(" in round ");
      if (e.component != "abba" || at == std::string::npos || round_at == std::string::npos) {
        continue;
      }
      int& latest = decided_round[e.message.substr(0, at)];
      latest = std::max(latest, std::stoi(e.message.substr(round_at + 10)));
    }
    for (const auto& [tag, round] : decided_round) cost.abba_rounds += round;
    cost.abba_instances += tried;
    if (tried > 1) ++cost.coin_tossed;
    cost.messages += static_cast<double>(cluster.simulator().total_messages());
  }
  const int ok = instances - cost.failures;
  if (ok > 0) {
    cost.messages /= ok;
    cost.abba_instances /= ok;
    cost.abba_rounds /= ok;
  }
  return cost;
}

}  // namespace

int main() {
  const int instances = 20;
  std::printf("E2: ABBA round complexity (alternating inputs, %d instances/row)\n", instances);
  std::printf("Paper claim: expected CONSTANT rounds, independent of n.\n\n");
  std::printf("| %3s | %2s | %-9s | %-9s | %11s | %10s | %-19s | %11s | %5s |\n", "n", "t",
              "crashes", "scheduler", "mean rounds", "max rounds", "rounds 1/2/3/4/5/6+",
              "mean steps", "fails");
  std::printf(
      "|-----|----|-----------|-----------|-------------|------------|---------------------|"
      "-------------|-------|\n");
  for (int n : {4, 7, 10, 13, 16, 19}) {
    const int t = (n - 1) / 3;
    for (bool crashes : {true, false}) {
      for (bool hostile : {false, true}) {
        RunStats stats = sweep(n, t, instances, hostile, crashes);
        char histogram[32];
        std::snprintf(histogram, sizeof histogram, "%d/%d/%d/%d/%d/%d", stats.by_round[0],
                      stats.by_round[1], stats.by_round[2], stats.by_round[3],
                      stats.by_round[4], stats.by_round[5]);
        std::printf("| %3d | %2d | %-9s | %-9s | %11.2f | %10d | %-19s | %11.0f | %5d |\n", n,
                    t, crashes ? "t" : "none", hostile ? "lifo-adv" : "random",
                    stats.mean_rounds, stats.max_rounds, histogram, stats.mean_steps,
                    stats.failures);
      }
    }
  }
  std::printf("\nShape check: 'mean rounds' stays flat across the whole n sweep —\n"
              "the expected-constant-round behaviour the paper claims (steps grow\n"
              "with n because each round carries O(n^2) messages, see E9).  Rounds\n"
              "3, 6, ... toss the threshold coin; rounds 1 and 2 use constants.\n");

  const int vbas = 10;
  std::printf("\nVBA cost per instance, first candidate live vs silent (crashed), "
              "random scheduler, %d instances/row\n\n", vbas);
  std::printf("| %3s | %2s | %-16s | %9s | %14s | %11s | %11s | %5s |\n", "n", "t",
              "first candidate", "messages", "ABBA instances", "ABBA rounds", "coin tossed",
              "fails");
  std::printf("|-----|----|------------------|-----------|----------------|-------------|"
              "-------------|-------|\n");
  for (int n : {4, 7, 10, 13}) {
    const int t = (n - 1) / 3;
    for (bool silent : {false, true}) {
      const VbaCost cost = vba_cost(n, t, vbas, silent);
      std::printf("| %3d | %2d | %-16s | %9.0f | %14.2f | %11.2f | %8d/%-2d | %5d |\n", n, t,
                  silent ? "silent" : "live", cost.messages, cost.abba_instances,
                  cost.abba_rounds, cost.coin_tossed, vbas, cost.failures);
    }
  }
  std::printf("\nABBA rounds sum, over the instances a VBA ran, the latest round in which\n"
              "any party decided.  A silent first candidate costs one ABBA that decides\n"
              "0 and the permutation coin; the candidates the coin orders are as\n"
              "likely to hit as before.\n");
  return 0;
}
