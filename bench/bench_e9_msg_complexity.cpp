// Experiment E9 — message and communication complexity of the protocol
// stack vs n.
//
// Paper claims (§3): reliable broadcast costs O(n^2) messages; atomic
// broadcast adds the (constant expected number of) VBA/ABBA stages on
// top, which is why it is "considerably more expensive than reliable
// broadcast"; threshold signatures keep messages constant-size, so bytes
// scale like messages, not like n * messages.
//
// For each protocol and each n we run one complete instance and report
// total messages, total bytes, and both normalized by n^2.
#include <cstdio>

#include "protocols/atomic.hpp"
#include "protocols/broadcast.hpp"
#include "protocols/consistent.hpp"
#include "protocols/harness.hpp"
#include "protocols/vba.hpp"

using namespace sintra;

namespace {

struct Totals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  bool completed = false;
};

Totals totals_of(net::Simulator& sim, bool completed) {
  Totals t;
  t.completed = completed;
  for (const auto& [prefix, stats] : sim.traffic()) {
    t.messages += stats.messages;
    t.bytes += stats.bytes;
  }
  return t;
}

struct RbcState {
  std::unique_ptr<protocols::ReliableBroadcast> rbc;
  bool done = false;
};

Totals run_rbc(int n, int t, std::uint64_t seed) {
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(n, t, rng);
  net::RandomScheduler sched(seed);
  protocols::Cluster<RbcState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<RbcState>();
        s->rbc = std::make_unique<protocols::ReliableBroadcast>(
            party, "rbc", 0, [p = s.get()](Bytes) { p->done = true; });
        return s;
      });
  cluster.start();
  cluster.protocol(0)->rbc->start(bytes_of("payload-payload-payload-payload"));
  bool ok = cluster.run_until_all([](RbcState& s) { return s.done; }, 10000000);
  return totals_of(cluster.simulator(), ok);
}

struct CbcState {
  std::unique_ptr<protocols::ConsistentBroadcast> cbc;
  bool done = false;
};

Totals run_cbc(int n, int t, std::uint64_t seed) {
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(n, t, rng);
  net::RandomScheduler sched(seed);
  protocols::Cluster<CbcState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<CbcState>();
        s->cbc = std::make_unique<protocols::ConsistentBroadcast>(
            party, "cbc", 0, [p = s.get()](protocols::CertifiedMessage) { p->done = true; });
        return s;
      });
  cluster.start();
  cluster.protocol(0)->cbc->start(bytes_of("payload-payload-payload-payload"));
  bool ok = cluster.run_until_all([](CbcState& s) { return s.done; }, 10000000);
  return totals_of(cluster.simulator(), ok);
}

struct AbbaState {
  std::unique_ptr<protocols::Abba> abba;
  bool done = false;
};

Totals run_abba(int n, int t, std::uint64_t seed) {
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(n, t, rng);
  net::RandomScheduler sched(seed);
  protocols::Cluster<AbbaState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<AbbaState>();
        s->abba = std::make_unique<protocols::Abba>(
            party, "ba", [p = s.get()](bool, int) { p->done = true; });
        return s;
      });
  cluster.start();
  cluster.for_each([](int id, AbbaState& s) { s.abba->start(id % 2 == 0); });
  bool ok = cluster.run_until_all([](AbbaState& s) { return s.done; }, 30000000);
  return totals_of(cluster.simulator(), ok);
}

struct VbaState {
  std::unique_ptr<protocols::Vba> vba;
  bool done = false;
};

Totals run_vba(int n, int t, std::uint64_t seed) {
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(n, t, rng);
  net::RandomScheduler sched(seed);
  protocols::Cluster<VbaState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<VbaState>();
        s->vba = std::make_unique<protocols::Vba>(
            party, "vba", /*first_candidate=*/0, [](BytesView) { return true; },
            [p = s.get()](Bytes) { p->done = true; });
        return s;
      });
  cluster.start();
  cluster.for_each([](int id, VbaState& s) {
    s.vba->propose(bytes_of("proposal-" + std::to_string(id)));
  });
  bool ok = cluster.run_until_all([](VbaState& s) { return s.done; }, 50000000);
  return totals_of(cluster.simulator(), ok);
}

struct AbcState {
  std::unique_ptr<protocols::AtomicBroadcast> abc;
  std::size_t delivered = 0;
};

Totals run_abc(int n, int t, std::uint64_t seed) {
  Rng rng(seed);
  auto deployment = adversary::Deployment::threshold(n, t, rng);
  net::RandomScheduler sched(seed);
  protocols::Cluster<AbcState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<AbcState>();
        s->abc = std::make_unique<protocols::AtomicBroadcast>(
            party, "abc", [p = s.get()](int, Bytes) { ++p->delivered; });
        return s;
      });
  cluster.start();
  cluster.protocol(0)->abc->submit(bytes_of("payload-payload-payload-payload"));
  bool ok = cluster.run_until_all([](AbcState& s) { return s.delivered >= 1; }, 50000000);
  return totals_of(cluster.simulator(), ok);
}

void print_rows(const char* name, Totals (*run)(int, int, std::uint64_t)) {
  for (int n : {4, 7, 10, 13}) {
    const int t = (n - 1) / 3;
    Totals totals = run(n, t, static_cast<std::uint64_t>(n) * 7 + 1);
    std::printf("| %-9s | %3d | %8llu | %10llu | %8.2f | %10.1f | %-4s |\n", name, n,
                static_cast<unsigned long long>(totals.messages),
                static_cast<unsigned long long>(totals.bytes),
                static_cast<double>(totals.messages) / (n * n),
                static_cast<double>(totals.bytes) / (n * n),
                totals.completed ? "ok" : "FAIL");
  }
}

}  // namespace

int main() {
  std::printf("E9: message/communication complexity per completed instance\n");
  std::printf("Paper claims: RBC is O(n^2) messages; atomic broadcast = RBC + VBA/ABBA\n"
              "overhead (constant expected stages); threshold signatures keep message\n"
              "size constant so bytes/n^2 stays flat.\n\n");
  std::printf("| %-9s | %3s | %8s | %10s | %8s | %10s | %-4s |\n", "protocol", "n", "msgs",
              "bytes", "msgs/n^2", "bytes/n^2", "done");
  std::printf("|-----------|-----|----------|------------|----------|------------|------|\n");
  print_rows("rbc", run_rbc);
  print_rows("cbc", run_cbc);
  print_rows("abba", run_abba);
  print_rows("vba", run_vba);
  print_rows("abc", run_abc);
  std::printf("\nShape check: msgs/n^2 roughly flat per protocol (quadratic scaling);\n"
              "cbc << rbc in messages (O(n) echo pattern); abc is the most expensive,\n"
              "matching the paper's 'considerably more expensive than reliable\n"
              "broadcast'.\n");
  return 0;
}
