// Transport soak: a seeded randomized sweep hammering the loopback
// transport with the chaos fault profile (drops, duplicates, replays,
// disconnect/reconnect cycles) and asserting the one property the whole
// stack rests on — every payload stream reaches the protocol layer
// exactly once, in order, with no loss and no duplicates.  Seed count is
// SINTRA_SOAK_SEEDS (default 20; the chaos CI job raises it).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "net/transport/loopback.hpp"

namespace sintra::net::transport {
namespace {

int soak_seeds() {
  if (const char* env = std::getenv("SINTRA_SOAK_SEEDS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return 20;
}

Bytes tagged(int from, int to, int i) {
  return bytes_of(std::to_string(from) + ">" + std::to_string(to) + "#" + std::to_string(i));
}

// One chaos round: every ordered pair sends `count` payloads, interleaved
// with hub steps so faults hit mid-stream, then the network is driven to
// quiescence (healing any pair whose disconnect budget ran out before its
// auto-reconnect fired).
void run_round(std::uint64_t seed, int n, int count) {
  // max_outbound stays far above the in-flight volume: the soak asserts
  // *no loss*, so the drop-oldest quota must never engage (bounded-queue
  // degradation has its own test in link_test.cpp).
  LoopbackHub hub(n, seed, LoopbackHub::FaultProfile::chaos(),
                  LinkConfig{.max_outbound = 4096, .reorder_window = 512, .ack_every = 16});

  std::map<std::pair<int, int>, std::vector<Bytes>> received;
  for (int node = 0; node < n; ++node) {
    hub.set_receiver(node, [&received, node](int from, std::uint32_t, BytesView payload) {
      received[{from, node}].emplace_back(payload.begin(), payload.end());
    });
  }

  Rng traffic_rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  for (int i = 0; i < count; ++i) {
    for (int from = 0; from < n; ++from) {
      for (int to = 0; to < n; ++to) {
        if (from != to) hub.send(from, to, tagged(from, to, i));
      }
    }
    // Interleave delivery so faults land mid-stream, not only at the end.
    const std::uint64_t burst = traffic_rng.below(2 * static_cast<std::uint64_t>(n * n));
    for (std::uint64_t s = 0; s < burst; ++s) hub.step();
  }

  constexpr std::size_t kStepCap = 2'000'000;
  std::size_t steps = hub.run_until_quiescent(kStepCap);
  // The chaos profile's disconnect budget can exhaust with a pair still
  // down and no auto-reconnect pending; heal explicitly and drain again —
  // that is the operator-restores-the-cable case, not a transport bug.
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (!hub.pair_connected(a, b)) hub.connect(a, b);
    }
  }
  steps += hub.run_until_quiescent(kStepCap);
  ASSERT_LT(steps, kStepCap) << "seed " << seed << ": transport failed to quiesce";

  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      if (from == to) continue;
      const auto& got = received[{from, to}];
      ASSERT_EQ(got.size(), static_cast<std::size_t>(count))
          << "seed " << seed << " pair " << from << "->" << to
          << ": lost or duplicated payloads";
      for (int i = 0; i < count; ++i) {
        ASSERT_EQ(got[static_cast<std::size_t>(i)], tagged(from, to, i))
            << "seed " << seed << " pair " << from << "->" << to << " index " << i
            << ": order violated";
      }
      EXPECT_EQ(hub.link(to, from).stats().skipped_inbound, 0u)
          << "quota engaged; the soak volume must stay below max_outbound";

      // Exact retransmit accounting (issue 7 satellite): every frame put
      // on a wire is either a first transmission or a resend — the two
      // per-frame counters must partition `sent` exactly, and with the
      // quota never engaging, every enqueued payload got exactly one
      // first transmission.  These are equalities, not bounds: any
      // over- or under-count in take_sendable's bookkeeping fails here.
      const ReliableLink::Stats& out = hub.link(from, to).stats();
      ASSERT_EQ(out.dropped_outbound, 0u)
          << "seed " << seed << " pair " << from << "->" << to;
      ASSERT_EQ(out.sent, out.first_transmissions + out.retransmitted)
          << "seed " << seed << " pair " << from << "->" << to
          << ": sent must partition into first sends + resends";
      ASSERT_EQ(out.first_transmissions, out.enqueued)
          << "seed " << seed << " pair " << from << "->" << to
          << ": exactly one first transmission per enqueued payload";
      ASSERT_EQ(out.retransmitted, out.sent - out.enqueued)
          << "seed " << seed << " pair " << from << "->" << to;
    }
  }

  const LoopbackHub::Stats stats = hub.stats();
  // The profile is actually doing something: a run where no fault ever
  // fired would vacuously pass.
  EXPECT_GT(stats.dropped_frames + stats.duplicated_frames + stats.replayed_frames +
                stats.disconnects,
            0u)
      << "seed " << seed << ": no faults injected — profile misconfigured?";
}

TEST(TransportSoakTest, ChaosSweepExactlyOnceInOrder) {
  const int seeds = soak_seeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_round(static_cast<std::uint64_t>(seed), /*n=*/4, /*count=*/40);
  }
}

TEST(TransportSoakTest, HeavierStreamsSmallerNetwork) {
  const int seeds = std::max(1, soak_seeds() / 4);
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_round(static_cast<std::uint64_t>(seed) * 104729, /*n=*/2, /*count=*/400);
  }
}

}  // namespace
}  // namespace sintra::net::transport
