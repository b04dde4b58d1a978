// Atomic broadcast over real TCP, surviving a SIGKILL.
//
// One binary, five processes.  The parent forks four party processes;
// each runs the unchanged protocol stack (Party + AtomicBroadcast) on a
// NetworkedNode over the authenticated TCP transport, with the Party
// write-ahead log persisted to disk after every pump iteration.  The run:
//
//   1. every party submits one operation ("alpha i"); all four order them
//   2. the parent SIGKILLs party 2 — no shutdown, volatile state gone
//   3. the three survivors order three more operations ("beta i") while
//      party 2 is dead: n = 4, t = 1, the quorum does not need it
//   4. the parent re-forks party 2, which replays its WAL to the
//      pre-crash state, redials, and catches up on everything it missed
//      through the transport's ack-based retransmission
//   5. the parent checks all four parties delivered the identical
//      totally-ordered sequence of 7 operations
//
// Acks are configured timer-only (ack_flush_ms) and slower than the WAL
// persist cadence, so a frame is on disk before its ack reaches the
// sender — SIGKILL cannot lose acknowledged traffic.
//
//   build/examples/tcp_atomic_demo
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/dealer.hpp"
#include "net/transport/networked_node.hpp"
#include "net/transport/tcp_transport.hpp"
#include "protocols/atomic.hpp"
#include "protocols/harness.hpp"

using namespace sintra;
namespace fs = std::filesystem;

namespace {

constexpr int kN = 4;
constexpr int kVictim = 2;
constexpr std::uint64_t kSeed = 4242;
constexpr int kWave1 = kN;           // one "alpha" op per party
constexpr int kTotal = kWave1 + 3;   // plus one "beta" op per survivor

std::uint16_t pick_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return 0;
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

void write_file_atomic(const std::string& path, const void* data, std::size_t size) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  }
  fs::rename(tmp, path);
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

struct DemoState {
  std::unique_ptr<protocols::AtomicBroadcast> abc;
  std::vector<std::string> log;
};

int run_party(int id, const std::string& dir, const std::vector<std::uint16_t>& ports) {
  // Every process re-runs the trusted dealer from the shared seed — the
  // deterministic stand-in for distributing the dealt keys out of band.
  Rng rng(kSeed);
  auto deployment = adversary::Deployment::threshold(kN, 1, rng);

  net::transport::NetworkedNode::Config nconfig;
  nconfig.node_id = id;
  nconfig.n = kN;
  net::transport::NetworkedNode node(nconfig);

  protocols::HostedParty<DemoState> host(
      node, id, deployment, kSeed * 7919 + static_cast<std::uint64_t>(id),
      [](net::Party& party) {
        party.enable_wal();
        auto state = std::make_unique<DemoState>();
        state->abc = std::make_unique<protocols::AtomicBroadcast>(
            party, "abc", [s = state.get()](int origin, Bytes payload) {
              s->log.push_back("(" + std::to_string(origin) + ") " + printable(payload));
            });
        return state;
      });
  node.attach(host);

  net::transport::TcpTransport::Config tconfig;
  tconfig.node_id = id;
  tconfig.endpoints.resize(kN);
  tconfig.link_keys.resize(kN);
  for (int peer = 0; peer < kN; ++peer) {
    tconfig.endpoints[static_cast<std::size_t>(peer)].port =
        ports[static_cast<std::size_t>(peer)];
    if (peer != id) {
      tconfig.link_keys[static_cast<std::size_t>(peer)] = crypto::derive_link_key(
          deployment.keys->share(id).channel_keys[static_cast<std::size_t>(peer)]);
    }
  }
  tconfig.seed = kSeed + static_cast<std::uint64_t>(id);
  tconfig.heartbeat_interval_ms = 50;
  tconfig.heartbeat_timeout_ms = 1000;
  tconfig.reconnect_min_ms = 25;
  tconfig.reconnect_max_ms = 200;
  // Timer-only acks, slower than the 1 ms WAL persist cadence below: by
  // the time a frame's ack lets the sender prune it, it is on disk here.
  tconfig.link.ack_every = 1u << 20;
  tconfig.ack_flush_ms = 50;
  net::transport::TcpTransport transport(
      tconfig, [&node](int from, std::uint32_t group, BytesView payload) {
        node.on_transport_receive(from, group, payload);
      });
  node.bind_transport_batched([&transport](int peer, std::vector<net::transport::GroupPayload> payloads) {
    transport.send_many(peer, std::move(payloads));
  });
  transport.start();

  const std::string wal_path = dir + "/wal." + std::to_string(id);
  if (fs::exists(wal_path)) {
    const Bytes persisted = read_file(wal_path);
    host.restore(persisted);
    std::printf("[party %d] restarted: replayed %zu-byte WAL, %zu ops recovered\n", id,
                persisted.size(), host.protocol().log.size());
    std::fflush(stdout);
  } else {
    host.protocol().abc->submit(bytes_of("alpha " + std::to_string(id)));
  }

  std::size_t persisted_msgs = host.party().wal().size();
  bool wave2_submitted = false;
  bool wrote_w1 = false;
  bool wrote_w2 = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    node.poll();
    if (host.party().wal().size() != persisted_msgs) {
      const Bytes snapshot = host.snapshot();
      write_file_atomic(wal_path, snapshot.data(), snapshot.size());
      persisted_msgs = host.party().wal().size();
    }
    DemoState& state = host.protocol();
    if (!wrote_w1 && state.log.size() >= kWave1) {
      const std::string text = joined(state.log);
      write_file_atomic(dir + "/w1." + std::to_string(id), text.data(), text.size());
      wrote_w1 = true;
    }
    // Survivors submit the second wave once the parent confirms the
    // victim is dead — these ops are ordered without it.
    if (!wave2_submitted && id != kVictim && wrote_w1 && fs::exists(dir + "/go2")) {
      state.abc->submit(bytes_of("beta " + std::to_string(id)));
      wave2_submitted = true;
    }
    if (!wrote_w2 && state.log.size() >= kTotal) {
      const std::string text = joined(state.log);
      write_file_atomic(dir + "/w2." + std::to_string(id), text.data(), text.size());
      wrote_w2 = true;
    }
    if (fs::exists(dir + "/halt")) break;
    if (const char* dbg = std::getenv("SINTRA_DEMO_DEBUG"); dbg != nullptr) {
      static auto last = std::chrono::steady_clock::now();
      if (std::chrono::steady_clock::now() - last > std::chrono::seconds(1)) {
        last = std::chrono::steady_clock::now();
        const auto st = transport.stats();
        const std::string text =
            "log=" + std::to_string(state.log.size()) + " connects=" + std::to_string(st.connects) +
            " disconnects=" + std::to_string(st.disconnects) +
            " frames_rx=" + std::to_string(st.frames_received) +
            " delivered=" + std::to_string(st.payloads_delivered) +
            " retx=" + std::to_string(st.retransmitted) +
            " dispatched=" + std::to_string(node.stats().dispatched) + "\n";
        write_file_atomic(dir + "/status." + std::to_string(id), text.data(), text.size());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  transport.stop();
  return fs::exists(dir + "/halt") ? 0 : 1;
}

pid_t spawn_party(int id, const std::string& dir, const std::vector<std::uint16_t>& ports) {
  std::fflush(stdout);  // children would otherwise re-flush inherited output
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(run_party(id, dir, ports));
  return pid;
}

bool wait_for_files(const std::string& dir, const std::string& prefix,
                    const std::vector<int>& ids, int timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    bool all = true;
    for (int id : ids) all = all && fs::exists(dir + "/" + prefix + "." + std::to_string(id));
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // Child mode: tcp_atomic_demo --party <id> <dir> <p0> <p1> <p2> <p3>
  // (used only for debugging by hand; the normal path forks).
  if (argc == 8 && std::string(argv[1]) == "--party") {
    std::vector<std::uint16_t> ports;
    for (int i = 4; i < 8; ++i) ports.push_back(static_cast<std::uint16_t>(std::atoi(argv[i])));
    return run_party(std::atoi(argv[2]), argv[3], ports);
  }

  char dir_template[] = "/tmp/sintra-tcp-demo-XXXXXX";
  const char* dir_c = ::mkdtemp(dir_template);
  if (dir_c == nullptr) {
    std::printf("FAILED: mkdtemp\n");
    return 1;
  }
  const std::string dir(dir_c);
  std::vector<std::uint16_t> ports(kN);
  for (auto& port : ports) {
    port = pick_port();
    if (port == 0) {
      std::printf("FAILED: no free port\n");
      return 1;
    }
  }
  std::printf("scratch dir %s, ports %u %u %u %u\n", dir.c_str(), ports[0], ports[1], ports[2],
              ports[3]);

  auto fail = [&](const char* what, std::vector<pid_t>& pids) {
    std::printf("FAILED: %s\n", what);
    for (pid_t pid : pids) {
      if (pid > 0) ::kill(pid, SIGKILL);
    }
    for (pid_t pid : pids) {
      if (pid > 0) ::waitpid(pid, nullptr, 0);
    }
    return 1;
  };

  std::vector<pid_t> pids(kN);
  for (int id = 0; id < kN; ++id) pids[static_cast<std::size_t>(id)] = spawn_party(id, dir, ports);
  std::printf("4 parties up over TCP; each submitted one operation\n");

  if (!wait_for_files(dir, "w1", {0, 1, 2, 3}, 60)) return fail("wave 1 never ordered", pids);
  std::printf("wave 1 ordered at all 4 parties\n");

  ::kill(pids[kVictim], SIGKILL);
  ::waitpid(pids[kVictim], nullptr, 0);
  pids[kVictim] = -1;
  std::printf("party %d SIGKILLed\n", kVictim);

  // Survivors order three more operations while the victim is dead.
  write_file_atomic(dir + "/go2", "", 0);
  if (!wait_for_files(dir, "w2", {0, 1, 3}, 60)) return fail("survivors stalled", pids);
  std::printf("wave 2 ordered by the 3 survivors (t = 1 tolerated)\n");

  pids[kVictim] = spawn_party(kVictim, dir, ports);
  if (!wait_for_files(dir, "w2", {kVictim}, 60)) return fail("victim never caught up", pids);
  std::printf("party %d restarted from its WAL and caught up\n", kVictim);

  write_file_atomic(dir + "/halt", "", 0);
  bool children_ok = true;
  for (pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    children_ok = children_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  const Bytes reference = read_file(dir + "/w2.0");
  bool identical = !reference.empty();
  for (int id = 1; id < kN; ++id) {
    identical = identical && read_file(dir + "/w2." + std::to_string(id)) == reference;
  }
  std::printf("delivered sequence (%d ops):\n%s", kTotal,
              std::string(reference.begin(), reference.end()).c_str());
  std::printf("total order identical at all 4 parties after SIGKILL + recovery: %s\n",
              identical && children_ok ? "YES" : "NO");
  fs::remove_all(dir);
  return identical && children_ok ? 0 : 1;
}
