// End-to-end trusted-service benchmark (paper §5): client request ->
// replicas -> atomic broadcast -> threshold-signed reply, verified by the
// client with ServiceClient::verify_receipt.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (n=4, t=1, CryptoConfig::curve()):
//   dir_latency     SecureDirectory, 1 client, closed loop, 1 outstanding bind
//   dir_throughput  SecureDirectory, 4 clients x 6 outstanding, 90% lookups,
//                   shared ExecutorPool + WorkPool
//   notary_open     Notary (causal mode), open loop at a fixed rate
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// the first third of the window runs untraced (end-to-end reference and
// executor counters) and the rest traced (per-layer metrics).  The last
// stdout line is the result JSON; the line before it starts with "host ".
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "app/directory.hpp"
#include "app/notary.hpp"
#include "cluster.hpp"
#include "crypto_costs.hpp"
#include "host_speed.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using sintra::Bytes;

constexpr int kKeys = 64;                     ///< directory key set
constexpr std::uint64_t kDealSeed = 1;        ///< the deployment's keys (fixed)
constexpr std::uint64_t kConfirmSeed = 7919;  ///< reserved for confirming claims
constexpr int kSetups = 5;                    ///< set-ups per run; median reported
constexpr std::uint64_t kDrainMs = 20'000;    ///< receipts must arrive by then
constexpr std::uint64_t kWarmupTimeoutMs = 30'000;
constexpr std::uint64_t kSampleEveryNs = 10'000'000;  ///< replica queue sampling

struct Workload {
  const char* name;
  bool directory;
  int clients;
  int depth;            ///< closed loop: outstanding requests per client; 0 = open loop
  double rate_rps;      ///< open loop: offered rate
  double lookup_share;  ///< directory: share of lookups (the rest are binds)
  bool pools;           ///< machine-wide ExecutorPool + WorkPool
  int warmup;           ///< warm-up requests per set-up
  double max_rps;       ///< schedule sizing bound (closed loop)
};

// dir_throughput keeps 24 requests outstanding: a round orders at most 16
// (AtomicBroadcast's batch cap), so two thirds complete in their first
// round.  With 32 (exactly two batches) p50 sat on the boundary between the
// one-round and two-round modes and jumped between them from run to run.
//
// notary_open's rate is frozen at 6 req/s.  Goodput saturates at 50-56
// req/s on a 4-CPU host by batching, but the sequential pump is fully
// busy from about 10 req/s on (a round costs ~100 ms of CPU and rounds
// then run back to back); nearer saturation, open-loop latency hinged on
// batching dynamics that host contention tipped over (p50 0.3 -> 2.5 s).
constexpr Workload kWorkloads[] = {
    {"dir_latency", true, 1, 1, 0.0, 0.0, false, 4, 200.0},
    {"dir_throughput", true, 4, 6, 0.0, 0.9, true, kKeys, 2000.0},
    {"notary_open", false, 1, 0, 6.0, 0.0, false, 4, 0.0},
};

struct Op {
  Bytes body;
  std::string key;  ///< directory
  Bytes value;      ///< directory bind
  bool lookup = false;
  std::uint64_t due_ns = 0;  ///< open loop: reference time after the window start
};

Bytes dir_body(const Op& op) {
  sintra::app::DirRequest request;
  request.op = op.lookup ? sintra::app::DirRequest::Op::kLookup : sintra::app::DirRequest::Op::kBind;
  request.key = op.key;
  request.value = op.value;
  return request.encode();
}

Op dir_op(sintra::Rng& rng, const Workload& w, std::uint64_t index) {
  Op op;
  op.lookup = static_cast<double>(rng.below(1000)) < w.lookup_share * 1000.0;
  op.key = "key-" + std::to_string(rng.below(kKeys));
  if (!op.lookup) op.value = sintra::bytes_of("v:" + op.key + ":" + std::to_string(index));
  op.body = dir_body(op);
  return op;
}

Op notary_op(sintra::Rng& rng, const std::string& prefix, std::uint64_t index) {
  Op op;
  sintra::app::NotaryRequest request;
  request.op = sintra::app::NotaryRequest::Op::kRegister;
  request.document =
      sintra::bytes_of(prefix + std::to_string(index) + "/" + std::to_string(rng.next()));
  op.body = request.encode();
  return op;
}

/// Every request of a run, generated from the seed before timing starts.
struct Schedule {
  std::vector<std::vector<Op>> warmup;  ///< per set-up
  std::vector<std::vector<Op>> closed;  ///< per client (closed loop)
  std::vector<Op> open;                 ///< client 0, with due times (open loop)
};

Schedule make_schedule(const Workload& w, std::uint64_t seed, double seconds) {
  Schedule s;
  sintra::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  for (int setup = 0; setup < kSetups; ++setup) {
    std::vector<Op> ops;
    for (int i = 0; i < w.warmup; ++i) {
      if (w.directory) {
        Op op;  // binds, so lookups in the window find values
        op.key = "key-" + std::to_string(i % kKeys);
        op.value = sintra::bytes_of("v:" + op.key + ":warm" + std::to_string(i));
        op.body = dir_body(op);
        ops.push_back(std::move(op));
      } else {
        ops.push_back(notary_op(rng, "warm/" + std::to_string(setup) + "/", i));
      }
    }
    s.warmup.push_back(std::move(ops));
  }
  if (w.depth > 0) {
    const auto per_client =
        static_cast<std::uint64_t>(std::ceil(w.max_rps * seconds / w.clients)) + 64;
    std::uint64_t index = 0;
    for (int c = 0; c < w.clients; ++c) {
      std::vector<Op> ops;
      for (std::uint64_t i = 0; i < per_client; ++i) ops.push_back(dir_op(rng, w, index++));
      s.closed.push_back(std::move(ops));
    }
  } else {
    // Twice the window: a host faster than the reference runs the
    // schedule's reference clock ahead of real time.
    const auto count = static_cast<std::uint64_t>(std::floor(2 * w.rate_rps * seconds));
    for (std::uint64_t i = 0; i < count; ++i) {
      Op op = notary_op(rng, "doc/", i);
      op.due_ns = static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / w.rate_rps);
      s.open.push_back(std::move(op));
    }
  }
  return s;
}

/// Peak resident memory of this process image.  VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across execve, so it would report the launcher.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

/// Drives requests through one cluster and checks every receipt.
class Runner {
 public:
  Runner(Cluster& cluster, const Workload& w) : cluster_(cluster), w_(w) {
    outstanding_.assign(static_cast<std::size_t>(cluster.clients()), 0);
  }

  std::vector<Phase> phases;    ///< index 0: warm-up and drain
  std::vector<Sample> samples;  ///< receipts of requests issued outside phase 0
  std::uint64_t total_issued = 0;
  std::uint64_t total_failed = 0;
  std::uint64_t content_failures = 0;
  std::uint64_t receipt_failures = 0;
  std::size_t current = 0;  ///< phase new requests and receipts are charged to

  void issue(int c, const Op& op, std::uint64_t start_ns) {
    const std::uint64_t now = now_ns();
    const std::uint64_t id = cluster_.issue(c, op.body);
    pending_[{c, id}] = Pending{&op, start_ns, current};
    ++outstanding_[static_cast<std::size_t>(c)];
    ++phases[current].issued;
    ++total_issued;
    if (w_.depth == 0) phases[current].lag_ms.push_back(static_cast<double>(now - start_ns) / 1e6);
  }

  [[nodiscard]] int outstanding(int c) const { return outstanding_[static_cast<std::size_t>(c)]; }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

  /// One pump iteration; idles at most `idle_cap_ns` when nothing moved.
  void step(std::uint64_t idle_cap_ns) {
    const bool progressed = cluster_.pump_once();
    collect();
    if (!progressed) cluster_.idle(idle_cap_ns);
  }

  /// Requests still pending count as failed (no receipt by the deadline).
  void fail_pending() {
    for (const auto& [key, p] : pending_) {
      ++phases[p.phase].failed;
      ++total_failed;
    }
    pending_.clear();
  }

 private:
  struct Pending {
    const Op* op = nullptr;
    std::uint64_t start_ns = 0;
    std::size_t phase = 0;
  };

  bool check_content(const Op& op, const Bytes& reply) {
    try {
      if (w_.directory) {
        const auto response = sintra::app::DirResponse::decode(reply);
        if (response.key != op.key) return false;
        if (!op.lookup) {
          return response.status == sintra::app::DirResponse::Status::kOk &&
                 response.value == op.value && response.version >= 1;
        }
        if (response.status == sintra::app::DirResponse::Status::kNotFound) {
          return response.value.empty();
        }
        // A lookup returns some value bound to this key.
        const std::string prefix = "v:" + op.key + ":";
        return response.value.size() > prefix.size() &&
               std::equal(prefix.begin(), prefix.end(), response.value.begin());
      }
      const auto response = sintra::app::NotaryResponse::decode(reply);
      return response.status == sintra::app::NotaryResponse::Status::kRegistered &&
             response.sequence >= 1 && sequences_.insert(response.sequence).second;
    } catch (const std::exception&) {
      return false;
    }
  }

  void collect() {
    for (ReplyEvent& event : cluster_.take_replies()) {
      auto it = pending_.find({event.client, event.request_id});
      if (it == pending_.end()) continue;  // a receipt is delivered once per request
      const Pending p = it->second;
      pending_.erase(it);
      --outstanding_[static_cast<std::size_t>(event.client)];
      const bool receipt_ok = cluster_.client(event.client)
                                  .verify_receipt(event.request_id, p.op->body, event.receipt);
      const bool content_ok = receipt_ok && check_content(*p.op, event.receipt.reply);
      const std::uint64_t done = now_ns();
      if (!receipt_ok) ++receipt_failures;
      if (receipt_ok && !content_ok) ++content_failures;
      if (!content_ok) {
        ++phases[p.phase].failed;
        ++total_failed;
        continue;
      }
      ++phases[current].completed;
      if (p.phase != 0) {
        samples.push_back(Sample{p.start_ns, done});
      }
    }
  }

  Cluster& cluster_;
  const Workload& w_;
  std::map<std::pair<int, std::uint64_t>, Pending> pending_;
  std::vector<int> outstanding_;
  std::set<std::uint64_t> sequences_;  ///< notary sequence numbers seen (must be unique)
};

/// Warm-up: every warm-up request, `concurrency` per client at a time,
/// all receipts verified.  Fills the lazy group tables and the
/// directory's key set.  Probes the host speed meanwhile.
bool warm_up(Runner& runner, const std::vector<Op>& ops, int clients, int concurrency,
             ProbeSampler& probes) {
  std::size_t next = 0;
  const std::uint64_t deadline = now_ns() + kWarmupTimeoutMs * 1'000'000;
  while (now_ns() < deadline) {
    probes.tick(now_ns());
    for (int c = 0; c < clients; ++c) {
      while (runner.outstanding(c) < concurrency && next < ops.size()) {
        runner.issue(c, ops[next++], now_ns());
      }
    }
    if (next == ops.size() && runner.pending() == 0) return runner.total_failed == 0;
    runner.step(kSampleEveryNs);
  }
  runner.fail_pending();
  return false;
}

void snapshot(Cluster& cluster, Phase& phase, bool start) {
  const std::uint64_t now = now_ns();
  const double cpu = cpu_seconds();
  (start ? phase.start_ns : phase.end_ns) = now;
  (start ? phase.cpu_start : phase.cpu_end) = cpu;
  (start ? phase.nodes_start : phase.nodes_end) = cluster.node_totals();
  (start ? phase.hub_start : phase.hub_end) = cluster.hub_stats();
  (start ? phase.retransmits_start : phase.retransmits_end) = cluster.retransmits();
  (start ? phase.exec_start : phase.exec_end) = cluster.executor_stats();
}

E2E e2e_of(const Runner& runner, const Phase& phase) {
  return e2e_over(runner.samples, {{phase.start_ns, phase.end_ns}},
                  phase.cpu_end - phase.cpu_start);
}

void print_e2e(const char* label, const E2E& e) {
  std::printf("  %-22s goodput %8.2f req/s  p50 %8.2f ms  p90 %8.2f ms  cpu %7.3f ms/req  "
              "(%zu receipts)\n",
              label, e.goodput_rps, e.p50_ms, e.p90_ms, e.cpu_ms_per_req, e.receipts);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) return std::nullopt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0) || args.seconds > 60) return std::nullopt;
  return args;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const Schedule schedule = make_schedule(w, args.seed, args.seconds);

  ClusterConfig config;
  config.directory = w.directory;
  config.clients = w.clients;
  config.seed = args.seed;
  const int cpus = nproc();
  if (w.pools) {
    // Pump thread + executors + workers <= nproc.
    config.executors = static_cast<std::size_t>(std::max(1, std::min(cpus, 4) - 2));
    config.workers = cpus >= 4 ? 1 : 0;
  }

  // Set-up (dealing, cluster build, warm-up) runs kSetups times; the last
  // cluster is measured.
  Trace trace(kService);
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Runner> runner;
  std::optional<sintra::adversary::Deployment> deployment;
  std::vector<double> setup_s;
  std::vector<double> setup_corrected_s;
  bool correct = true;
  for (int setup = 0; setup < kSetups; ++setup) {
    runner.reset();
    cluster.reset();
    const std::uint64_t start = now_ns();
    sintra::Rng rng(kDealSeed);
    deployment = sintra::adversary::Deployment::threshold(
        kReplicas, 1, rng, sintra::adversary::CryptoConfig::curve());
    cluster = std::make_unique<Cluster>(*deployment, config, trace);
    runner = std::make_unique<Runner>(*cluster, w);
    runner->phases.resize(1);
    ProbeSampler probes;
    const bool ok = warm_up(*runner, schedule.warmup[static_cast<std::size_t>(setup)],
                            w.clients, std::max(w.depth, 4), probes);
    const double seconds = static_cast<double>(now_ns() - start) / 1e9;
    setup_s.push_back(seconds);
    setup_corrected_s.push_back(seconds * probes.factor());
    if (!ok) {
      std::fprintf(stderr, "warm-up failed (set-up %d)\n", setup);
      correct = false;
    }
  }

  // Measured window.  Phase 1 is untraced; with --trace 1 it covers the
  // first third and phase 2 (traced) the rest.
  Runner& r = *runner;
  const std::uint64_t window_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  const std::uint64_t split_ns = args.trace ? window_ns / 3 : window_ns;
  r.phases.resize(args.trace ? 3 : 2);
  r.current = 1;
  snapshot(*cluster, r.phases[1], /*start=*/true);
  const std::uint64_t t0 = r.phases[1].start_ns;
  HostSpeed host(t0, window_ns);
  std::uint64_t issued_before_traced = 0;
  std::vector<std::size_t> next(static_cast<std::size_t>(w.clients), 0);
  std::size_t next_open = 0;
  std::uint64_t next_sample = 0;
  bool exhausted = false;
  while (true) {
    const std::uint64_t now = now_ns();
    if (now - t0 >= window_ns) break;
    host.tick(now);
    if (args.trace && r.current == 1 && now - t0 >= split_ns) {
      snapshot(*cluster, r.phases[1], /*start=*/false);
      issued_before_traced = r.total_issued;
      trace.reset();
      cluster->pump = PumpCounters{};
      trace.set_enabled(true);
      r.current = 2;
      snapshot(*cluster, r.phases[2], /*start=*/true);
    }
    std::uint64_t idle_cap = kSampleEveryNs;
    if (w.depth > 0) {
      for (int c = 0; c < w.clients; ++c) {
        const auto& ops = schedule.closed[static_cast<std::size_t>(c)];
        auto& i = next[static_cast<std::size_t>(c)];
        while (r.outstanding(c) < w.depth) {
          if (i == ops.size()) {
            exhausted = true;
            break;
          }
          r.issue(c, ops[i++], now_ns());
        }
      }
    } else {
      // Due times are on the reference clock; a request's latency counts
      // from the real moment that clock passed its due time.
      const std::uint64_t ref = host.reference_ns();
      const double factor = host.live_factor();
      while (next_open < schedule.open.size() && schedule.open[next_open].due_ns <= ref) {
        const auto late = static_cast<std::uint64_t>(
            static_cast<double>(ref - schedule.open[next_open].due_ns) / factor);
        r.issue(0, schedule.open[next_open], now - std::min(late, now - t0));
        ++next_open;
      }
      if (next_open < schedule.open.size()) {
        idle_cap = std::min(idle_cap, static_cast<std::uint64_t>(
                                          static_cast<double>(schedule.open[next_open].due_ns - ref) /
                                          factor));
      }
    }
    if (trace.enabled() && now >= next_sample) {
      cluster->sample_queues();
      next_sample = now + kSampleEveryNs;
    }
    r.step(idle_cap);
  }
  snapshot(*cluster, r.phases[r.current], /*start=*/false);
  host.finish();
  const std::uint64_t issued_traced = r.total_issued - issued_before_traced;
  trace.set_enabled(false);

  // Drain: no new requests; every issued one needs its receipt in time.
  const std::uint64_t drain_deadline = now_ns() + kDrainMs * 1'000'000;
  r.current = 0;
  while (r.pending() > 0 && now_ns() < drain_deadline) r.step(kSampleEveryNs);
  r.fail_pending();

  // All replicas must agree on what they executed and in which order.
  bool agree = cluster->quiesce(/*quiet_ms=*/100, /*timeout_ms=*/10'000);
  const std::uint64_t executed0 = cluster->replica(0).executed_count();
  for (int id = 1; id < kReplicas; ++id) {
    auto& replica = cluster->replica(id);
    agree = agree && replica.executed_count() == executed0;
    if (replica.atomic() != nullptr) {
      agree = agree &&
              replica.atomic()->chain_digest() == cluster->replica(0).atomic()->chain_digest();
    }
  }
  agree = agree && executed0 >= r.total_issued - r.total_failed;

  std::vector<std::pair<std::string, double>> crypto;
  if (args.trace) {
    crypto = measure_crypto_costs(*deployment, args.seed);
    if (crypto.empty()) {
      std::fprintf(stderr, "a crypto primitive failed its own verification\n");
      correct = false;
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 1; i < r.phases.size(); ++i) {
    attempted += r.phases[i].issued;
    failed += r.phases[i].failed;
  }
  correct = correct && agree && !exhausted && r.total_failed == 0 && attempted > 0;
  if (!agree) std::fprintf(stderr, "replicas disagree on executed state (or did not settle)\n");
  if (exhausted) std::fprintf(stderr, "request schedule exhausted; raise max_rps\n");
  if (r.total_failed > 0) {
    std::fprintf(stderr, "%llu requests failed (%llu bad receipts, %llu bad contents)\n",
                 static_cast<unsigned long long>(r.total_failed),
                 static_cast<unsigned long long>(r.receipt_failures),
                 static_cast<unsigned long long>(r.content_failures));
  }

  std::printf("workload %s: seed %llu, %.1f s window, %d clients, %zu pump and pool threads, "
              "%llu requests executed per replica\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds, w.clients,
              cluster->pump_threads(), static_cast<unsigned long long>(executed0));
  const E2E reference = e2e_of(r, r.phases[1]);
  std::vector<Metric> metrics;
  if (!args.trace) {
    const E2E corrected = host.corrected(r.samples);
    print_e2e("as measured", reference);
    print_e2e("host-speed corrected", corrected);
    std::printf("  host probe %.1f us median (reference %.1f us); set-up %.3f s as measured\n",
                host.median_probe_us(), kReferenceProbeUs, median(setup_s));
    metrics = {
        {"goodput_rps", corrected.goodput_rps, "1/s"},
        {"p50_ms", corrected.p50_ms, "ms"},
        {"p90_ms", corrected.p90_ms, "ms"},
        {"cpu_ms_per_req", corrected.cpu_ms_per_req, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(setup_corrected_s), "s"},
    };
  } else {
    LayerInputs in;
    in.workload = w.name;
    in.reference = &r.phases[1];
    in.traced = &r.phases[2];
    in.reference_e2e = reference;
    in.traced_e2e = e2e_of(r, r.phases[2]);
    in.issued_traced = issued_traced;
    in.total_issued = r.total_issued;
    in.rounds = std::max(0, trace.max_round.load() - trace.first_round.load());
    in.crypto = std::move(crypto);
    print_e2e("untraced", in.reference_e2e);
    print_e2e("traced", in.traced_e2e);
    metrics = layer_metrics(in, *cluster, trace);
  }
  std::printf("  error_rate %.6f (%llu of %llu), setup %.3f s corrected (median of %d), "
              "peak rss %.1f MB\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted),
              median(setup_corrected_s), kSetups, peak_rss_mb());

  std::printf("host {\"build_type\": %s, \"compiler\": %s, \"nproc\": %d, "
              "\"crypto\": \"curve: secp256k1 groups, 512-bit threshold RSA\", "
              "\"n\": %d, \"t\": 1, \"workload\": %s, \"seed\": %llu, \"confirm_seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"threads\": %zu}\n",
              json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(PERFBENCH_COMPILER).c_str(),
              cpus, kReplicas, json_string(w.name).c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kConfirmSeed), json_number(args.seconds).c_str(),
              args.trace ? 1 : 0, cluster->pump_threads());
  print_result(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <dir_latency|dir_throughput|notary_open> "
                 "--seed <n> --seconds <1-60> --trace <0|1>\n");
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
