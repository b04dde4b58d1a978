// Turning a run's raw samples and counters into named metrics, the
// "where the time went" table and the result JSON line.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// A verified receipt: when its request started (issue time, or due time
/// in an open loop) and when the receipt arrived.
struct Sample {
  std::uint64_t start_ns = 0;
  std::uint64_t done_ns = 0;
  [[nodiscard]] double latency_ms() const { return static_cast<double>(done_ns - start_ns) / 1e6; }
};

/// One measured interval of the window, with the src-side counters read
/// at its ends.
struct Phase {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t issued = 0;     ///< requests issued in the phase
  std::uint64_t failed = 0;     ///< of those: no valid receipt
  std::uint64_t completed = 0;  ///< verified receipts arriving in the phase
  std::vector<double> lag_ms;   ///< open loop: issue time minus due time
  double cpu_start = 0;
  double cpu_end = 0;
  Cluster::NodeTotals nodes_start, nodes_end;
  sintra::net::transport::LoopbackHub::Stats hub_start, hub_end;
  std::uint64_t retransmits_start = 0, retransmits_end = 0;
  sintra::common::ExecutorPool::Stats exec_start, exec_end;

  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// End-to-end numbers over a set of time spans.
struct E2E {
  double goodput_rps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double cpu_ms_per_req = 0;
  std::size_t receipts = 0;
};

/// Receipts arriving inside `spans` ([begin, end) in ns), with `cpu_s`
/// process CPU seconds spent over the same spans.
E2E e2e_over(const std::vector<Sample>& samples,
             const std::vector<std::pair<std::uint64_t, std::uint64_t>>& spans, double cpu_s);

/// Nearest-rank percentile (0 for an empty sample).
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const char* workload = "";
  const Phase* reference = nullptr;  ///< untraced phase
  const Phase* traced = nullptr;
  E2E reference_e2e;
  E2E traced_e2e;
  std::uint64_t issued_traced = 0;  ///< requests issued in the traced phase
  std::uint64_t total_issued = 0;   ///< requests issued over the whole run
  int rounds = 0;                   ///< atomic-broadcast rounds in the traced phase
  std::vector<std::pair<std::string, double>> crypto;  ///< unit costs, us
};

/// Per-layer metrics (definitions in README.md); also prints the "where
/// the time went" table.
std::vector<Metric> layer_metrics(const LayerInputs& in, Cluster& cluster, Trace& trace);

std::string json_string(const std::string& s);
std::string json_number(double v);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
