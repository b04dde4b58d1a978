// Host-speed correction for the end-to-end metrics.
//
// On a shared host, neighbours' load slows every CPU-bound number alike:
// we measured stretches of minutes at 1.5-1.8x on a 4-CPU VM, enough to
// spread a closed loop's latency by about 35% from run to run.  A fixed
// CPU probe, timed every few milliseconds next to the program, reads that
// slowdown; a request's latency divided by the probe time of its moment
// stayed within about 4% while the probe itself moved 1.8x.
//
// So the window is cut into bins of about 250 ms, each bin gets a factor
// kReferenceProbeUs / (its median probe time), and time is measured in
// reference time: the integral of the factor over an interval.  That
// applies to each request's latency, to CPU time and to the elapsed time
// goodput is divided by.  An open loop's schedule runs on the same clock
// (live, from the last few probes), so a slower host does not raise the
// offered load.  The probe does none of the program's work and uses no
// library code, so no change to the program can move it.
#pragma once

#include <cstdint>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// Median probe time on the idle 4-CPU Xeon VM this benchmark was tuned
/// on; it fixes only the scale of the corrected numbers.
inline constexpr double kReferenceProbeUs = 20.0;

/// Wall time of a fixed run of SHA-256 compressions, in microseconds.
double probe_us();

/// Process user+sys CPU seconds, all threads.
double cpu_seconds();

/// Probe samples taken at most once per interval.
class ProbeSampler {
 public:
  void tick(std::uint64_t now);
  void add(double us) { samples_.push_back(us); }
  /// kReferenceProbeUs / median probe time (1 with no sample).
  [[nodiscard]] double factor() const;
  [[nodiscard]] double median_us() const;

 private:
  std::uint64_t next_ = 0;
  std::vector<double> samples_;
};

/// Per-bin CPU time and probe samples over the measured window.
class HostSpeed {
 public:
  HostSpeed(std::uint64_t t0, std::uint64_t window_ns);

  /// Call from the pump loop: opens bins as time passes, probes, and
  /// advances the live reference clock.
  void tick(std::uint64_t now);
  /// Reference nanoseconds since the window start, as of the last tick.
  [[nodiscard]] std::uint64_t reference_ns() const { return reference_ns_; }
  /// Current reference-per-real time ratio, from the last few probes.
  [[nodiscard]] double live_factor() const { return live_factor_; }
  /// Call once, when the window has ended.
  void finish();

  /// End-to-end numbers over the window, in reference time.
  [[nodiscard]] E2E corrected(const std::vector<Sample>& samples) const;
  /// Median probe time over the window.
  [[nodiscard]] double median_probe_us() const;

 private:
  /// Reference seconds elapsed over [from, to), clamped to the window.
  [[nodiscard]] double reference_seconds(std::uint64_t from, std::uint64_t to) const;

  std::uint64_t t0_;
  std::uint64_t bins_;
  std::uint64_t width_;
  std::vector<double> cpu_;  ///< CPU seconds at each bin start, then at the end
  std::vector<ProbeSampler> probes_;
  std::uint64_t next_probe_ = 0;
  std::vector<double> recent_;  ///< last probes, for the live factor
  double live_factor_ = 1.0;
  std::uint64_t last_tick_;
  std::uint64_t reference_ns_ = 0;
};

}  // namespace perfbench
