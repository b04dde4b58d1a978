#include "host_speed.hpp"

#include <sys/resource.h>

#include <algorithm>

namespace perfbench {

namespace {

constexpr std::uint64_t kBinNs = 250'000'000;
constexpr std::size_t kLiveProbes = 16;  ///< probes behind the live factor (80 ms)
constexpr std::uint64_t kProbeEveryNs = 5'000'000;

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// One SHA-256 compression of `block` into `state`.
void compress(std::uint32_t state[8], const std::uint32_t block[16]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = block[i];
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 =
        h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + ((e & f) ^ (~e & g)) + kRound[i] + w[i];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6; };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double probe_us() {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::uint32_t block[16] = {};
  const std::uint64_t start = now_ns();
  for (int i = 0; i < 64; ++i) {
    block[i % 16] ^= state[i % 8];
    compress(state, block);
  }
  const std::uint64_t end = now_ns();
  asm volatile("" : : "r"(state) : "memory");  // keep the chain
  return static_cast<double>(end - start) / 1e3;
}

void ProbeSampler::tick(std::uint64_t now) {
  if (now < next_) return;
  add(probe_us());
  next_ = now + kProbeEveryNs;
}

double ProbeSampler::median_us() const { return median(samples_); }

double ProbeSampler::factor() const {
  return samples_.empty() ? 1.0 : kReferenceProbeUs / median_us();
}

HostSpeed::HostSpeed(std::uint64_t t0, std::uint64_t window_ns)
    : t0_(t0),
      bins_(std::max<std::uint64_t>(1, window_ns / kBinNs)),
      width_(window_ns / bins_),
      last_tick_(t0) {}

void HostSpeed::tick(std::uint64_t now) {
  while (cpu_.size() < bins_ && now - t0_ >= cpu_.size() * width_) {
    cpu_.push_back(cpu_seconds());
    probes_.emplace_back();
  }
  if (now >= next_probe_ && !probes_.empty()) {
    const double us = probe_us();
    probes_.back().add(us);
    if (recent_.size() == kLiveProbes) recent_.erase(recent_.begin());
    recent_.push_back(us);
    live_factor_ = kReferenceProbeUs / median(recent_);
    next_probe_ = now + kProbeEveryNs;
  }
  reference_ns_ += static_cast<std::uint64_t>(static_cast<double>(now - last_tick_) * live_factor_);
  last_tick_ = now;
}

void HostSpeed::finish() { cpu_.push_back(cpu_seconds()); }

double HostSpeed::reference_seconds(std::uint64_t from, std::uint64_t to) const {
  const std::uint64_t end = t0_ + width_ * probes_.size();
  from = std::max(from, t0_);
  to = std::min(to, end);
  double seconds = 0;
  for (std::uint64_t b = (from - t0_) / width_; from < to; ++b) {
    const std::uint64_t bin_end = t0_ + (b + 1) * width_;
    const std::uint64_t until = std::min(to, bin_end);
    seconds += static_cast<double>(until - from) / 1e9 * probes_[b].factor();
    from = until;
  }
  return seconds;
}

double HostSpeed::median_probe_us() const {
  std::vector<double> medians;
  for (const ProbeSampler& p : probes_) medians.push_back(p.median_us());
  return median(medians);
}

E2E HostSpeed::corrected(const std::vector<Sample>& samples) const {
  E2E e;
  if (probes_.empty() || cpu_.size() != probes_.size() + 1) return e;
  const std::uint64_t end = t0_ + width_ * probes_.size();
  const double reference_s = reference_seconds(t0_, end);
  double cpu_s = 0;
  for (std::size_t b = 0; b < probes_.size(); ++b) {
    cpu_s += (cpu_[b + 1] - cpu_[b]) * probes_[b].factor();
  }
  std::vector<double> latency;
  for (const Sample& s : samples) {
    if (s.done_ns < t0_ || s.done_ns >= end) continue;
    latency.push_back(reference_seconds(s.start_ns, s.done_ns) * 1e3);
  }
  e.receipts = latency.size();
  e.goodput_rps = ratio(static_cast<double>(latency.size()), reference_s);
  e.cpu_ms_per_req = ratio(cpu_s * 1e3, static_cast<double>(latency.size()));
  e.p50_ms = percentile(latency, 0.5);
  e.p90_ms = percentile(std::move(latency), 0.9);
  return e;
}

}  // namespace perfbench
