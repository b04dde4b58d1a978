// Per-instance liveness watchdog (issue 4).
//
// Detects a stalled protocol instance — no observable progress for a full
// timeout — and triggers a protocol-specific recovery action.  Its one
// protocol user is RBC, whose recovery is a state-summary retransmission
// (PbftLike runs its own failure detector instead).  Time is the host
// Network's notion: delivery steps under the deterministic simulator
// (where timers model a failure detector and only fire once the network
// has quiesced), milliseconds over the real transport's TimerWheel.
//
// The watchdog never decides anything itself; recovery must be a safe,
// idempotent action (rebroadcasting already-sent messages) so that a
// *false* stall detection costs bandwidth, not correctness.  Recoveries
// are capped: an instance that cannot be revived (e.g. too many peers are
// really gone) stops burning timers instead of spinning the scheduler
// forever.
//
// Timeout growth follows CL99's failure-detector discipline: every
// fruitless recovery doubles the next timeout (capped at 64x base) so a
// genuinely slow configuration stops thrashing, and the growth resets the
// moment progress is observed — either lazily at the next timer fire, or
// eagerly when the instance calls note_progress() — so one historic stall
// does not leave the detector permanently desensitised (issue 8).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/party.hpp"

namespace sintra::protocols {

class StallWatchdog {
 public:
  explicit StallWatchdog(net::Party& host) : host_(host) {}
  ~StallWatchdog() { disarm(); }

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Arm (or re-arm with new callbacks).  `done` stops the watchdog for
  /// good; `progress` returns a counter that changes whenever the instance
  /// observably advances (messages absorbed, rounds entered) — a stall is
  /// "the counter did not move for a whole timeout"; `recover` fires on a
  /// stall and must be idempotent.
  void arm(std::uint64_t timeout, std::function<bool()> done,
           std::function<std::uint64_t()> progress, std::function<void()> recover) {
    disarm();
    timeout_ = timeout;
    backoff_ = 0;
    done_ = std::move(done);
    progress_ = std::move(progress);
    recover_ = std::move(recover);
    last_progress_ = progress_();
    schedule();
  }

  void disarm() {
    if (armed_) {
      host_.cancel_timer(timer_);
      armed_ = false;
    }
  }

  /// Eager reset: the instance observed progress right now.  If the
  /// timeout had grown from earlier stalls, snap back to the base timeout
  /// immediately instead of waiting out the inflated timer (a no-op in the
  /// common never-stalled case, so callers may invoke it on every event).
  void note_progress() {
    if (!armed_ || backoff_ == 0) return;
    backoff_ = 0;
    last_progress_ = progress_();
    host_.cancel_timer(timer_);
    schedule();
  }

  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }
  /// Consecutive fruitless recoveries since progress (test visibility).
  [[nodiscard]] std::uint32_t backoff() const { return backoff_; }
  /// The delay the next (or pending) timer was armed with.
  [[nodiscard]] std::uint64_t current_timeout() const {
    return timeout_ << std::min(backoff_, std::uint32_t{6});
  }

 private:
  static constexpr std::uint64_t kMaxRecoveries = 32;

  void schedule() {
    timer_ = host_.schedule_timer(current_timeout(), [this] {
      armed_ = false;
      if (done_()) return;
      const std::uint64_t now = progress_();
      if (now == last_progress_) {
        if (recoveries_ >= kMaxRecoveries) return;
        ++recoveries_;
        ++backoff_;
        recover_();
      } else {
        backoff_ = 0;  // progress: trust the base timeout again
      }
      last_progress_ = progress_();
      schedule();
    });
    armed_ = true;
  }

  net::Party& host_;
  std::uint64_t timeout_ = 0;
  std::function<bool()> done_;
  std::function<std::uint64_t()> progress_;
  std::function<void()> recover_;
  std::uint64_t last_progress_ = 0;
  bool armed_ = false;
  net::Network::TimerId timer_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint32_t backoff_ = 0;  ///< fruitless recoveries since progress
};

}  // namespace sintra::protocols
