// Bounded worker pool.  No protocol submits work to it: every share is
// checked on arrival, on the protocol thread (PROTOCOLS.md, "Certify by
// combining").  It stays while perfbench's `pools` mode attaches one
// (ROADMAP item 5).
//
// Protocol logic must stay single-threaded and deterministic, so the pool
// never touches protocol state: a job is a pure closure producing Bytes,
// and its completion runs on the *owner* thread when that thread calls
// drain().  Under the deterministic Simulator the pool is constructed with
// zero threads and degrades to sequential mode — submit() runs the job and
// its completion inline, so seeded runs and WAL replay stay bit-exact.
//
// Overload policy: a full queue never blocks and never drops — submit()
// falls back to running the job inline on the caller.  Verification work
// is mandatory either way; the queue bound only caps memory and hand-off
// latency, and an attacker who floods shares degrades the pipeline to
// exactly the pre-pipeline synchronous behavior, nothing worse.
//
// Exception safety: a throwing job (malformed batch input) must not wedge
// the pool or kill a worker; the completion receives empty Bytes instead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/serialize.hpp"

namespace sintra::common {

class WorkPool {
 public:
  using Job = std::function<Bytes()>;
  using Completion = std::function<void(Bytes)>;
  /// Called (possibly from a worker thread) whenever a result becomes
  /// ready to drain; used to wake an event loop sleeping on a condvar.
  using Notify = std::function<void()>;

  /// `threads == 0` selects sequential deterministic mode.  `max_queue`
  /// bounds jobs admitted but not yet started; beyond it submit() runs
  /// the job inline.
  explicit WorkPool(std::size_t threads, std::size_t max_queue = 256);
  ~WorkPool();

  /// Shut the pool down without losing work: workers finish every queued
  /// job, then the calling thread runs any job the workers never took
  /// inline and drains every undrained completion.  After stop() every
  /// completion ever submitted has fired exactly once.  Idempotent; the
  /// destructor calls it.  Owner thread only (completions run here).
  void stop();

  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  [[nodiscard]] std::size_t threads() const { return workers_.size(); }
  [[nodiscard]] bool sequential() const { return workers_.empty(); }

  /// Register a wake-up hook.  Hooks are multicast: every registered hook
  /// fires when a result becomes ready, so several hosts sharing one
  /// machine-wide pool each wake their own event loop — a second
  /// registration adds a listener instead of silently stealing the hook.
  void set_notify(Notify notify);

  /// Hand a job to the pool.  Sequential mode (and the full-queue overload
  /// path) runs job + completion inline before returning.
  void submit(Job job, Completion completion);

  /// Run the completions of every finished job on the calling thread.
  /// Returns the number of completions run.  Must always be called from
  /// the same (owner) thread.
  std::size_t drain();

  /// True when finished jobs await drain() — lets an event loop's sleep
  /// predicate wake for verdicts, not only for network traffic.
  [[nodiscard]] bool has_completions() const;

  /// Block until no submitted work remains (idle pool), draining
  /// completions as they arrive.  Owner thread only.
  void wait_idle();

  /// Run a job with the pool's exception guard (empty Bytes on throw);
  /// exposed so inline/sequential callers fail the same way workers do.
  static Bytes run_guarded(const Job& job);

 private:
  struct Pending {
    Job job;
    Completion completion;
  };
  struct Done {
    Bytes result;
    Completion completion;
  };

  void worker_loop();

  const std::size_t max_queue_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for jobs
  std::condition_variable idle_cv_;   ///< wait_idle waits for quiescence
  std::deque<Pending> queue_;
  std::deque<Done> done_;
  std::size_t in_flight_ = 0;  ///< queued + currently executing jobs
  bool stop_ = false;
  std::vector<Notify> notifies_;  ///< multicast: every registered hook fires
};

}  // namespace sintra::common
