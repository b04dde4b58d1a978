// Work-pool tests: sequential determinism, owner-thread completion
// delivery, exception containment and full-queue inline fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "common/work_pool.hpp"
#include "crypto/shamir.hpp"
#include "crypto/threshold_sig.hpp"

namespace sintra {
namespace {

using common::WorkPool;

Bytes payload_of(std::uint8_t b) { return Bytes{b}; }

TEST(WorkPoolTest, SequentialModeRunsInlineAtSubmit) {
  WorkPool pool(0);
  EXPECT_TRUE(pool.sequential());
  const auto owner = std::this_thread::get_id();
  std::vector<int> order;
  pool.submit(
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), owner);
        order.push_back(1);
        return payload_of(7);
      },
      [&](Bytes result) {
        EXPECT_EQ(std::this_thread::get_id(), owner);
        EXPECT_EQ(result, payload_of(7));
        order.push_back(2);
      });
  // Job and completion both already ran, in order, before submit returned.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(pool.has_completions());
  EXPECT_EQ(pool.drain(), 0u);
}

TEST(WorkPoolTest, ThreadedCompletionsRunOnOwnerThread) {
  WorkPool pool(2);
  EXPECT_EQ(pool.threads(), 2u);
  const auto owner = std::this_thread::get_id();
  std::atomic<int> off_owner_jobs{0};
  std::vector<std::uint8_t> seen;
  constexpr int kJobs = 32;
  for (int i = 0; i < kJobs; ++i) {
    pool.submit(
        [&, i] {
          if (std::this_thread::get_id() != owner) off_owner_jobs.fetch_add(1);
          return payload_of(static_cast<std::uint8_t>(i));
        },
        [&](Bytes result) {
          // Completions only ever run on the owner thread, inside drain().
          EXPECT_EQ(std::this_thread::get_id(), owner);
          ASSERT_EQ(result.size(), 1u);
          seen.push_back(result[0]);
        });
  }
  pool.wait_idle();
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kJobs));
  // At least some work actually left the owner thread.
  EXPECT_GT(off_owner_jobs.load(), 0);
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(WorkPoolTest, ThrowingJobYieldsEmptyBytesAndPoolSurvives) {
  for (std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    WorkPool pool(threads);
    bool empty_seen = false;
    pool.submit([]() -> Bytes { throw std::runtime_error("malformed batch"); },
                [&](Bytes result) { empty_seen = result.empty(); });
    pool.wait_idle();
    EXPECT_TRUE(empty_seen) << "threads=" << threads;
    // Pool still functional after the throw.
    bool ok = false;
    pool.submit([] { return payload_of(1); }, [&](Bytes result) { ok = !result.empty(); });
    pool.wait_idle();
    EXPECT_TRUE(ok) << "threads=" << threads;
  }
}

TEST(WorkPoolTest, FullQueueFallsBackToInlineExecution) {
  WorkPool pool(1, /*max_queue=*/1);
  const auto owner = std::this_thread::get_id();
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> worker_busy{false};
  pool.submit(
      [&, opened] {
        worker_busy.store(true);
        opened.wait();
        return payload_of(1);
      },
      [](Bytes) {});
  while (!worker_busy.load()) std::this_thread::yield();
  pool.submit([&, opened] { opened.wait(); return payload_of(2); }, [](Bytes) {});  // queued
  // Queue is now full: the next submit must run inline on the caller and
  // complete before returning — overload degrades to synchronous, never
  // blocks, never drops.
  bool inline_done = false;
  pool.submit(
      [&] {
        EXPECT_EQ(std::this_thread::get_id(), owner);
        return payload_of(3);
      },
      [&](Bytes result) {
        EXPECT_EQ(result, payload_of(3));
        inline_done = true;
      });
  EXPECT_TRUE(inline_done);
  gate.set_value();
  pool.wait_idle();
}

TEST(WorkPoolTest, StopFiresEveryCompletionExactlyOnce) {
  // Regression: shutdown used to discard completions still parked in the
  // finished queue — a submitted verification could silently never report.
  // stop() (and the destructor through it) must drain every completion on
  // the owner thread, each exactly once.
  constexpr int kJobs = 64;
  std::atomic<int> fired{0};
  {
    WorkPool pool(2, /*max_queue=*/8);
    const auto owner = std::this_thread::get_id();
    for (int i = 0; i < kJobs; ++i) {
      pool.submit([i] { return payload_of(static_cast<std::uint8_t>(i)); },
                  [&, owner](Bytes result) {
                    EXPECT_EQ(std::this_thread::get_id(), owner);
                    EXPECT_EQ(result.size(), 1u);
                    fired.fetch_add(1);
                  });
    }
    pool.stop();
    EXPECT_EQ(fired.load(), kJobs) << "stop() dropped undrained completions";
    pool.stop();  // idempotent: must not re-fire anything
    EXPECT_EQ(fired.load(), kJobs);
  }  // destructor after stop(): still exactly once
  EXPECT_EQ(fired.load(), kJobs);
}

TEST(WorkPoolTest, HasCompletionsAndNotifyWakeTheOwner) {
  WorkPool pool(1);
  std::atomic<int> notified{0};
  pool.set_notify([&] { notified.fetch_add(1); });
  pool.submit([] { return payload_of(9); }, [](Bytes) {});
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pool.has_completions()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "completion never surfaced";
    std::this_thread::yield();
  }
  // The worker publishes the completion under the lock and runs the notify
  // hook after unlocking, so the hook may trail has_completions() briefly.
  while (notified.load() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "notify hook never ran";
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.drain(), 1u);
  EXPECT_FALSE(pool.has_completions());
}

TEST(WorkPoolTest, SharedThresholdKeyAcrossWorkers) {
  // As in a replica's crypto pool, workers sign and check threshold-RSA
  // shares through one public key at once: its Montgomery context and v
  // table are read concurrently, and copies share both.
  Rng rng(31);
  const auto deal = crypto::ThresholdSigDeal::deal(
      crypto::RsaParams::precomputed(128), std::make_shared<crypto::ThresholdScheme>(4, 1), rng);
  const crypto::ThresholdSigPublicKey& pk = deal.public_key;
  WorkPool pool(4);
  constexpr int kJobs = 32;
  int completed = 0;
  int verified = 0;
  for (int i = 0; i < kJobs; ++i) {
    pool.submit(
        [&deal, &pk, i] {
          Rng job_rng(static_cast<std::uint64_t>(1000 + i));
          const Bytes message = bytes_of("request " + std::to_string(i));
          const crypto::ThresholdSigPublicKey copy = pk;
          bool ok = true;
          for (const auto& share :
               deal.secret_keys[static_cast<std::size_t>(i % 4)].sign(pk, message, job_rng)) {
            ok = ok && copy.verify_share(message, share) && pk.verify_share(message, share);
          }
          return payload_of(ok ? 1 : 0);
        },
        [&](Bytes result) {
          ++completed;
          if (result == payload_of(1)) ++verified;
        });
  }
  pool.wait_idle();
  EXPECT_EQ(completed, kJobs);
  EXPECT_EQ(verified, kJobs);
}

}  // namespace
}  // namespace sintra
