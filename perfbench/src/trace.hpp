// Per-layer tracing from outside the library: wrappers around the public
// seams of the SINTRA stack, all defined here in the benchmark.
//
//  * TimedProcess wraps a HostedParty or ServiceClient attached to a
//    NetworkedNode and times every delivered message, attributed to the
//    layer named by the message tag.  On a sequential host the handler
//    runs inside on_message; under an ExecutorPool the wrapper posts a
//    begin and an end marker onto the same FIFO lane as the message, so
//    the span is measured on the executor thread that runs the handler.
//  * CountingNetwork is the Network handed to a HostedParty or client: it
//    counts submitted messages and bytes per layer, and closes the
//    reply-signing span (execute returned -> "<svc>/reply" submitted).
//  * TimedStateMachine times StateMachine::execute.
//
// Work triggered by a message (self-messages, deliveries, replies) counts
// toward the layer of the network message that triggered it; execute and
// reply signing are subtracted from that layer as child spans, so layer
// self time excludes them.  Every wrapper forwards untouched while the
// Trace is disabled, so untraced windows pay one relaxed load per call.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>

#include "app/replica.hpp"
#include "common/executor.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

/// Stack layer a message tag belongs to, relative to the service tag.
enum class Layer : int {
  kRequest = 0,  ///< "<svc>": client request at a replica (admission)
  kReply,        ///< "<svc>/reply": threshold-signed reply at a client
  kAtomic,       ///< ".../abc": signed round batches
  kVba,          ///< ".../vba": validated agreement (proposals, permutation coin)
  kConsistent,   ///< ".../vba/cb/<i>": consistent broadcast of proposals
  kAbba,         ///< ".../vba/ba/<i>": binary agreement and its coin
  kCausal,       ///< "<svc>/sc": TDH2 decryption shares
  kOther,
  kCount
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

Layer classify(std::string_view tag, std::string_view service);
const char* layer_name(Layer layer);

/// Round number carried by an atomic-broadcast sub-instance tag
/// ("<...>/abc/<r>/vba/..."), or 0 when the tag names none.
int round_of(std::string_view tag);

struct LayerCounters {
  std::atomic<std::uint64_t> handler_ns{0};  ///< handler spans, children included
  std::atomic<std::uint64_t> child_ns{0};    ///< execute + reply signing inside them
  std::atomic<std::uint64_t> handled{0};     ///< messages dispatched (replicas)
  std::atomic<std::uint64_t> sent{0};        ///< messages submitted (replicas)
  std::atomic<std::uint64_t> sent_bytes{0};
};

/// A duration sum and its event count.
struct Span {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> count{0};
  void add(std::uint64_t d) {
    ns.fetch_add(d, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Everything the wrappers accumulate.  Shared by all threads of a run.
class Trace {
 public:
  explicit Trace(std::string service) : service_(std::move(service)) {}

  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] const std::string& service() const { return service_; }

  std::array<LayerCounters, kLayers> layers;
  Span execute;                     ///< StateMachine::execute
  Span reply_sign;                  ///< execute return -> reply submit
  Span client_request;              ///< ServiceClient::request
  Span client_reply;                ///< ServiceClient::on_message for replies
  std::atomic<std::uint64_t> client_svc_sent{0};  ///< request copies sent by clients
  std::atomic<int> first_round{0};                ///< first round seen at replica 0
  std::atomic<int> max_round{0};                  ///< highest round seen at replica 0
  std::atomic<std::uint64_t> queue_samples{0};    ///< replica-0 queue samples taken
  std::atomic<std::uint64_t> inflight_sum{0};     ///< sum of Replica::inflight()
  std::atomic<std::uint64_t> abc_queue_sum{0};    ///< sum of AtomicBroadcast::queue_size()

  /// Distinct ABBA instances seen at replica 0 (pump thread only).
  void note_abba_instance(std::string_view tag);
  [[nodiscard]] std::size_t abba_instances() const;

  /// Zero every accumulator (between windows).
  void reset();

 private:
  std::string service_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex abba_mutex_;
  std::set<std::string, std::less<>> abba_tags_;
};

/// Process wrapper: times deliveries by layer (see file comment).
class TimedProcess final : public sintra::net::Process {
 public:
  /// `replica0`: this wraps replica 0, whose tags feed the round and ABBA
  /// instance counts.  `pool`/`lane_group` describe the Party's executor
  /// routing (null pool: handlers run inline).
  TimedProcess(sintra::net::Process& inner, Trace& trace, bool is_client, bool replica0,
               sintra::common::ExecutorPool* pool, std::uint64_t lane_group);

  void on_message(const sintra::net::Message& message) override;

 private:
  sintra::net::Process& inner_;
  Trace& trace_;
  bool is_client_;
  bool replica0_;
  sintra::common::ExecutorPool* pool_;
  std::uint64_t lane_group_;
};

/// Network decorator: per-layer send counts and the reply-signing span.
class CountingNetwork final : public sintra::net::Network {
 public:
  CountingNetwork(sintra::net::Network& inner, Trace& trace, bool is_client)
      : inner_(inner), trace_(trace), is_client_(is_client) {}

  void submit(sintra::net::Message message) override;
  [[nodiscard]] int n() const override { return inner_.n(); }
  [[nodiscard]] std::uint64_t now() const override { return inner_.now(); }
  TimerId schedule_timer(int owner, std::uint64_t delay, TimerFn fn) override {
    return inner_.schedule_timer(owner, delay, std::move(fn));
  }
  void cancel_timer(TimerId id) override { inner_.cancel_timer(id); }
  [[nodiscard]] sintra::TraceLog* log() override { return inner_.log(); }

 private:
  sintra::net::Network& inner_;
  Trace& trace_;
  bool is_client_;
};

/// StateMachine wrapper timing execute().
class TimedStateMachine final : public sintra::app::StateMachine {
 public:
  TimedStateMachine(std::unique_ptr<sintra::app::StateMachine> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  sintra::Bytes execute(sintra::BytesView request) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sintra::app::StateMachine> inner_;
  Trace& trace_;
};

}  // namespace perfbench
