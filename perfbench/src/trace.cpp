#include "trace.hpp"

namespace perfbench {

namespace {

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

/// Handler span open on this thread.  One at a time: a NetworkedNode
/// dispatches sequentially, and an executor lane runs its FIFO in order.
struct ThreadSpan {
  Layer layer = Layer::kOther;
  bool active = false;
  std::uint64_t start = 0;
  bool execute_pending = false;   ///< execute returned, reply not yet submitted
  std::uint64_t execute_end = 0;
};
thread_local ThreadSpan tl_span;

void begin_span(Layer layer) {
  tl_span.layer = layer;
  tl_span.active = true;
  tl_span.start = now_ns();
}

void end_span(Trace& trace) {
  if (!tl_span.active) return;
  tl_span.active = false;
  trace.layers[static_cast<std::size_t>(tl_span.layer)].handler_ns.fetch_add(
      now_ns() - tl_span.start, std::memory_order_relaxed);
}

void add_child(Trace& trace, std::uint64_t ns) {
  if (!tl_span.active) return;
  trace.layers[static_cast<std::size_t>(tl_span.layer)].child_ns.fetch_add(
      ns, std::memory_order_relaxed);
}

}  // namespace

Layer classify(std::string_view tag, std::string_view service) {
  if (tag == service) return Layer::kRequest;
  if (tag.size() <= service.size() || tag.substr(0, service.size()) != service ||
      tag[service.size()] != '/') {
    return Layer::kOther;
  }
  const std::string_view rest = tag.substr(service.size());
  if (rest == "/reply") return Layer::kReply;
  if (rest.find("/cb/") != std::string_view::npos) return Layer::kConsistent;
  if (rest.find("/ba/") != std::string_view::npos) return Layer::kAbba;
  if (ends_with(rest, "/vba")) return Layer::kVba;
  if (ends_with(rest, "/abc")) return Layer::kAtomic;
  if (rest == "/sc") return Layer::kCausal;
  return Layer::kOther;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kReply: return "reply";
    case Layer::kAtomic: return "atomic";
    case Layer::kVba: return "vba";
    case Layer::kConsistent: return "consistent";
    case Layer::kAbba: return "abba";
    case Layer::kCausal: return "causal";
    default: return "other";
  }
}

int round_of(std::string_view tag) {
  const std::size_t abc = tag.find("/abc/");
  if (abc == std::string_view::npos) return 0;
  int round = 0;
  for (std::size_t i = abc + 5; i < tag.size() && tag[i] >= '0' && tag[i] <= '9'; ++i) {
    round = round * 10 + (tag[i] - '0');
  }
  return round;
}

void Trace::note_abba_instance(std::string_view tag) {
  // Instance = the tag up to and including the "/ba/<index>" segment.
  const std::size_t ba = tag.find("/ba/");
  if (ba == std::string_view::npos) return;
  const std::size_t end = tag.find('/', ba + 4);
  const std::string_view instance = tag.substr(0, end);
  std::lock_guard<std::mutex> lock(abba_mutex_);
  if (abba_tags_.find(instance) == abba_tags_.end()) abba_tags_.emplace(instance);
}

std::size_t Trace::abba_instances() const {
  std::lock_guard<std::mutex> lock(abba_mutex_);
  return abba_tags_.size();
}

void Trace::reset() {
  for (LayerCounters& l : layers) {
    l.handler_ns = 0;
    l.child_ns = 0;
    l.handled = 0;
    l.sent = 0;
    l.sent_bytes = 0;
  }
  for (Span* span : {&execute, &reply_sign, &client_request, &client_reply}) {
    span->ns = 0;
    span->count = 0;
  }
  client_svc_sent = 0;
  first_round = 0;
  max_round = 0;
  queue_samples = 0;
  inflight_sum = 0;
  abc_queue_sum = 0;
  std::lock_guard<std::mutex> lock(abba_mutex_);
  abba_tags_.clear();
}

TimedProcess::TimedProcess(sintra::net::Process& inner, Trace& trace, bool is_client,
                           bool replica0, sintra::common::ExecutorPool* pool,
                           std::uint64_t lane_group)
    : inner_(inner), trace_(trace), is_client_(is_client), replica0_(replica0), pool_(pool),
      lane_group_(lane_group) {}

void TimedProcess::on_message(const sintra::net::Message& message) {
  if (!trace_.enabled()) {
    inner_.on_message(message);
    return;
  }
  if (is_client_) {
    const std::uint64_t start = now_ns();
    inner_.on_message(message);
    trace_.client_reply.add(now_ns() - start);
    return;
  }
  const Layer layer = classify(message.tag, trace_.service());
  trace_.layers[static_cast<std::size_t>(layer)].handled.fetch_add(1, std::memory_order_relaxed);
  if (replica0_) {
    // Replica 0 is only ever delivered to on the pump thread.
    const int round = round_of(message.tag);
    if (round > 0 && trace_.first_round.load(std::memory_order_relaxed) == 0) {
      trace_.first_round.store(round, std::memory_order_relaxed);
    }
    if (round > trace_.max_round.load(std::memory_order_relaxed)) {
      trace_.max_round.store(round, std::memory_order_relaxed);
    }
    if (layer == Layer::kAbba) trace_.note_abba_instance(message.tag);
  }
  if (pool_ != nullptr && !pool_->sequential()) {
    // The Party posts the message to this lane; bracketing it with two
    // markers on the same FIFO lane times it on the thread that runs it.
    const std::size_t lane = pool_->executor_for(lane_group_, message.tag);
    Trace* trace = &trace_;
    pool_->post(lane, [layer] { begin_span(layer); });
    inner_.on_message(message);
    pool_->post(lane, [trace] { end_span(*trace); });
    return;
  }
  begin_span(layer);
  inner_.on_message(message);
  end_span(trace_);
}

void CountingNetwork::submit(sintra::net::Message message) {
  if (trace_.enabled()) {
    if (is_client_) {
      if (message.tag == trace_.service()) {
        trace_.client_svc_sent.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      const Layer layer = classify(message.tag, trace_.service());
      if (layer == Layer::kReply && tl_span.execute_pending) {
        const std::uint64_t ns = now_ns() - tl_span.execute_end;
        tl_span.execute_pending = false;
        trace_.reply_sign.add(ns);
        add_child(trace_, ns);
      }
      LayerCounters& counters = trace_.layers[static_cast<std::size_t>(layer)];
      counters.sent.fetch_add(1, std::memory_order_relaxed);
      counters.sent_bytes.fetch_add(message.tag.size() + message.payload.size(),
                                    std::memory_order_relaxed);
    }
  }
  inner_.submit(std::move(message));
}

sintra::Bytes TimedStateMachine::execute(sintra::BytesView request) {
  if (!trace_.enabled()) return inner_->execute(request);
  const std::uint64_t start = now_ns();
  sintra::Bytes reply = inner_->execute(request);
  const std::uint64_t end = now_ns();
  trace_.execute.add(end - start);
  add_child(trace_, end - start);
  tl_span.execute_pending = true;
  tl_span.execute_end = end;
  return reply;
}

}  // namespace perfbench
