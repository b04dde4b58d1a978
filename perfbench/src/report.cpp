#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

E2E e2e_over(const std::vector<Sample>& samples,
             const std::vector<std::pair<std::uint64_t, std::uint64_t>>& spans, double cpu_s) {
  std::vector<double> latency;
  double seconds = 0;
  for (const auto& [begin, end] : spans) seconds += static_cast<double>(end - begin) / 1e9;
  for (const Sample& s : samples) {
    for (const auto& [begin, end] : spans) {
      if (s.done_ns >= begin && s.done_ns < end) {
        latency.push_back(s.latency_ms());
        break;
      }
    }
  }
  E2E e;
  e.receipts = latency.size();
  e.goodput_rps = ratio(static_cast<double>(latency.size()), seconds);
  e.cpu_ms_per_req = ratio(cpu_s * 1e3, static_cast<double>(latency.size()));
  e.p50_ms = percentile(latency, 0.5);
  e.p90_ms = percentile(std::move(latency), 0.9);
  return e;
}

std::vector<Metric> layer_metrics(const LayerInputs& in, Cluster& cluster, Trace& trace) {
  const Phase& ref = *in.reference;
  const Phase& traced = *in.traced;
  const double reqs = static_cast<double>(traced.completed);
  const double phase_ns = static_cast<double>(traced.end_ns - traced.start_ns);
  const double rounds = static_cast<double>(std::max(in.rounds, 1));
  auto layer = [&](Layer l) -> const LayerCounters& {
    return trace.layers[static_cast<std::size_t>(l)];
  };
  auto count = [](const std::atomic<std::uint64_t>& a) { return static_cast<double>(a.load()); };
  auto self_ns = [&](Layer l) { return count(layer(l).handler_ns) - count(layer(l).child_ns); };
  double handler_ns = 0;
  for (const LayerCounters& l : trace.layers) handler_ns += count(l.handler_ns);
  const double client_reply_ns = count(trace.client_reply.ns);
  const double client_request_ns = count(trace.client_request.ns);
  const PumpCounters& pump = cluster.pump;
  // Handlers run inside poll() on a sequential host; under executors only
  // the clients' reply handling does.
  const double pump_handler_ns = (cluster.concurrent() ? 0.0 : handler_ns) + client_reply_ns;
  const double poll_self_ns =
      static_cast<double>(pump.poll_ns) - pump_handler_ns - static_cast<double>(pump.send_ns);
  const double total_requests = static_cast<double>(in.total_issued);
  const auto& n0 = traced.nodes_start;
  const auto& n1 = traced.nodes_end;
  const auto& h0 = traced.hub_start;
  const auto& h1 = traced.hub_end;
  const double frames = static_cast<double>(h1.delivered_frames - h0.delivered_frames);

  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back(Metric{std::move(name), value, unit});
  };
  add("protocols.atomic.round_ms", phase_ns / 1e6 / rounds, "ms");
  add("protocols.atomic.reqs_per_round", reqs / rounds, "count");
  add("protocols.atomic.queue_mean", ratio(count(trace.abc_queue_sum), count(trace.queue_samples)),
      "count");
  const std::pair<Layer, const char*> per_round[] = {{Layer::kAtomic, "atomic"},
                                                     {Layer::kVba, "vba"},
                                                     {Layer::kConsistent, "consistent"},
                                                     {Layer::kAbba, "abba"}};
  for (const auto& [l, name] : per_round) {
    const std::string base = std::string("protocols.") + name + ".";
    add(base + "handler_ms_per_round", self_ns(l) / 1e6 / rounds, "ms");
    add(base + "msgs_per_round", count(layer(l).sent) / rounds, "count");
    add(base + "bytes_per_round", count(layer(l).sent_bytes) / rounds, "B");
  }
  add("protocols.abba.instances_per_round", static_cast<double>(trace.abba_instances()) / rounds,
      "count");
  add("protocols.causal.handler_ms_per_req", ratio(self_ns(Layer::kCausal) / 1e6, reqs), "ms");
  add("protocols.causal.msgs_per_req", ratio(count(layer(Layer::kCausal).sent), reqs), "count");

  add("app.replica.admit_us",
      ratio(self_ns(Layer::kRequest) / 1e3, count(layer(Layer::kRequest).handled)), "us");
  add("app.replica.execute_us", ratio(count(trace.execute.ns) / 1e3, count(trace.execute.count)),
      "us");
  add("app.replica.reply_sign_us",
      ratio(count(trace.reply_sign.ns) / 1e3, count(trace.reply_sign.count)), "us");
  add("app.replica.inflight_mean", ratio(count(trace.inflight_sum), count(trace.queue_samples)),
      "count");
  add("app.replica.busy_per_kreq",
      ratio(static_cast<double>(cluster.replica_busy()) * 1e3, total_requests), "count");
  add("app.client.request_us", ratio(client_request_ns / 1e3, count(trace.client_request.count)),
      "us");
  add("app.client.reply_us", ratio(client_reply_ns / 1e3, reqs), "us");
  add("app.client.replies_per_receipt", ratio(count(trace.client_reply.count), reqs), "count");
  add("app.client.busy_per_kreq",
      ratio(static_cast<double>(cluster.client_busy()) * 1e3, total_requests), "count");
  // Every request goes to all replicas once; further copies are retries.
  const double copies = count(trace.client_svc_sent);
  const double issued = static_cast<double>(in.issued_traced);
  const double retries = std::max(0.0, copies - kReplicas * issued) / kReplicas;
  add("app.client.retries_per_kreq", ratio(retries * 1e3, issued), "count");

  add("net.networked_node.poll_busy_frac", static_cast<double>(pump.poll_ns) / phase_ns, "frac");
  add("net.networked_node.self_ms_per_req", ratio(poll_self_ns / 1e6, reqs), "ms");
  add("net.networked_node.dispatched_per_req",
      ratio(static_cast<double>(n1.dispatched - n0.dispatched), reqs), "count");
  add("net.networked_node.payloads_per_flush",
      ratio(static_cast<double>(n1.outbound_payloads - n0.outbound_payloads),
            static_cast<double>(n1.outbound_flushes - n0.outbound_flushes)),
      "count");
  add("net.networked_node.idle_frac", static_cast<double>(pump.idle_ns) / phase_ns, "frac");
  add("net.networked_node.dropped_inbox",
      static_cast<double>(n1.dropped_inbox - n0.dropped_inbox), "count");

  add("net.loopback.send_us_per_flush",
      ratio(static_cast<double>(pump.send_ns) / 1e3, static_cast<double>(pump.sends)), "us");
  add("net.loopback.recv_us_per_frame",
      ratio(static_cast<double>(pump.step_ns) / 1e3, static_cast<double>(pump.frames)), "us");
  add("net.loopback.frames_per_req", ratio(frames, reqs), "count");
  add("net.loopback.hmacs_per_req",
      ratio(static_cast<double>(h1.hmacs_computed - h0.hmacs_computed), reqs), "count");
  add("net.loopback.payloads_per_batch",
      ratio(static_cast<double>(h1.coalesced_payloads - h0.coalesced_payloads),
            static_cast<double>(h1.batches_sent - h0.batches_sent)),
      "count");
  add("net.loopback.retransmits",
      static_cast<double>(traced.retransmits_end - traced.retransmits_start), "count");

  // Executor counters come from the untraced phase: the tracer posts its
  // own marker tasks, which would inflate them.
  const double posted = static_cast<double>(ref.exec_end.posted - ref.exec_start.posted);
  add("common.executor.posted_per_req", ratio(posted, static_cast<double>(ref.completed)),
      "count");
  add("common.executor.posts_per_batch",
      ratio(posted, static_cast<double>(ref.exec_end.batches - ref.exec_start.batches)), "count");

  for (const auto& [name, us] : in.crypto) add(name, us, "us");

  add("loadgen.lag_p90_ms", percentile(traced.lag_ms, 0.9), "ms");
  add("loadgen.offered_rps", ratio(issued, traced.seconds()), "1/s");

  // Busy time: every measured span, on the pump thread and on executors.
  const double busy_ns = handler_ns + client_reply_ns + client_request_ns + poll_self_ns +
                         static_cast<double>(pump.send_ns) + static_cast<double>(pump.step_ns);
  add("app.reply_crypto_busy_frac",
      ratio(count(trace.reply_sign.ns) + client_reply_ns, busy_ns), "frac");
  add("trace.cpu_overhead_pct",
      (ratio(in.traced_e2e.cpu_ms_per_req, in.reference_e2e.cpu_ms_per_req) - 1.0) * 100.0, "%");
  add("trace.p50_overhead_pct",
      (ratio(in.traced_e2e.p50_ms, in.reference_e2e.p50_ms) - 1.0) * 100.0, "%");

  std::printf("\nwhere the time went (%s, traced %.1f s, %.0f receipts, %.0f rounds, "
              "busy %.2f ms/req):\n",
              in.workload, traced.seconds(), reqs, rounds, ratio(busy_ns / 1e6, reqs));
  std::printf("  %-32s %7s %10s %10s\n", "span", "busy", "ms/req", "msgs/req");
  auto row = [&](const std::string& name, double ns, double msgs) {
    std::printf("  %-32s %6.1f%% %10.3f %10.2f\n", name.c_str(), 100.0 * ratio(ns, busy_ns),
                ratio(ns / 1e6, reqs), ratio(msgs, reqs));
  };
  row("net.loopback.recv (hub.step)", static_cast<double>(pump.step_ns), frames);
  row("net.loopback.send (send_many)", static_cast<double>(pump.send_ns),
      static_cast<double>(h1.batches_sent - h0.batches_sent));
  row("net.networked_node.poll (self)", poll_self_ns,
      static_cast<double>(n1.dispatched - n0.dispatched));
  row("app.client.request", client_request_ns, copies);
  row("app.client.reply", client_reply_ns, count(trace.client_reply.count));
  row("app.replica.admit", self_ns(Layer::kRequest), count(layer(Layer::kRequest).handled));
  row("app.replica.execute", count(trace.execute.ns), count(trace.execute.count));
  row("app.replica.reply_sign", count(trace.reply_sign.ns), count(layer(Layer::kReply).sent));
  for (Layer l : {Layer::kAtomic, Layer::kVba, Layer::kConsistent, Layer::kAbba, Layer::kCausal,
                  Layer::kOther}) {
    row(std::string("protocols.") + layer_name(l), self_ns(l), count(layer(l).sent));
  }
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace perfbench
