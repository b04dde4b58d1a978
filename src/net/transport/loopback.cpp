#include "net/transport/loopback.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sintra::net::transport {

namespace {
constexpr std::size_t kHistoryCap = 256;
}

LoopbackHub::LoopbackHub(int n, std::uint64_t seed)
    : LoopbackHub(n, seed, FaultProfile{}, LinkConfig{}) {}

LoopbackHub::LoopbackHub(int n, std::uint64_t seed, FaultProfile profile, LinkConfig link)
    : n_(n), rng_(seed), profile_(profile) {
  SINTRA_REQUIRE(n >= 2, "loopback: need at least two nodes");
  const std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  receivers_.resize(static_cast<std::size_t>(n));
  links_.assign(nn, ReliableLink(link));
  wires_.resize(nn);
  decoders_.resize(nn);
  pairs_.resize(nn / 2 + static_cast<std::size_t>(n));  // upper bound on pair count
  pair_keys_.resize(pairs_.size());
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      Writer w;
      w.u64(seed);
      w.u32(static_cast<std::uint32_t>(a));
      w.u32(static_cast<std::uint32_t>(b));
      pair_keys_[pair_index(a, b)] =
          crypto::hash_expand("sintra/loopback/link-key", w.data(), 32);
    }
  }
  // Every link starts connected with aligned (zero) cursors.
  for (auto& l : links_) l.on_connected(0);
}

std::size_t LoopbackHub::wire_index(int from, int to) const {
  SINTRA_REQUIRE(from >= 0 && from < n_ && to >= 0 && to < n_ && from != to,
                 "loopback: bad endpoint");
  return static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
         static_cast<std::size_t>(to);
}

std::size_t LoopbackHub::pair_index(int a, int b) const {
  const int low = std::min(a, b);
  const int high = std::max(a, b);
  // Triangular index over unordered pairs.
  return static_cast<std::size_t>(low) * static_cast<std::size_t>(n_) -
         static_cast<std::size_t>(low) * static_cast<std::size_t>(low + 1) / 2 +
         static_cast<std::size_t>(high - low - 1);
}

ReliableLink& LoopbackHub::link_mut(int node, int peer) { return links_[wire_index(node, peer)]; }

const ReliableLink& LoopbackHub::link(int node, int peer) const {
  return links_[wire_index(node, peer)];
}

void LoopbackHub::set_receiver(int node, ReceiveFn receive) {
  receivers_[static_cast<std::size_t>(node)] = std::move(receive);
}

bool LoopbackHub::pair_connected(int a, int b) const { return pairs_[pair_index(a, b)].connected; }

void LoopbackHub::set_partition_profile(PartitionProfile profile) {
  partition_ = std::move(profile);
  partition_step_ = 0;
  partition_severed_.assign(pairs_.size(), false);
}

void LoopbackHub::send(int from, int to, Bytes payload, std::uint32_t group) {
  link_mut(from, to).enqueue(std::move(payload), group);
  flush(from, to);
}

void LoopbackHub::send_many(int from, int to, std::vector<GroupPayload> payloads) {
  ReliableLink& l = link_mut(from, to);
  for (GroupPayload& payload : payloads) l.enqueue(std::move(payload.payload), payload.group);
  flush(from, to);
}

void LoopbackHub::flush(int from, int to) {
  if (!pairs_[pair_index(from, to)].connected) return;
  // One BATCH super-frame — one HMAC — per kMaxBatchBytes of payload, not
  // per message: the same codec as the TCP path, so tests can assert the
  // amortization deterministically here.
  for (BatchFrame& batch : take_batches(link_mut(from, to), pair_keys_[pair_index(from, to)])) {
    wires_[wire_index(from, to)].push_back(std::move(batch.bytes));
    ++stats_.batches_sent;
    ++stats_.hmacs_computed;
    stats_.coalesced_payloads += batch.records;
  }
}

void LoopbackHub::send_explicit_ack(int from, int to) {
  if (!pairs_[pair_index(from, to)].connected) return;
  ReliableLink& l = link_mut(from, to);
  wires_[wire_index(from, to)].push_back(encode_frame(
      FrameType::kAck, encode_ack(l.recv_cursor()), pair_keys_[pair_index(from, to)]));
  ++stats_.hmacs_computed;
  l.mark_ack_sent();
}

void LoopbackHub::inject_raw(int from, int to, Bytes bytes) {
  wires_[wire_index(from, to)].push_back(std::move(bytes));
}

void LoopbackHub::tear_down(int a, int b, std::uint64_t reconnect_in) {
  PairState& pair = pairs_[pair_index(a, b)];
  if (!pair.connected) return;
  pair.connected = false;
  pair.reconnect_in = reconnect_in;
  wires_[wire_index(a, b)].clear();  // in-flight frames are lost with the connection
  wires_[wire_index(b, a)].clear();
  decoders_[wire_index(a, b)] = FrameDecoder();
  decoders_[wire_index(b, a)] = FrameDecoder();
  link_mut(a, b).on_disconnected();
  link_mut(b, a).on_disconnected();
  ++stats_.disconnects;
}

void LoopbackHub::disconnect(int a, int b) { tear_down(a, b, 0); }

void LoopbackHub::connect(int a, int b) {
  PairState& pair = pairs_[pair_index(a, b)];
  if (pair.connected) return;
  pair.connected = true;
  pair.reconnect_in = 0;
  // Cursor-exchange handshake (the HELLO recv_cursor of the TCP path):
  // each side releases what the other delivered and rewinds the rest.
  const std::uint64_t cursor_ab = link_mut(b, a).recv_cursor();
  const std::uint64_t cursor_ba = link_mut(a, b).recv_cursor();
  link_mut(a, b).on_connected(cursor_ab);
  link_mut(b, a).on_connected(cursor_ba);
  flush(a, b);
  flush(b, a);
}

void LoopbackHub::deliver_wire_front(int from, int to) {
  const std::size_t wi = wire_index(from, to);
  Bytes frame_bytes = std::move(wires_[wi].front());
  wires_[wi].pop_front();

  // Asymmetric one-way loss: frames on a listed directed link vanish while
  // the reverse direction works — the half-open failure mode heartbeat
  // protocols flap on.  Retransmission eventually gets a frame through.
  if (partition_ && partition_->oneway_loss_chance > 0 && partition_->one_way(from, to) &&
      rng_.below(1024) < partition_->oneway_loss_chance) {
    ++stats_.oneway_dropped;
    return;
  }

  // In-flight faults, FaultInjector-style.
  if (profile_.drop_chance > 0 && rng_.below(1024) < profile_.drop_chance) {
    ++stats_.dropped_frames;
    return;  // lost; the link's retransmission recovers it
  }
  if (profile_.duplicate_chance > 0 && rng_.below(1024) < profile_.duplicate_chance) {
    wires_[wi].push_back(frame_bytes);
    ++stats_.duplicated_frames;
  }

  FrameDecoder& decoder = decoders_[wi];
  decoder.feed(frame_bytes);
  const BytesView key = pair_keys_[pair_index(from, to)];
  while (true) {
    FrameType type = FrameType::kPing;
    BytesView body;
    const FrameDecoder::Status status = decoder.next_view(key, type, body);
    if (status == FrameDecoder::Status::kNeedMore) break;
    if (status == FrameDecoder::Status::kCorrupt) {
      // Unauthenticated or garbled stream: fail closed, tear the pair
      // down (mirrors the TCP transport's poisoned-stream teardown).
      ++stats_.auth_failures;
      tear_down(from, to, profile_.reconnect_after > 0 ? profile_.reconnect_after : 1);
      return;
    }
    ++stats_.delivered_frames;
    ReliableLink& recv_link = link_mut(to, from);
    ReceiveFn& receive = receivers_[static_cast<std::size_t>(to)];
    bool ack_now = false;
    try {
      if (type == FrameType::kDataBatch) {
        ack_now = receive_batch(recv_link, body, [&](std::uint32_t group, BytesView payload) {
          if (receive) receive(from, group, payload);
        });
      } else if (type == FrameType::kAck) {
        recv_link.on_ack(decode_ack(body));
      }
      // kHello/kPing/kPong have no loopback meaning; authenticated → ignore.
    } catch (const ProtocolError&) {
      // Authenticated but structurally malformed body (a buggy or
      // Byzantine peer behind a valid MAC): poisoned stream, fail closed.
      ++stats_.auth_failures;
      tear_down(from, to, profile_.reconnect_after > 0 ? profile_.reconnect_after : 1);
      return;
    }
    if (ack_now) send_explicit_ack(to, from);
  }

  // Capture for replay faults and possibly re-inject an old frame.  A
  // replayed frame is a real adversary move: it carries a valid MAC, so
  // only the link-layer duplicate suppression can reject it.
  if (profile_.replay_chance > 0) {
    history_.push_back(frame_bytes);
    history_wire_.push_back(wi);
    if (history_.size() > kHistoryCap) {
      history_.pop_front();
      history_wire_.pop_front();
    }
    if (replays_injected_ < profile_.replay_budget && !history_.empty() &&
        rng_.below(1024) < profile_.replay_chance) {
      const std::size_t pick = static_cast<std::size_t>(rng_.below(history_.size()));
      wires_[history_wire_[pick]].push_back(history_[pick]);
      ++replays_injected_;
      ++stats_.replayed_frames;
    }
  }

  if (profile_.disconnect_chance > 0 && disconnects_injected_ < profile_.max_disconnects &&
      rng_.below(1024) < profile_.disconnect_chance) {
    ++disconnects_injected_;
    tear_down(from, to, std::max<std::uint64_t>(profile_.reconnect_after, 1));
  }
}

bool LoopbackHub::step() {
  bool progressed = false;

  // Advance the partition schedule one tick: sever pairs entering a split
  // phase, heal pairs leaving one.  A live schedule counts as progress —
  // it guarantees future healing, so run_until_quiescent() must not
  // declare quiescence while a split still blocks the backlog.
  if (partition_) {
    const std::uint64_t now = partition_step_;
    if (now < partition_->schedule_steps()) {
      progressed = true;
      ++partition_step_;
    }
    for (int a = 0; a < n_; ++a) {
      for (int b = a + 1; b < n_; ++b) {
        const std::size_t pi = pair_index(a, b);
        const bool sever = partition_->severed(a, b, now);
        if (sever && !partition_severed_[pi]) {
          partition_severed_[pi] = true;
          if (pairs_[pi].connected) {
            tear_down(a, b, 0);
            ++stats_.partition_splits;
          }
          pairs_[pi].reconnect_in = 0;  // held down until the schedule heals
        } else if (!sever && partition_severed_[pi]) {
          partition_severed_[pi] = false;
          if (!pairs_[pi].connected) {
            connect(a, b);
            ++stats_.partition_heals;
          }
        }
      }
    }
  }

  // Progress pending auto-reconnects: a fully severed network must still
  // heal without any wire traffic, so a ticking countdown counts as
  // progress even before it reaches zero.  Pairs held down by the
  // partition schedule have no countdown — only the schedule heals them.
  for (int a = 0; a < n_; ++a) {
    for (int b = a + 1; b < n_; ++b) {
      PairState& pair = pairs_[pair_index(a, b)];
      if (!pair.connected && pair.reconnect_in > 0) {
        progressed = true;
        if (--pair.reconnect_in == 0) connect(a, b);
      }
    }
  }

  std::vector<std::size_t> ready;
  for (int from = 0; from < n_; ++from) {
    for (int to = 0; to < n_; ++to) {
      if (from != to && !wires_[wire_index(from, to)].empty() &&
          pairs_[pair_index(from, to)].connected) {
        ready.push_back(wire_index(from, to));
      }
    }
  }
  // Gray-failure injection: with the configured chance, a scheduling pick
  // skips every wire sourced at a gray peer as long as anyone else has
  // traffic — the gray peer's frames are not lost, just always last.
  if (partition_ && partition_->gray_delay_chance > 0 && !ready.empty() &&
      rng_.below(1024) < partition_->gray_delay_chance) {
    std::vector<std::size_t> non_gray;
    for (const std::size_t wi : ready) {
      if (!partition_->gray(static_cast<int>(wi) / n_)) non_gray.push_back(wi);
    }
    if (!non_gray.empty() && non_gray.size() < ready.size()) {
      ready = std::move(non_gray);
      ++stats_.gray_deferred;
    }
  }
  if (ready.empty()) return progressed;
  const std::size_t wi = ready[static_cast<std::size_t>(rng_.below(ready.size()))];
  const int from = static_cast<int>(wi) / n_;
  const int to = static_cast<int>(wi) % n_;
  deliver_wire_front(from, to);
  return true;
}

void LoopbackHub::tick() {
  for (int from = 0; from < n_; ++from) {
    for (int to = 0; to < n_; ++to) {
      if (from == to) continue;
      if (!pairs_[pair_index(from, to)].connected) continue;
      // Rewind-and-resend: anything retained but unacked goes out again.
      link_mut(from, to).mark_all_for_retransmit();
      flush(from, to);
      if (link_mut(from, to).ack_pending()) send_explicit_ack(from, to);
    }
  }
}

std::size_t LoopbackHub::run_until_quiescent(std::size_t max_steps) {
  std::size_t steps = 0;
  bool ticked = false;
  while (steps < max_steps) {
    if (step()) {
      ++steps;
      ticked = false;
      continue;
    }
    if (ticked) break;  // a tick produced no new traffic: quiescent
    tick();
    ticked = true;
  }
  return steps;
}

}  // namespace sintra::net::transport
