#include "net/transport/link.hpp"

#include <algorithm>

namespace sintra::net::transport {

std::uint64_t ReliableLink::enqueue(Bytes payload, std::uint32_t group) {
  const std::uint64_t seq = next_seq_++;
  outbound_.push_back(GroupPayload{group, std::move(payload)});
  ++stats_.enqueued;
  while (outbound_.size() > config_.max_outbound) {
    // Quota overflow: evict the oldest retained frame and advance the
    // base floor.  The receiver sees the gap via the `base` field and
    // skips explicitly — bounded memory beats silent unbounded growth
    // when a peer is down for long or never acks.
    outbound_.pop_front();
    ++base_seq_;
    ++stats_.dropped_outbound;
  }
  send_from_ = std::max(send_from_, base_seq_);
  return seq;
}

std::vector<ReliableLink::OutFrame> ReliableLink::take_sendable() {
  std::vector<OutFrame> frames;
  if (!connected_) return frames;
  send_from_ = std::max(send_from_, base_seq_);
  frames.reserve(static_cast<std::size_t>(next_seq_ - send_from_));
  for (std::uint64_t seq = send_from_; seq < next_seq_; ++seq) {
    OutFrame frame;
    frame.seq = seq;
    frame.base = base_seq_;
    const GroupPayload& retained = outbound_[static_cast<std::size_t>(seq - base_seq_)];
    frame.group = retained.group;
    frame.payload = retained.payload;
    frames.push_back(std::move(frame));
    ++stats_.sent;
    // Per-frame accounting, exact by construction: a frame is a resend iff
    // its seq was ever on a wire before.  The old range arithmetic
    // (`min(high, next) - front`) assumed the sendable range's low end is
    // where resends start, which entangles the stat with how quota
    // eviction moves base_seq_/send_from_; counting each frame against the
    // high-water mark cannot miscount no matter how the cursors moved.
    if (seq < send_cursor_high_) {
      ++stats_.retransmitted;
    } else {
      ++stats_.first_transmissions;
    }
  }
  send_cursor_high_ = std::max(send_cursor_high_, next_seq_);
  send_from_ = next_seq_;
  return frames;
}

void ReliableLink::on_ack(std::uint64_t cumulative) {
  // Ignore acks beyond what was ever sent (Byzantine peer): acking the
  // future would truncate frames still awaiting first transmission.
  cumulative = std::min(cumulative, next_seq_);
  while (base_seq_ < cumulative && !outbound_.empty()) {
    outbound_.pop_front();
    ++base_seq_;
  }
  send_from_ = std::max(send_from_, base_seq_);
}

void ReliableLink::mark_all_for_retransmit() { send_from_ = base_seq_; }

void ReliableLink::on_connected(std::uint64_t peer_recv_cursor) {
  connected_ = true;
  on_ack(peer_recv_cursor);
  mark_all_for_retransmit();
}

ReliableLink::FastPath ReliableLink::accept_inorder(std::uint64_t seq, std::uint64_t base) {
  FastPath fast;
  if (base > recv_next_ || seq != recv_next_ || !reorder_.empty()) return fast;
  fast.taken = true;
  ++recv_next_;
  ++stats_.delivered;
  ++unacked_deliveries_;
  if (unacked_deliveries_ >= config_.ack_every) fast.ack_now = true;
  return fast;
}

ReliableLink::Incoming ReliableLink::on_data(std::uint64_t seq, std::uint64_t base,
                                             Bytes payload, std::uint32_t group) {
  Incoming incoming;
  // The peer's quota floor moved past us: the skipped seqs will never be
  // retransmitted.  Deliver what the reorder window already holds below
  // the floor (those frames arrived), count the rest as skipped, advance.
  if (base > recv_next_) {
    for (std::uint64_t s = recv_next_; s < base; ++s) {
      auto buffered = reorder_.find(s);
      if (buffered != reorder_.end()) {
        incoming.deliver.push_back(std::move(buffered->second));
        reorder_.erase(buffered);
        ++stats_.delivered;
        ++unacked_deliveries_;
      } else {
        ++stats_.skipped_inbound;
      }
    }
    recv_next_ = base;
    incoming.ack_now = true;
  }
  if (seq < recv_next_) {
    // Duplicate (a retransmission that crossed our ack): re-acking
    // promptly lets the sender release its queue.
    ++stats_.duplicates;
    incoming.ack_now = true;
    return incoming;
  }
  if (seq == recv_next_) {
    incoming.deliver.push_back(GroupPayload{group, std::move(payload)});
    ++recv_next_;
    ++stats_.delivered;
    ++unacked_deliveries_;
    // Drain the reorder window while it is consecutive.
    for (auto it = reorder_.begin(); it != reorder_.end() && it->first == recv_next_;
         it = reorder_.begin()) {
      incoming.deliver.push_back(std::move(it->second));
      reorder_.erase(it);
      ++recv_next_;
      ++stats_.delivered;
      ++unacked_deliveries_;
    }
  } else if (seq - recv_next_ > config_.reorder_window) {
    // Too far ahead to buffer; the sender retransmits after our acks (or
    // the reconnect handshake) catch it up.
    ++stats_.out_of_window;
  } else if (reorder_.emplace(seq, GroupPayload{group, std::move(payload)}).second) {
    ++stats_.reordered;
  } else {
    ++stats_.duplicates;
  }
  if (unacked_deliveries_ >= config_.ack_every) incoming.ack_now = true;
  return incoming;
}

std::vector<BatchFrame> take_batches(ReliableLink& link, BytesView key) {
  std::vector<ReliableLink::OutFrame> frames = link.take_sendable();
  std::vector<BatchFrame> out;
  if (frames.empty()) return out;
  // take_sendable stamps every frame with the same base (eviction never
  // runs mid-take), so one base serves every batch of the flush.
  DataBatchBody batch;
  batch.ack = link.recv_cursor();
  batch.base = frames.front().base;
  std::size_t batch_bytes = 0;
  const auto emit = [&] {
    out.push_back({encode_frame(FrameType::kDataBatch, batch.encode(), key), batch.records.size()});
    batch.records.clear();
    batch_bytes = 0;
  };
  for (ReliableLink::OutFrame& frame : frames) {
    if (batch_bytes > 0 && batch_bytes + frame.payload.size() > kMaxBatchBytes) emit();
    batch_bytes += frame.payload.size();
    batch.records.push_back({frame.seq, frame.group, std::move(frame.payload)});
  }
  emit();
  link.mark_ack_sent();  // the ack rode the batches
  return out;
}

}  // namespace sintra::net::transport
