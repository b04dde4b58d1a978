#include "app/replica.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace sintra::app {

void RequestEnvelope::encode(Writer& w) const {
  w.u32(static_cast<std::uint32_t>(client));
  w.u64(request_id);
  w.bytes(body);
}

RequestEnvelope RequestEnvelope::decode(Reader& r) {
  RequestEnvelope envelope;
  envelope.client = static_cast<int>(r.u32());
  envelope.request_id = r.u64();
  envelope.body = r.bytes();
  return envelope;
}

Bytes reply_statement(const std::string& service_tag, const RequestEnvelope& request,
                      BytesView reply) {
  Writer w;
  w.str("sintra/svc/reply");
  w.str(service_tag);
  w.u32(static_cast<std::uint32_t>(request.client));
  w.u64(request.request_id);
  auto req_digest = crypto::hash_domain("sintra/svc/req", request.body);
  w.raw(BytesView(req_digest.data(), req_digest.size()));
  auto reply_digest = crypto::hash_domain("sintra/svc/rep", reply);
  w.raw(BytesView(reply_digest.data(), reply_digest.size()));
  return w.take();
}

Bytes root_statement(const std::string& service_tag, std::uint32_t count,
                     const crypto::Digest& root) {
  Writer w;
  w.str("sintra/svc/root");
  w.str(service_tag);
  w.u32(count);
  w.raw(BytesView(root.data(), root.size()));
  return w.take();
}

Bytes SignedReply::encode() const {
  Writer w;
  w.u8(kReplyOk);
  w.u64(request_id);
  w.bytes(reply);
  w.u32(index);
  w.u32(count);
  w.vec(path, [](Writer& wr, const crypto::Digest& d) { wr.raw(BytesView(d.data(), d.size())); });
  w.vec(shares, [](Writer& wr, const crypto::SigShare& s) { s.encode(wr); });
  return w.take();
}

SignedReply SignedReply::decode(Reader& r) {
  SignedReply out;
  out.request_id = r.u64();
  out.reply = r.bytes();
  out.index = r.u32();
  out.count = r.u32();
  // A u32 leaf count allows at most 32 levels, so a longer claimed path
  // is refused before anything is allocated for it.
  const std::uint32_t depth = r.u32();
  SINTRA_REQUIRE(depth <= 32, "reply: path deeper than any tree");
  out.path.resize(depth);
  for (crypto::Digest& d : out.path) {
    const Bytes raw = r.raw(d.size());
    std::copy(raw.begin(), raw.end(), d.begin());
  }
  out.shares = r.vec<crypto::SigShare>([](Reader& rd) { return crypto::SigShare::decode(rd); });
  return out;
}

Replica::Replica(net::Party& host, std::string tag, Mode mode,
                 std::unique_ptr<StateMachine> state_machine)
    : ProtocolInstance(host, std::move(tag)), mode_(mode),
      state_machine_(std::move(state_machine)) {
  if (mode_ == Mode::kAtomic) {
    atomic_ = std::make_unique<protocols::AtomicBroadcast>(
        host_, tag_ + "/abc",
        [this](int, Bytes payload) { on_ordered_envelope(std::move(payload)); },
        [this] { sign_and_reply(round_answers_); });
  } else {
    causal_ = std::make_unique<protocols::SecureCausalBroadcast>(
        host_, tag_ + "/sc",
        [this](std::uint64_t, Bytes plaintext, Bytes) {
          on_ordered_envelope(std::move(plaintext));
        });
  }
}

void Replica::handle(int from, Reader& reader) {
  // A client request.  In atomic mode the payload is a plain envelope; in
  // causal mode it is a TDH2 ciphertext of one (so the envelope — client
  // identity included — stays confidential until ordering).
  if (mode_ == Mode::kAtomic) {
    Bytes envelope_bytes = reader.raw(reader.remaining());
    // Parse defensively so garbage is rejected before it is ordered.
    Reader probe(envelope_bytes);
    const RequestEnvelope envelope = RequestEnvelope::decode(probe);
    probe.expect_done();
    const RequestKey key{envelope.client, envelope.request_id};
    // Admission control, in order: (1) a cached reply answers duplicates
    // without re-execution or re-ordering (exactly-once); (2) an inflight
    // duplicate is already on its way through ordering — drop silently;
    // (3) a full queue sheds the request with an explicit Busy so the
    // client backs off instead of hammering the retry path.
    if (reply_cache_.contains(key)) {
      std::vector<Answer> alone{execute(envelope)};
      sign_and_reply(alone);
      return;
    }
    if (inflight_.contains(key)) return;
    const auto per_client = inflight_per_client_.find(envelope.client);
    if (inflight_.size() >= admission_.max_inflight ||
        (per_client != inflight_per_client_.end() &&
         per_client->second >= admission_.max_per_client)) {
      send_busy(envelope.client, envelope.request_id);
      return;
    }
    inflight_.insert(key);
    ++inflight_per_client_[envelope.client];
    atomic_->submit(std::move(envelope_bytes));
  } else {
    // Causal mode: the ciphertext hides the request key, so admission is
    // count-based and the Busy goes to the sending endpoint (request id 0:
    // the client treats it as a general backoff hint).
    if (causal_inflight_ >= admission_.max_inflight) {
      send_busy(from, 0);
      return;
    }
    const auto& pk = host_.public_keys().encryption;
    crypto::Tdh2Ciphertext ciphertext = crypto::Tdh2Ciphertext::decode(reader, pk.group());
    reader.expect_done();
    ++causal_inflight_;
    causal_->submit(ciphertext);
  }
}

void Replica::on_ordered_envelope(Bytes envelope_bytes) {
  if (mode_ == Mode::kCausal && causal_inflight_ > 0) --causal_inflight_;
  RequestEnvelope envelope;
  try {
    Reader reader(envelope_bytes);
    envelope = RequestEnvelope::decode(reader);
    reader.expect_done();
  } catch (const ProtocolError&) {
    return;  // ordered garbage (corrupted submitter): skip deterministically
  }
  // Ordering completed (whether we or a peer submitted it): the request is
  // no longer inflight here.
  const RequestKey key{envelope.client, envelope.request_id};
  if (inflight_.erase(key) > 0) {
    auto per_client = inflight_per_client_.find(envelope.client);
    if (per_client != inflight_per_client_.end() && --per_client->second == 0) {
      inflight_per_client_.erase(per_client);
    }
  }
  Answer answer = execute(envelope);
  if (mode_ == Mode::kCausal) {
    std::vector<Answer> alone{std::move(answer)};
    sign_and_reply(alone);
  } else if (atomic_->delivering_round()) {
    round_answers_.push_back(std::move(answer));  // signed at the round's end
  }
  // Otherwise a checkpoint re-delivery: executed for state, belongs to no
  // round, and is not answered.
}

void Replica::cache_reply(const RequestKey& key, Bytes reply) {
  reply_cache_.emplace(key, std::move(reply));
  reply_cache_fifo_.push_back(key);
  if (reply_cache_fifo_.size() > admission_.reply_cache_cap) {
    reply_cache_.erase(reply_cache_fifo_.front());
    reply_cache_fifo_.pop_front();
  }
}

Replica::Answer Replica::execute(const RequestEnvelope& envelope) {
  const RequestKey key{envelope.client, envelope.request_id};
  Bytes reply;
  if (auto it = reply_cache_.find(key); it != reply_cache_.end()) {
    reply = it->second;  // duplicate: at-most-once execution, re-reply
  } else {
    reply = state_machine_->execute(envelope.body);
    cache_reply(key, reply);
    ++executed_count_;
  }
  const crypto::Digest leaf = crypto::merkle::leaf(reply_statement(tag_, envelope, reply));
  return Answer{key, std::move(reply), leaf};
}

void Replica::sign_and_reply(std::vector<Answer>& answers) {
  if (answers.empty()) return;
  std::vector<crypto::Digest> leaves;
  leaves.reserve(answers.size());
  for (const Answer& answer : answers) leaves.push_back(answer.leaf);
  const crypto::merkle::Tree tree(std::move(leaves));
  SignedReply out;
  out.count = tree.count();
  out.shares = host_.keys().reply_sig.sign(host_.public_keys().reply_sig,
                                           root_statement(tag_, out.count, tree.root()),
                                           host_.rng());
  ++reply_signatures_;
  for (std::uint32_t i = 0; i < out.count; ++i) {
    Answer& answer = answers[i];
    out.request_id = answer.key.second;
    out.reply = std::move(answer.reply);
    out.index = i;
    out.path = tree.path(i);
    send_reply(answer.key.first, out.encode());
  }
  answers.clear();
}

void Replica::send_busy(int client, std::uint64_t request_id) {
  // Unsigned on purpose: Busy is an advisory liveness hint, and the
  // client's backoff reaction is capped, so a corrupted server gains
  // nothing beyond what dropping the request already achieves.
  ++busy_sent_;
  Writer w;
  w.u8(kReplyBusy);
  w.u64(request_id);
  w.u64(admission_.retry_after);
  send_reply(client, w.take());
}

void Replica::send_reply(int client, Bytes payload) {
  if (client < 0 || client >= host_.network().n() || client == me()) return;
  net::Message message;
  message.from = me();
  message.to = client;
  message.tag = tag_ + "/reply";
  message.payload = std::move(payload);
  host_.network().submit(std::move(message));
}

}  // namespace sintra::app
