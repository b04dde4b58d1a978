#include "app/client.hpp"

#include <algorithm>

#include "crypto/batch.hpp"
#include "crypto/sha256.hpp"

namespace sintra::app {

ServiceClient::ServiceClient(net::Network& network, int net_id,
                             adversary::Deployment deployment, std::string service_tag,
                             Replica::Mode mode, std::uint64_t seed, ReplyFn on_reply)
    : network_(network), net_id_(net_id), deployment_(std::move(deployment)),
      service_tag_(std::move(service_tag)), mode_(mode), rng_(seed),
      on_reply_(std::move(on_reply)) {
  SINTRA_REQUIRE(net_id >= deployment_.n(), "client: endpoint collides with a server");
}

ServiceClient::~ServiceClient() {
  for (auto& [id, pending] : pending_) {
    if (pending.retry_timer != 0) network_.cancel_timer(pending.retry_timer);
  }
}

void ServiceClient::enable_retry(std::uint64_t timeout, int max_retries) {
  SINTRA_REQUIRE(timeout > 0 && max_retries >= 1, "client: bad retry parameters");
  retry_timeout_ = timeout;
  max_retries_ = max_retries;
}

void ServiceClient::arm_retry(std::uint64_t request_id, Pending& pending) {
  if (retry_timeout_ == 0 || pending.attempts >= max_retries_) return;
  pending.retry_timer = network_.schedule_timer(net_id_, pending.next_delay, [this, request_id] {
    auto it = pending_.find(request_id);
    if (it == pending_.end()) return;  // answered in the meantime
    Pending& p = it->second;
    p.retry_timer = 0;
    ++p.attempts;
    p.busy_hops = 0;  // new lap: Busy replies may rotate the gateway again
    p.next_delay = std::min(p.next_delay * 2, retry_timeout_ * 16);
    const bool last = p.attempts >= max_retries_;
    if (gateway_ >= 0 && !last) {
      // The relay did not respond in time: abandon it for the next
      // replica and try again through that one.
      gateway_ = (gateway_ + 1) % deployment_.n();
      send_to_servers(p.wire_payload, /*broadcast_all=*/false);
    } else {
      send_to_servers(p.wire_payload, /*broadcast_all=*/true);
    }
    arm_retry(request_id, p);
  });
}

void ServiceClient::send_to_servers(const Bytes& payload, bool broadcast_all) {
  if (!broadcast_all && gateway_ >= 0) {
    net::Message message;
    message.from = net_id_;
    message.to = gateway_;
    message.tag = service_tag_;
    message.payload = payload;
    network_.submit(std::move(message));
    return;
  }
  for (int server = 0; server < deployment_.n(); ++server) {
    net::Message message;
    message.from = net_id_;
    message.to = server;
    message.tag = service_tag_;
    message.payload = payload;
    network_.submit(std::move(message));
  }
}

void ServiceClient::set_gateway(int server) {
  SINTRA_REQUIRE(server < deployment_.n(), "client: gateway out of range");
  gateway_ = server;
}

void ServiceClient::resend(std::uint64_t request_id) {
  auto pending = pending_.find(request_id);
  if (pending == pending_.end()) return;  // already answered
  send_to_servers(pending->second.wire_payload, /*broadcast_all=*/true);
}

std::uint64_t ServiceClient::request(Bytes body) {
  RequestEnvelope envelope;
  envelope.client = net_id_;
  envelope.request_id = next_request_id_++;
  envelope.body = std::move(body);

  Writer w;
  envelope.encode(w);
  Bytes envelope_bytes = w.take();

  Bytes payload;
  if (mode_ == Replica::Mode::kAtomic) {
    payload = std::move(envelope_bytes);
  } else {
    // Causal mode: the request leaves the client only in encrypted form.
    const auto& pk = deployment_.keys->public_keys().encryption;
    auto ciphertext = pk.encrypt(envelope_bytes, bytes_of(service_tag_), rng_);
    Writer cw;
    ciphertext.encode(cw, pk.group());
    payload = cw.take();
  }

  auto [it, inserted] = pending_.emplace(envelope.request_id, Pending{envelope, payload, {}});
  it->second.next_delay = retry_timeout_;
  arm_retry(envelope.request_id, it->second);
  send_to_servers(payload, /*broadcast_all=*/false);
  return envelope.request_id;
}

void ServiceClient::set_replicas(adversary::Deployment deployment) {
  SINTRA_REQUIRE(net_id_ >= deployment.n(), "client: endpoint collides with a server");
  deployment_ = std::move(deployment);
  gateway_ = -1;  // old relay index is meaningless in the new committee
  for (auto& [id, pending] : pending_) {
    send_to_servers(pending.wire_payload, /*broadcast_all=*/true);
  }
}

bool ServiceClient::apply_new_config(const protocols::NewConfig& config,
                                     std::string_view reconfig_tag) {
  try {
    if (config.plan.new_epoch <= config_epoch_) return false;  // stale or replayed
    const auto& old_public = deployment_.keys->public_keys();
    if (!config.verify(old_public.reply_sig, reconfig_tag, old_public.coin.group())) {
      return false;
    }
    adversary::Deployment next = protocols::reconfig_public_deployment(
        config, old_public.coin.group_ptr(), old_public);
    config_epoch_ = config.plan.new_epoch;
    set_replicas(std::move(next));
    return true;
  } catch (const ProtocolError&) {
    return false;  // malformed plan / geometry
  }
}

void ServiceClient::on_message(const net::Message& message) {
  if (message.tag == service_tag_ + "/newconfig") {
    // Signed NEW-CONFIG relay: authenticity comes from the threshold
    // signature inside, so the relaying replica needs no trust.
    try {
      Reader reader(message.payload);
      const std::string reconfig_tag = reader.str();
      const auto& group = deployment_.keys->public_keys().coin.group();
      const protocols::NewConfig config = protocols::NewConfig::decode(reader, group);
      reader.expect_done();
      apply_new_config(config, reconfig_tag);
    } catch (const ProtocolError&) {
      // Malformed announcement from a corrupted relay: ignore.
    }
    return;
  }
  if (message.tag != service_tag_ + "/reply") return;
  if (message.from < 0 || message.from >= deployment_.n()) return;
  try {
    Reader reader(message.payload);
    const std::uint8_t status = reader.u8();
    if (status == kReplyBusy) {
      // An overloaded (honest) server shed our request.  Honor its
      // retry-after as a backoff floor — capped, so a corrupted server
      // cannot stall us beyond the normal retry ceiling.  Request id 0
      // (causal mode: the server cannot attribute the ciphertext) backs
      // off every outstanding request.
      const std::uint64_t request_id = reader.u64();
      std::uint64_t retry_after = reader.u64();
      reader.expect_done();
      ++busy_replies_;
      if (retry_timeout_ != 0) {
        retry_after = std::min(retry_after, retry_timeout_ * 16);
        for (auto& [id, p] : pending_) {
          if (request_id == 0 || id == request_id) {
            p.next_delay = std::max(p.next_delay, retry_after);
          }
        }
      }
      // Busy from the relay we're pinned to: some *other* replica may be
      // idle right now, so rotate and resend immediately instead of
      // backing off against the overloaded one.  At most one full lap of
      // rotations per request between retry-timer fires — if every
      // replica is shedding, the timed backoff above takes over.
      if (gateway_ >= 0 && message.from == gateway_) {
        const int lap = deployment_.n() - 1;
        gateway_ = (gateway_ + 1) % deployment_.n();
        ++busy_rotations_;
        for (auto& [id, p] : pending_) {
          if ((request_id == 0 || id == request_id) && p.busy_hops < lap) {
            ++p.busy_hops;
            send_to_servers(p.wire_payload, /*broadcast_all=*/false);
          }
        }
      }
      return;
    }
    if (status != kReplyOk) return;  // unknown status from a corrupted server
    SignedReply signed_reply = SignedReply::decode(reader);
    reader.expect_done();
    on_signed_reply(message.from, std::move(signed_reply));
  } catch (const ProtocolError&) {
    // Malformed reply from a corrupted server: ignore.
  }
}

void ServiceClient::on_signed_reply(int from, SignedReply signed_reply) {
  auto pending = pending_.find(signed_reply.request_id);
  if (pending == pending_.end() || crypto::contains(pending->second.rejected, from)) return;
  // The root comes from our own leaf, never from the wire: a path that
  // does not lead from this request and this reply reaches no root any
  // honest replica signed.
  const std::optional<crypto::Digest> root = crypto::merkle::fold(
      crypto::merkle::leaf(reply_statement(service_tag_, pending->second.envelope,
                                           signed_reply.reply)),
      signed_reply.index, signed_reply.count, signed_reply.path);
  if (!root) return;
  Bytes statement = root_statement(service_tag_, signed_reply.count, *root);
  Receipt receipt{std::move(signed_reply.reply), {}, signed_reply.index, signed_reply.count,
                  std::move(signed_reply.path)};
  if (auto memo = certified_.find(statement); memo != certified_.end()) {
    receipt.signature = memo->second;
    complete(pending, std::move(receipt));
    return;
  }
  // Structural admission only: exactly the server's own units.  The
  // shares are checked through the one combined receipt signature.
  const auto& pk = deployment_.keys->public_keys().reply_sig;
  Vote& vote = pending->second.votes[statement];
  const bool first = vote.shares.support() == 0;
  if (!vote.shares.admit(pk.scheme(), from, std::move(signed_reply.shares),
                         "client: shares not the server's units")) {
    return;
  }
  if (first) vote.receipt = std::move(receipt);

  // Accept once the supporters are QUALIFIED under the reply-key sharing
  // scheme.  Qualified implies beyond one corruptible set (the access
  // structure under-approximates the complement of A — see DESIGN.md),
  // so at least one honest server signed this exact root, and the leaf
  // we folded from our own request is under it; and it is precisely the
  // condition for the signature shares to combine.  Note
  // exceeds_fault_set alone would NOT suffice for generalized deployments
  // like Example 2, where some incorruptible sets are still unqualified
  // for reconstruction.
  if (!pk.scheme().qualified(vote.shares.support())) return;
  auto combined =
      crypto::batch::combine_sig_optimistic(pk, statement, vote.shares.shares(), rng_);
  if (!combined.value.has_value()) {
    // A server whose share broke the combine loses its vote, and its
    // later replies to this request are ignored; wait for honest ones.
    const crypto::PartySet culprits = vote.shares.strike(pk.scheme(), combined.bad);
    pending->second.rejected |= culprits;
    fingered_ |= culprits;
    return;
  }
  certified_.emplace(statement, *combined.value);
  certified_fifo_.push_back(std::move(statement));
  if (certified_fifo_.size() > kCertifiedCap) {
    certified_.erase(certified_fifo_.front());
    certified_fifo_.pop_front();
  }
  receipt = std::move(vote.receipt);
  receipt.signature = std::move(*combined.value);
  complete(pending, std::move(receipt));
}

void ServiceClient::complete(std::map<std::uint64_t, Pending>::iterator pending,
                             Receipt receipt) {
  const std::uint64_t request_id = pending->first;
  if (pending->second.retry_timer != 0) network_.cancel_timer(pending->second.retry_timer);
  pending_.erase(pending);
  if (on_reply_) on_reply_(request_id, std::move(receipt));
}

bool ServiceClient::verify_receipt(std::uint64_t request_id, BytesView request_body,
                                   const Receipt& receipt) const {
  RequestEnvelope envelope;
  envelope.client = net_id_;
  envelope.request_id = request_id;
  envelope.body = Bytes(request_body.begin(), request_body.end());
  const std::optional<crypto::Digest> root =
      crypto::merkle::fold(crypto::merkle::leaf(reply_statement(service_tag_, envelope,
                                                                receipt.reply)),
                           receipt.index, receipt.count, receipt.path);
  return root.has_value() &&
         deployment_.keys->public_keys().reply_sig.verify(
             root_statement(service_tag_, receipt.count, *root), receipt.signature);
}

// --- ShardPartitioner ------------------------------------------------------

std::uint64_t ShardPartitioner::mix(std::uint64_t x) {
  // splitmix64 finalizer: full-avalanche, so per-shard scores for the same
  // key are statistically independent — the rendezvous requirement.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

void ShardPartitioner::add_shard(std::uint32_t shard) {
  auto it = std::lower_bound(shards_.begin(), shards_.end(), shard);
  if (it != shards_.end() && *it == shard) return;
  shards_.insert(it, shard);
}

void ShardPartitioner::remove_shard(std::uint32_t shard) {
  auto it = std::lower_bound(shards_.begin(), shards_.end(), shard);
  if (it != shards_.end() && *it == shard) shards_.erase(it);
}

std::uint32_t ShardPartitioner::shard_for(BytesView key) const {
  SINTRA_REQUIRE(!shards_.empty(), "partitioner: no shards registered");
  // FNV-1a over the key, then one rendezvous score per shard.
  std::uint64_t h = 0xcbf29ce484222325ull ^ seed_;
  for (const auto byte : key) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  std::uint32_t winner = shards_.front();
  std::uint64_t best = 0;
  bool first = true;
  for (const auto shard : shards_) {
    const std::uint64_t score = mix(h ^ (static_cast<std::uint64_t>(shard) + 1) * 0x9e3779b97f4a7c15ull);
    if (first || score > best) {
      first = false;
      best = score;
      winner = shard;
    }
  }
  return winner;
}

std::uint32_t ShardPartitioner::shard_for(std::string_view key) const {
  return shard_for(BytesView(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()));
}

// --- PartitionedClient -----------------------------------------------------

PartitionedClient::PartitionedClient(std::uint64_t seed, ReplyFn on_reply)
    : seed_(seed), on_reply_(std::move(on_reply)), partitioner_(seed) {}

ServiceClient& PartitionedClient::add_shard(std::uint32_t shard, net::Network& network,
                                            int net_id, adversary::Deployment deployment,
                                            std::string service_tag, Replica::Mode mode) {
  SINTRA_REQUIRE(!clients_.contains(shard), "partitioned client: duplicate shard");
  auto client = std::make_unique<ServiceClient>(
      network, net_id, std::move(deployment), std::move(service_tag), mode,
      seed_ ^ ((static_cast<std::uint64_t>(shard) + 1) * 0x9e3779b97f4a7c15ull),
      [this, shard](std::uint64_t request_id, ServiceClient::Receipt receipt) {
        ++completed_;
        if (on_reply_) on_reply_(shard, request_id, std::move(receipt));
      });
  auto& ref = *client;
  clients_.emplace(shard, std::move(client));
  partitioner_.add_shard(shard);
  return ref;
}

PartitionedClient::RequestHandle PartitionedClient::request(BytesView key, Bytes body) {
  const std::uint32_t shard = partitioner_.shard_for(key);
  auto it = clients_.find(shard);
  SINTRA_INVARIANT(it != clients_.end(), "partitioned client: partitioner chose unknown shard");
  ++routed_[shard];
  return RequestHandle{shard, it->second->request(std::move(body))};
}

PartitionedClient::RequestHandle PartitionedClient::request(std::string_view key, Bytes body) {
  return request(BytesView(reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
                 std::move(body));
}

ServiceClient& PartitionedClient::shard_client(std::uint32_t shard) {
  auto it = clients_.find(shard);
  SINTRA_REQUIRE(it != clients_.end(), "partitioned client: unknown shard");
  return *it->second;
}

std::size_t PartitionedClient::outstanding() const {
  std::size_t total = 0;
  for (const auto& [shard, client] : clients_) total += client->outstanding();
  return total;
}

}  // namespace sintra::app
