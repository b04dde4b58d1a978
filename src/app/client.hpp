// Client of a replicated trusted service (§5).
//
// The client knows only the service's single public keys (reply signature
// verification key, encryption key) — not those of individual servers;
// this is the client-transparency property the paper inherits from
// Reiter–Birman.  It sends its request to all servers (the paper requires
// "more than t", i.e. enough that corrupted servers cannot ignore it),
// collects replies, and accepts a reply content once servers beyond one
// corruptible set vouch for it — at that point at least one voucher is
// honest, and honest replicas all return the same answer.
//
// Replicas sign rounds, not replies (app/replica.hpp): each reply carries
// its index and inclusion path in the round's reply tree, and the
// sender's shares on that tree's root statement.  The client computes its
// own leaf from its id, the request id, its body and the reply, folds the
// path to a root — it never takes a root from the wire — and votes by
// root statement.  A qualified set of matching shares recombines into one
// standard RSA signature on the root statement; that signature plus the
// path is the client's transferable receipt.  Certified roots are
// memoized: a later reply whose path folds to one completes at once,
// because the signature already certifies every leaf under that root.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "app/replica.hpp"
#include "protocols/reconfig.hpp"

namespace sintra::app {

class ServiceClient final : public net::Process {
 public:
  struct Receipt {
    Bytes reply;
    crypto::BigInt signature;  ///< service threshold signature on the root statement
    std::uint32_t index = 0;   ///< the reply's leaf in its round's reply tree
    std::uint32_t count = 0;   ///< leaves in that tree
    std::vector<crypto::Digest> path;  ///< inclusion path (crypto/merkle.hpp)
  };
  using ReplyFn = std::function<void(std::uint64_t request_id, Receipt receipt)>;

  /// `net_id` is this client's network endpoint (>= number of servers).
  /// Runs on any Network substrate (simulator or real transport).
  ServiceClient(net::Network& network, int net_id, adversary::Deployment deployment,
                std::string service_tag, Replica::Mode mode, std::uint64_t seed,
                ReplyFn on_reply);
  ~ServiceClient() override;

  /// Issue a request; returns its id.  In causal mode the envelope is
  /// TDH2-encrypted before it leaves the client.
  std::uint64_t request(Bytes body);

  /// Gateway mode (§5): route requests through a single relay server
  /// instead of all of them.  If the gateway is corrupted and swallows the
  /// request, the client falls back by calling resend() "if it receives no
  /// answer within the expected time" — the timeout lives in the
  /// application, not the protocol.  Pass -1 to return to broadcast mode.
  void set_gateway(int server);

  /// Re-send an outstanding request to ALL servers (the gateway-failure
  /// fallback).  No-op if the request already completed.
  void resend(std::uint64_t request_id);

  /// Automatic retry on Network timers: a request with no accepted reply
  /// after `timeout` network time units is re-driven.  While a gateway is
  /// configured, each retry first rotates to the next replica (a
  /// non-responding relay is abandoned in favour of the remaining ones);
  /// the final attempt — and every retry in broadcast mode — goes to all
  /// servers.  The timeout doubles per attempt (capped at 16x), at most
  /// `max_retries` retries per request.
  void enable_retry(std::uint64_t timeout, int max_retries = 4);

  void on_message(const net::Message& message) override;

  // --- membership reconfiguration (protocols/reconfig.hpp) -------------
  /// Replace the replica set outright (trusted path: a harness that
  /// already verified the new committee).  Outstanding requests are
  /// re-broadcast to the new committee — replicas dedup by request id, so
  /// double delivery is harmless.  The gateway resets to broadcast mode:
  /// its old index may not exist (or mean someone else) after the swap.
  void set_replicas(adversary::Deployment deployment);

  /// Verify a signed NEW-CONFIG announcement against the CURRENT reply
  /// key and, if authentic and newer than what we follow, rebuild the
  /// replica set and all service public keys from it.  `reconfig_tag` is
  /// the reconfiguration instance tag the announcement's signature is
  /// bound to.  Returns false (no state change) for invalid signatures,
  /// stale epochs, or malformed plans.  A replica relays the announcement
  /// on tag "<service>/newconfig" with payload [str reconfig_tag]
  /// [NewConfig] — on_message feeds it here, so any single honest (or
  /// even corrupted-but-forwarding) replica suffices: authenticity comes
  /// from the threshold signature, not the messenger.
  bool apply_new_config(const protocols::NewConfig& config, std::string_view reconfig_tag);

  /// Epoch of the committee this client currently follows.
  [[nodiscard]] std::uint32_t config_epoch() const { return config_epoch_; }

  /// Verify a receipt independently (what a third party would do).
  [[nodiscard]] bool verify_receipt(std::uint64_t request_id, BytesView request_body,
                                    const Receipt& receipt) const;

  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }
  /// Servers whose reply shares broke a receipt combine, across all
  /// requests (each is struck only for the request it broke).
  [[nodiscard]] crypto::PartySet fingered() const { return fingered_; }
  /// Busy replies received (load-shedding servers observed).
  [[nodiscard]] std::uint64_t busy_replies() const { return busy_replies_; }
  /// Gateway rotations triggered by Busy replies (not by retry timeouts).
  [[nodiscard]] std::uint64_t busy_rotations() const { return busy_rotations_; }
  /// Current relay replica (-1 = broadcast mode).
  [[nodiscard]] int gateway() const { return gateway_; }

 private:
  /// Replies whose paths fold to one root statement.
  struct Vote {
    crypto::ShareTally<crypto::SigShare> shares;
    Receipt receipt;  ///< first voter's reply and path; signature unset
  };
  struct Pending {
    RequestEnvelope envelope;
    Bytes wire_payload;  ///< what was sent (for resend)
    std::map<Bytes, Vote> votes;  ///< root statement -> vote
    crypto::PartySet rejected = 0;  ///< servers whose reply share broke a combine
    net::Network::TimerId retry_timer = 0;  ///< 0 = not armed
    int attempts = 0;                       ///< retries fired so far
    std::uint64_t next_delay = 0;           ///< backoff for the next retry
    int busy_hops = 0;  ///< Busy-triggered rotations this lap (reset on retry)
  };

  /// Certified root statements kept for memo hits (FIFO-bounded).
  static constexpr std::size_t kCertifiedCap = 64;

  void send_to_servers(const Bytes& payload, bool broadcast_all);
  void arm_retry(std::uint64_t request_id, Pending& pending);
  void on_signed_reply(int from, SignedReply signed_reply);
  void complete(std::map<std::uint64_t, Pending>::iterator pending, Receipt receipt);

  net::Network& network_;
  int net_id_;
  adversary::Deployment deployment_;
  std::string service_tag_;
  Replica::Mode mode_;
  Rng rng_;
  ReplyFn on_reply_;
  int gateway_ = -1;  ///< -1 = broadcast to all servers
  std::uint64_t retry_timeout_ = 0;  ///< 0 = automatic retry disabled
  int max_retries_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t busy_replies_ = 0;
  std::uint64_t busy_rotations_ = 0;
  std::uint32_t config_epoch_ = 0;  ///< epoch of the committee we follow
  std::map<std::uint64_t, Pending> pending_;
  crypto::PartySet fingered_ = 0;
  std::map<Bytes, crypto::BigInt> certified_;  ///< root statement -> signature
  std::deque<Bytes> certified_fifo_;           ///< eviction order
};

/// Rendezvous (highest-random-weight) mapping from request keys to shard
/// ids.  Every key scores every shard with an independent pseudo-random
/// weight and goes to the highest scorer, so removing a shard remaps ONLY
/// the keys that lived on it — the other shards' keys keep their winner.
/// That is the property a sharded service needs: resizing the fleet must
/// not reshuffle traffic that never touched the departed group.
class ShardPartitioner {
 public:
  explicit ShardPartitioner(std::uint64_t seed = 0) : seed_(seed) {}

  /// Add a shard id to the candidate set (idempotent).
  void add_shard(std::uint32_t shard);
  /// Remove a shard id; keys it owned remap among the survivors.
  void remove_shard(std::uint32_t shard);

  /// Deterministic owner of `key`.  Requires at least one shard.
  [[nodiscard]] std::uint32_t shard_for(BytesView key) const;
  [[nodiscard]] std::uint32_t shard_for(std::string_view key) const;

  [[nodiscard]] const std::vector<std::uint32_t>& shards() const { return shards_; }

 private:
  static std::uint64_t mix(std::uint64_t x);

  std::uint64_t seed_;
  std::vector<std::uint32_t> shards_;  ///< sorted, unique
};

/// Client-side fan-out across S independent SINTRA groups (shards).  Each
/// shard is a full replicated service with its own keys and committee; the
/// partitioner consistent-hashes request keys onto shards, and every reply
/// funnels through one aggregate callback so the application sees a single
/// logical service.  One ServiceClient per shard keeps per-shard protocol
/// state (retries, gateways, reconfiguration) fully independent — a slow
/// or reconfiguring shard never stalls requests routed elsewhere.
class PartitionedClient {
 public:
  /// Aggregate reply callback: which shard answered, the per-shard request
  /// id, and the combined-signature receipt.
  using ReplyFn =
      std::function<void(std::uint32_t shard, std::uint64_t request_id, ServiceClient::Receipt)>;

  struct RequestHandle {
    std::uint32_t shard = 0;        ///< group the key hashed to
    std::uint64_t request_id = 0;   ///< id within that shard's client
  };

  explicit PartitionedClient(std::uint64_t seed, ReplyFn on_reply);

  /// Register a shard: group id, the Network endpoint carrying that
  /// group's traffic (e.g. a NetworkedNode GroupEndpoint or a simulator),
  /// and the shard's own committee/keys.  Shard ids must be unique.
  ServiceClient& add_shard(std::uint32_t shard, net::Network& network, int net_id,
                           adversary::Deployment deployment, std::string service_tag,
                           Replica::Mode mode);

  /// Route `body` by `key`: consistent-hash to a shard, submit through
  /// that shard's client.
  RequestHandle request(BytesView key, Bytes body);
  RequestHandle request(std::string_view key, Bytes body);

  /// Per-shard client access (retry/gateway tuning, receipt verification).
  [[nodiscard]] ServiceClient& shard_client(std::uint32_t shard);
  [[nodiscard]] const ShardPartitioner& partitioner() const { return partitioner_; }

  /// Requests routed to each shard so far.
  [[nodiscard]] const std::map<std::uint32_t, std::uint64_t>& routed() const { return routed_; }
  /// Receipts delivered across all shards.
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  /// Requests still awaiting a qualified reply, summed over shards.
  [[nodiscard]] std::size_t outstanding() const;

 private:
  std::uint64_t seed_;
  ReplyFn on_reply_;
  ShardPartitioner partitioner_;
  std::map<std::uint32_t, std::unique_ptr<ServiceClient>> clients_;
  std::map<std::uint32_t, std::uint64_t> routed_;
  std::uint64_t completed_ = 0;
};

}  // namespace sintra::app
