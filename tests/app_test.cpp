// Application-layer tests: state machines (CA, directory, notary), the
// replica + client end-to-end path with threshold-signed receipts, and
// Byzantine-replica tolerance.
#include <gtest/gtest.h>

#include "app/ca.hpp"
#include "app/client.hpp"
#include "app/directory.hpp"
#include "app/notary.hpp"
#include "crypto/merkle.hpp"
#include "protocols/harness.hpp"

namespace sintra::app {
namespace {

// ---- state machines in isolation -------------------------------------------

TEST(CaStateMachineTest, IssueQueryLifecycle) {
  CertificationAuthority ca;
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "alice";
  issue.public_key = bytes_of("alice-pk");
  issue.credentials = "credential:alice";
  auto response = CaResponse::decode(ca.execute(issue.encode()));
  EXPECT_EQ(response.status, CaResponse::Status::kOk);
  EXPECT_EQ(response.serial, 1u);
  EXPECT_EQ(response.subject, "alice");

  CaRequest query;
  query.op = CaRequest::Op::kQuery;
  query.subject = "alice";
  auto lookup = CaResponse::decode(ca.execute(query.encode()));
  EXPECT_EQ(lookup.status, CaResponse::Status::kOk);
  EXPECT_EQ(lookup.public_key, bytes_of("alice-pk"));
}

TEST(CaStateMachineTest, BadCredentialsDenied) {
  CertificationAuthority ca;
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "mallory";
  issue.credentials = "credential:alice";  // stolen credential
  auto response = CaResponse::decode(ca.execute(issue.encode()));
  EXPECT_EQ(response.status, CaResponse::Status::kDenied);
  EXPECT_TRUE(ca.issued().empty());
}

TEST(CaStateMachineTest, ReissueIsIdempotent) {
  CertificationAuthority ca;
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "bob";
  issue.public_key = bytes_of("pk1");
  issue.credentials = "credential:bob";
  auto first = CaResponse::decode(ca.execute(issue.encode()));
  issue.public_key = bytes_of("pk2");  // attempt to overwrite
  auto second = CaResponse::decode(ca.execute(issue.encode()));
  EXPECT_EQ(first.serial, second.serial);
  EXPECT_EQ(second.public_key, bytes_of("pk1"));  // original binding kept
}

TEST(CaStateMachineTest, PolicyUpdateVisibleInLaterIssues) {
  CertificationAuthority ca;
  CaRequest set_policy;
  set_policy.op = CaRequest::Op::kSetPolicy;
  set_policy.policy = "v2-strict";
  ca.execute(set_policy.encode());
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "carol";
  issue.credentials = "credential:carol";
  auto response = CaResponse::decode(ca.execute(issue.encode()));
  EXPECT_EQ(response.policy_at_issue, "v2-strict");
}

TEST(CaStateMachineTest, UnknownQueryNotFound) {
  CertificationAuthority ca;
  CaRequest query;
  query.op = CaRequest::Op::kQuery;
  query.subject = "nobody";
  EXPECT_EQ(CaResponse::decode(ca.execute(query.encode())).status,
            CaResponse::Status::kNotFound);
}

TEST(CaStateMachineTest, GarbageRequestDenied) {
  CertificationAuthority ca;
  auto response = CaResponse::decode(ca.execute(bytes_of("not a request")));
  EXPECT_EQ(response.status, CaResponse::Status::kDenied);
}

TEST(DirectoryStateMachineTest, BindLookupUnbind) {
  SecureDirectory dir;
  DirRequest bind;
  bind.op = DirRequest::Op::kBind;
  bind.key = "www.example.com";
  bind.value = bytes_of("10.1.2.3");
  auto r1 = DirResponse::decode(dir.execute(bind.encode()));
  EXPECT_EQ(r1.status, DirResponse::Status::kOk);
  EXPECT_EQ(r1.version, 1u);

  DirRequest lookup;
  lookup.op = DirRequest::Op::kLookup;
  lookup.key = "www.example.com";
  auto r2 = DirResponse::decode(dir.execute(lookup.encode()));
  EXPECT_EQ(r2.value, bytes_of("10.1.2.3"));

  bind.value = bytes_of("10.9.9.9");
  auto r3 = DirResponse::decode(dir.execute(bind.encode()));
  EXPECT_EQ(r3.version, 2u);  // version fences the update

  DirRequest unbind;
  unbind.op = DirRequest::Op::kUnbind;
  unbind.key = "www.example.com";
  EXPECT_EQ(DirResponse::decode(dir.execute(unbind.encode())).status,
            DirResponse::Status::kOk);
  EXPECT_EQ(DirResponse::decode(dir.execute(lookup.encode())).status,
            DirResponse::Status::kNotFound);
}

TEST(DirectoryStateMachineTest, MissingKeyNotFound) {
  SecureDirectory dir;
  DirRequest lookup;
  lookup.op = DirRequest::Op::kLookup;
  lookup.key = "missing";
  EXPECT_EQ(DirResponse::decode(dir.execute(lookup.encode())).status,
            DirResponse::Status::kNotFound);
  DirRequest unbind;
  unbind.op = DirRequest::Op::kUnbind;
  unbind.key = "missing";
  EXPECT_EQ(DirResponse::decode(dir.execute(unbind.encode())).status,
            DirResponse::Status::kNotFound);
}

TEST(NotaryStateMachineTest, SequentialRegistration) {
  Notary notary;
  NotaryRequest r1;
  r1.op = NotaryRequest::Op::kRegister;
  r1.document = bytes_of("doc-A");
  auto a = NotaryResponse::decode(notary.execute(r1.encode()));
  EXPECT_EQ(a.status, NotaryResponse::Status::kRegistered);
  EXPECT_EQ(a.sequence, 1u);

  NotaryRequest r2;
  r2.op = NotaryRequest::Op::kRegister;
  r2.document = bytes_of("doc-B");
  EXPECT_EQ(NotaryResponse::decode(notary.execute(r2.encode())).sequence, 2u);

  // Re-registration returns the ORIGINAL sequence (first-to-file wins).
  auto again = NotaryResponse::decode(notary.execute(r1.encode()));
  EXPECT_EQ(again.status, NotaryResponse::Status::kAlreadyRegistered);
  EXPECT_EQ(again.sequence, 1u);
}

TEST(NotaryStateMachineTest, VerifyLookups) {
  Notary notary;
  NotaryRequest reg;
  reg.op = NotaryRequest::Op::kRegister;
  reg.document = bytes_of("deed");
  notary.execute(reg.encode());
  NotaryRequest verify;
  verify.op = NotaryRequest::Op::kVerify;
  verify.document = bytes_of("deed");
  EXPECT_EQ(NotaryResponse::decode(notary.execute(verify.encode())).sequence, 1u);
  verify.document = bytes_of("unknown");
  EXPECT_EQ(NotaryResponse::decode(notary.execute(verify.encode())).status,
            NotaryResponse::Status::kUnknown);
}

// ---- end-to-end: replica + client -------------------------------------------

struct SvcState {
  std::unique_ptr<Replica> replica;
};

struct E2e {
  E2e(Replica::Mode mode, std::function<std::unique_ptr<StateMachine>()> make_sm,
      crypto::PartySet corrupted = 0, std::uint64_t seed = 1)
      : rng(seed),
        deployment(adversary::Deployment::threshold(4, 1, rng)),
        sched(seed * 101),
        cluster(
            deployment, sched,
            [&](net::Party& party, int) {
              auto state = std::make_unique<SvcState>();
              state->replica = std::make_unique<Replica>(party, "svc", mode, make_sm());
              return state;
            },
            corrupted, /*extra_endpoints=*/1, seed) {
    auto client_ptr = std::make_unique<ServiceClient>(
        cluster.simulator(), /*net_id=*/4, deployment, "svc", mode, seed + 7,
        [this](std::uint64_t id, ServiceClient::Receipt receipt) {
          replies.emplace(id, std::move(receipt));
        });
    client = client_ptr.get();
    cluster.attach_client(4, std::move(client_ptr));
    cluster.start();
  }

  bool run_until_replies(std::size_t count, std::uint64_t max_steps = 10000000) {
    return cluster.simulator().run_until([&] { return replies.size() >= count; }, max_steps);
  }

  Rng rng;
  adversary::Deployment deployment;
  net::RandomScheduler sched;
  protocols::Cluster<SvcState> cluster;
  ServiceClient* client = nullptr;
  std::map<std::uint64_t, ServiceClient::Receipt> replies;
};

TEST(EndToEndTest, CaIssueWithReceipt) {
  E2e e2e(Replica::Mode::kAtomic, [] { return std::make_unique<CertificationAuthority>(); });
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "alice";
  issue.public_key = bytes_of("alice-pk");
  issue.credentials = "credential:alice";
  Bytes body = issue.encode();
  std::uint64_t id = e2e.client->request(Bytes(body));
  ASSERT_TRUE(e2e.run_until_replies(1));
  const auto& receipt = e2e.replies.at(id);
  auto response = CaResponse::decode(receipt.reply);
  EXPECT_EQ(response.status, CaResponse::Status::kOk);
  EXPECT_EQ(response.serial, 1u);
  // The receipt verifies under the single service public key — this IS the
  // certificate.
  EXPECT_TRUE(e2e.client->verify_receipt(id, body, receipt));
  // And fails for a different request body.
  EXPECT_FALSE(e2e.client->verify_receipt(id, bytes_of("other"), receipt));
}

TEST(EndToEndTest, DirectoryBindThenLookup) {
  E2e e2e(Replica::Mode::kAtomic, [] { return std::make_unique<SecureDirectory>(); });
  DirRequest bind;
  bind.op = DirRequest::Op::kBind;
  bind.key = "host";
  bind.value = bytes_of("addr");
  e2e.client->request(bind.encode());
  ASSERT_TRUE(e2e.run_until_replies(1));
  DirRequest lookup;
  lookup.op = DirRequest::Op::kLookup;
  lookup.key = "host";
  std::uint64_t id = e2e.client->request(lookup.encode());
  ASSERT_TRUE(e2e.run_until_replies(2));
  auto response = DirResponse::decode(e2e.replies.at(id).reply);
  EXPECT_EQ(response.status, DirResponse::Status::kOk);
  EXPECT_EQ(response.value, bytes_of("addr"));
}

TEST(EndToEndTest, NotaryOverSecureCausalBroadcast) {
  E2e e2e(Replica::Mode::kCausal, [] { return std::make_unique<Notary>(); });
  NotaryRequest reg;
  reg.op = NotaryRequest::Op::kRegister;
  reg.document = bytes_of("my invention");
  std::uint64_t id = e2e.client->request(reg.encode());
  ASSERT_TRUE(e2e.run_until_replies(1));
  auto response = NotaryResponse::decode(e2e.replies.at(id).reply);
  EXPECT_EQ(response.status, NotaryResponse::Status::kRegistered);
  EXPECT_EQ(response.sequence, 1u);
}

TEST(EndToEndTest, ServiceSurvivesCrashedReplica) {
  E2e e2e(Replica::Mode::kAtomic, [] { return std::make_unique<CertificationAuthority>(); },
          crypto::party_bit(2), 5);
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "dave";
  issue.credentials = "credential:dave";
  std::uint64_t id = e2e.client->request(issue.encode());
  ASSERT_TRUE(e2e.run_until_replies(1));
  EXPECT_EQ(CaResponse::decode(e2e.replies.at(id).reply).status, CaResponse::Status::kOk);
}

TEST(EndToEndTest, RepliesAreConsistentAcrossSequentialRequests) {
  E2e e2e(Replica::Mode::kAtomic, [] { return std::make_unique<CertificationAuthority>(); });
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    CaRequest issue;
    issue.op = CaRequest::Op::kIssue;
    issue.subject = "user" + std::to_string(i);
    issue.credentials = "credential:user" + std::to_string(i);
    ids.push_back(e2e.client->request(issue.encode()));
  }
  ASSERT_TRUE(e2e.run_until_replies(3));
  // Serial numbers are distinct (the replicas executed in one agreed order).
  std::set<std::uint64_t> serials;
  for (std::uint64_t id : ids) {
    serials.insert(CaResponse::decode(e2e.replies.at(id).reply).serial);
  }
  EXPECT_EQ(serials.size(), 3u);
}

/// Byzantine replica that answers every client request with a forged reply.
class LyingReplica final : public net::Process {
 public:
  LyingReplica(net::Simulator& sim, int id) : sim_(sim), id_(id) {}
  void on_message(const net::Message& message) override {
    if (message.tag != "svc") return;
    // Forge: reply "status denied" as a one-leaf round, whose path folds
    // for the client, but with zero signature shares.
    try {
      Reader r(message.payload);
      RequestEnvelope envelope = RequestEnvelope::decode(r);
      CaResponse forged;
      forged.status = CaResponse::Status::kDenied;
      SignedReply lie;
      lie.request_id = envelope.request_id;
      lie.reply = forged.encode();
      lie.count = 1;
      sim_.submit(net::Message{id_, envelope.client, "svc/reply", lie.encode()});
    } catch (const ProtocolError&) {
    }
  }

 private:
  net::Simulator& sim_;
  int id_;
};

TEST(EndToEndTest, ForgedRepliesRejectedFullRun) {
  // One replica lies to the client; the client's fault-set-exceeding
  // matching rule means the accepted answer always comes from the honest
  // majority, and its combined signature verifies.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(11);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(
            party, "svc", Replica::Mode::kAtomic,
            std::make_unique<CertificationAuthority>());
        return state;
      },
      0, /*extra_endpoints=*/1, 11);
  cluster.attach_custom(3, std::make_unique<LyingReplica>(cluster.simulator(), 3));
  std::map<std::uint64_t, ServiceClient::Receipt> replies;
  auto client_ptr = std::make_unique<ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", Replica::Mode::kAtomic, 17,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  ServiceClient* client = client_ptr.get();
  cluster.attach_client(4, std::move(client_ptr));
  cluster.start();

  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "eve-target";
  issue.credentials = "credential:eve-target";
  Bytes body = issue.encode();
  std::uint64_t id = client->request(Bytes(body));
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.contains(id); }, 10000000));
  // The honest answer (kOk) won, not the forged denial.
  EXPECT_EQ(CaResponse::decode(replies.at(id).reply).status, CaResponse::Status::kOk);
  EXPECT_TRUE(client->verify_receipt(id, body, replies.at(id)));
}

TEST(EndToEndTest, GatewayModeWithCorruptGatewayAndResend) {
  // §5: "one could postulate that one server acts as a gateway to relay
  // the request to all servers and leave it to the client to resend its
  // message if it receives no answer within the expected time."  The
  // gateway here is crashed; the application timeout fires resend().
  Rng rng(41);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(41);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(
            party, "svc", Replica::Mode::kAtomic,
            std::make_unique<CertificationAuthority>());
        return state;
      },
      /*corrupted=*/crypto::party_bit(3), /*extra_endpoints=*/1, 41);
  std::map<std::uint64_t, ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", Replica::Mode::kAtomic, 43,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  ServiceClient* client = client_owner.get();
  cluster.attach_client(4, std::move(client_owner));
  cluster.start();

  client->set_gateway(3);  // the crashed server
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "gw";
  issue.credentials = "credential:gw";
  std::uint64_t id = client->request(issue.encode());
  cluster.simulator().run(200000);
  EXPECT_TRUE(replies.empty());  // gateway swallowed the request
  // Application timeout: fall back to broadcasting to everyone.
  client->resend(id);
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.contains(id); }, 10000000));
  EXPECT_EQ(CaResponse::decode(replies.at(id).reply).status, CaResponse::Status::kOk);
}

TEST(EndToEndTest, AutomaticRetryAbandonsCrashedGateway) {
  // The timer-driven version of the resend() fallback: nobody watches the
  // clock by hand.  The gateway replica is crashed; the client's retry
  // timer fires (simulator: on network quiescence; deployment: wall
  // clock), rotates to the next replica, and the request completes with
  // no manual intervention — the non-responding-replica failover of §5.
  Rng rng(53);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(53);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(
            party, "svc", Replica::Mode::kAtomic,
            std::make_unique<CertificationAuthority>());
        return state;
      },
      /*corrupted=*/crypto::party_bit(3), /*extra_endpoints=*/1, 53);
  std::map<std::uint64_t, ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", Replica::Mode::kAtomic, 59,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  ServiceClient* client = client_owner.get();
  cluster.attach_client(4, std::move(client_owner));
  cluster.start();

  client->enable_retry(/*timeout=*/200);
  client->set_gateway(3);  // the crashed server swallows the request
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "auto-retry";
  issue.credentials = "credential:auto-retry";
  Bytes body = issue.encode();
  std::uint64_t id = client->request(Bytes(body));
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.contains(id); }, 10000000));
  EXPECT_EQ(CaResponse::decode(replies.at(id).reply).status, CaResponse::Status::kOk);
  EXPECT_TRUE(client->verify_receipt(id, body, replies.at(id)));
  EXPECT_EQ(client->outstanding(), 0u);  // completion cancelled the timer
}

TEST(EndToEndTest, AutomaticRetryInBroadcastModeResendsToAll) {
  // Broadcast mode with automatic retry enabled and a crashed replica:
  // the service answers on first delivery, and the retry machinery must
  // not duplicate the state change (requests are idempotent by id).
  Rng rng(61);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(61);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(
            party, "svc", Replica::Mode::kAtomic,
            std::make_unique<CertificationAuthority>());
        return state;
      },
      /*corrupted=*/crypto::party_bit(2), /*extra_endpoints=*/1, 61);
  std::map<std::uint64_t, ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", Replica::Mode::kAtomic, 67,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  ServiceClient* client = client_owner.get();
  cluster.attach_client(4, std::move(client_owner));
  cluster.start();

  client->enable_retry(/*timeout=*/200);
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "bcast-retry";
  issue.credentials = "credential:bcast-retry";
  std::uint64_t id = client->request(issue.encode());
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.contains(id); }, 10000000));
  auto response = CaResponse::decode(replies.at(id).reply);
  EXPECT_EQ(response.status, CaResponse::Status::kOk);
  EXPECT_EQ(response.serial, 1u);  // exactly one issuance despite any retries
}

TEST(EndToEndTest, GatewayModeWithHonestGateway) {
  Rng rng(47);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(47);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(
            party, "svc", Replica::Mode::kAtomic,
            std::make_unique<CertificationAuthority>());
        return state;
      },
      0, /*extra_endpoints=*/1, 47);
  std::map<std::uint64_t, ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", Replica::Mode::kAtomic, 49,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  ServiceClient* client = client_owner.get();
  cluster.attach_client(4, std::move(client_owner));
  cluster.start();

  client->set_gateway(1);
  CaRequest issue;
  issue.op = CaRequest::Op::kIssue;
  issue.subject = "gw2";
  issue.credentials = "credential:gw2";
  Bytes body = issue.encode();
  std::uint64_t id = client->request(Bytes(body));
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.contains(id); }, 10000000));
  EXPECT_TRUE(client->verify_receipt(id, body, replies.at(id)));
}

// ---- one reply-key signature per round ---------------------------------------

/// Client endpoint that records every reply before its client sees it.
class ReplyTap final : public net::Process {
 public:
  explicit ReplyTap(std::unique_ptr<ServiceClient> client) : client_(std::move(client)) {}
  void on_message(const net::Message& message) override {
    seen.push_back(message);
    client_->on_message(message);
  }
  [[nodiscard]] ServiceClient& client() { return *client_; }

  std::vector<net::Message> seen;

 private:
  std::unique_ptr<ServiceClient> client_;
};

/// A tapped reply and the root statement its path folds to for the
/// client's own request.
struct TappedReply {
  int from = -1;
  SignedReply reply;
  Bytes statement;
};

std::vector<TappedReply> fold_tapped(const std::vector<net::Message>& seen,
                                     const std::map<std::uint64_t, Bytes>& bodies) {
  std::vector<TappedReply> out;
  for (const net::Message& message : seen) {
    Reader r(message.payload);
    if (r.u8() != kReplyOk) continue;
    TappedReply tapped;
    tapped.from = message.from;
    tapped.reply = SignedReply::decode(r);
    RequestEnvelope envelope;
    envelope.client = message.to;
    envelope.request_id = tapped.reply.request_id;
    envelope.body = bodies.at(envelope.request_id);
    const auto root = crypto::merkle::fold(
        crypto::merkle::leaf(reply_statement("svc", envelope, tapped.reply.reply)),
        tapped.reply.index, tapped.reply.count, tapped.reply.path);
    if (!root) ADD_FAILURE() << "reply from " << message.from << " does not fold";
    if (root) tapped.statement = root_statement("svc", tapped.reply.count, *root);
    out.push_back(std::move(tapped));
  }
  return out;
}

Bytes encode_shares(const std::vector<crypto::SigShare>& shares) {
  Writer w;
  w.vec(shares, [](Writer& wr, const crypto::SigShare& s) { s.encode(wr); });
  return w.take();
}

Bytes bind_body(int i) {
  DirRequest bind;
  bind.op = DirRequest::Op::kBind;
  bind.key = "host" + std::to_string(i);
  bind.value = bytes_of("10.0.0." + std::to_string(i));
  return bind.encode();
}

TEST(RoundSigningTest, EveryReplyOfARoundCarriesTheSameShares) {
  // Twelve requests at once: rounds order several of them, and each
  // replica signs each round's root once.  Every reply one replica sends
  // for one round carries byte-identical shares, and a replica's distinct
  // roots are exactly its reply-key signatures.
  Rng rng(5);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(5);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(party, "svc", Replica::Mode::kAtomic,
                                                   std::make_unique<SecureDirectory>());
        return state;
      },
      0, /*extra_endpoints=*/1, 5);
  std::map<std::uint64_t, ServiceClient::Receipt> receipts;
  auto tap_owner = std::make_unique<ReplyTap>(std::make_unique<ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", Replica::Mode::kAtomic, 9,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        receipts.emplace(id, std::move(receipt));
      }));
  ReplyTap* tap = tap_owner.get();
  cluster.attach_client(4, std::move(tap_owner));
  cluster.start();

  std::map<std::uint64_t, Bytes> bodies;
  for (int i = 0; i < 12; ++i) {
    const Bytes body = bind_body(i);
    bodies.emplace(tap->client().request(Bytes(body)), body);
  }
  ASSERT_TRUE(cluster.simulator().run_until([&] { return receipts.size() == 12; }, 20000000));
  cluster.simulator().run(2000000);  // drain the slower replicas' replies
  for (const auto& [id, receipt] : receipts) {
    EXPECT_TRUE(tap->client().verify_receipt(id, bodies.at(id), receipt));
  }

  std::map<std::pair<int, Bytes>, std::vector<Bytes>> by_round;  // (server, root) -> shares
  for (const TappedReply& tapped : fold_tapped(tap->seen, bodies)) {
    by_round[{tapped.from, tapped.statement}].push_back(encode_shares(tapped.reply.shares));
  }
  std::size_t widest = 0;
  std::map<int, std::uint64_t> roots_per_server;
  for (const auto& [key, shares] : by_round) {
    widest = std::max(widest, shares.size());
    ++roots_per_server[key.first];
    for (const Bytes& s : shares) EXPECT_EQ(s, shares.front()) << "server " << key.first;
  }
  EXPECT_GE(widest, 2u) << "no round ordered more than one request";
  cluster.for_each([&](int id, SvcState& s) {
    EXPECT_EQ(s.replica->reply_signatures(), roots_per_server[id]) << "server " << id;
    EXPECT_LT(s.replica->reply_signatures(), s.replica->executed_count()) << "server " << id;
  });
  EXPECT_EQ(tap->client().fingered(), 0u);
}

/// Random delivery, except that while `hold` is set all traffic to and
/// from `victim` stays in flight.
class HoldPartyScheduler final : public net::Scheduler {
 public:
  HoldPartyScheduler(std::uint64_t seed, int victim) : rng_(seed), victim_(victim) {}
  std::optional<std::size_t> pick(const std::vector<net::Message>& pending,
                                  std::uint64_t) override {
    std::vector<std::size_t> free;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!hold || (pending[i].from != victim_ && pending[i].to != victim_)) free.push_back(i);
    }
    if (free.empty()) return std::nullopt;
    return free[rng_.below(free.size())];
  }
  bool hold = true;

 private:
  Rng rng_;
  int victim_;
};

TEST(RoundSigningTest, CatchUpInstallNeverEntersARoundTree) {
  // Replica 3 is cut off while six requests complete, then installs a
  // certified checkpoint and rejoins as the client keeps going.  Its
  // installed deliveries belong to no round: they must not enter the
  // tree of its next round, whose root would then differ from every
  // other replica's.  Its only answers to the installed requests are the
  // one-leaf ones its reply cache gives their held copies, every other
  // reply it sends is under a root an honest peer also signed, nobody is
  // fingered, and receipts keep completing.
  Rng rng(71);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  HoldPartyScheduler sched(71, /*victim=*/3);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        party.enable_wal();
        auto state = std::make_unique<SvcState>();
        state->replica = std::make_unique<Replica>(party, "svc", Replica::Mode::kAtomic,
                                                   std::make_unique<SecureDirectory>());
        state->replica->enable_checkpoints(1);
        return state;
      },
      0, /*extra_endpoints=*/1, 71);
  std::map<std::uint64_t, ServiceClient::Receipt> receipts;
  auto tap_owner = std::make_unique<ReplyTap>(std::make_unique<ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", Replica::Mode::kAtomic, 73,
      [&](std::uint64_t id, ServiceClient::Receipt receipt) {
        receipts.emplace(id, std::move(receipt));
      }));
  ReplyTap* tap = tap_owner.get();
  cluster.attach_client(4, std::move(tap_owner));
  cluster.start();

  std::map<std::uint64_t, Bytes> bodies;
  auto bind_all = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      const Bytes body = bind_body(i);
      bodies.emplace(tap->client().request(Bytes(body)), body);
    }
    return cluster.simulator().run_until([&] { return receipts.size() == bodies.size(); },
                                         20000000);
  };
  ASSERT_TRUE(bind_all(0, 6));
  protocols::AtomicBroadcast& leader = *cluster.protocol(0)->replica->atomic();
  ASSERT_TRUE(cluster.simulator().run_until(
      [&] {
        const auto& cert = leader.latest_certificate();
        return cert.has_value() && cert->delivered_count == leader.delivered_count();
      },
      20000000));
  const crypto::CheckpointCert cert = *leader.latest_certificate();
  Replica& laggard = *cluster.protocol(3)->replica;
  ASSERT_TRUE(laggard.atomic()->install_checkpoint(cert, leader.certified_state(cert)));
  EXPECT_EQ(laggard.executed_count(), 6u);
  const std::size_t installed = bodies.size();

  sched.hold = false;
  ASSERT_TRUE(bind_all(6, 9));
  ASSERT_TRUE(bind_all(9, 12));
  ASSERT_TRUE(bind_all(12, 15));
  cluster.simulator().run(3000000);
  EXPECT_EQ(laggard.executed_count(), 15u);
  for (const auto& [id, receipt] : receipts) {
    EXPECT_TRUE(tap->client().verify_receipt(id, bodies.at(id), receipt));
  }
  EXPECT_EQ(tap->client().fingered(), 0u);

  const std::vector<TappedReply> tapped = fold_tapped(tap->seen, bodies);
  std::map<std::uint64_t, std::set<Bytes>> honest_roots;
  for (const TappedReply& t : tapped) {
    if (t.from != 3) honest_roots[t.reply.request_id].insert(t.statement);
  }
  int shared_rounds = 0;
  for (const TappedReply& t : tapped) {
    if (t.from != 3) continue;
    if (t.reply.request_id <= installed) {
      EXPECT_EQ(t.reply.count, 1u) << "installed request " << t.reply.request_id
                                   << " answered inside a round tree";
    } else if (honest_roots[t.reply.request_id].contains(t.statement)) {
      ++shared_rounds;
    } else {
      EXPECT_EQ(t.reply.count, 1u) << "request " << t.reply.request_id
                                   << " under a root no honest peer signed";
    }
  }
  EXPECT_GE(shared_rounds, 1) << "replica 3 never answered inside a shared round";
}

}  // namespace
}  // namespace sintra::app
