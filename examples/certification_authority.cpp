// Distributed certification authority (paper §5.1).
//
// A client obtains a certificate from a 4-server CA:
//   * the request is atomically broadcast so all replicas issue the same
//     serial number;
//   * each replica answers with signature *shares* of the CA key;
//   * the client recombines them into ONE ordinary RSA signature under the
//     CA's single public key — the certificate — even though one replica
//     actively lies to it.
//
//   build/examples/certification_authority
#include <cstdio>
#include <map>

#include "app/ca.hpp"
#include "app/client.hpp"
#include "protocols/harness.hpp"

using namespace sintra;

struct Node {
  std::unique_ptr<app::Replica> replica;
};

/// A corrupted replica that tells every client its request was denied.
class LyingReplica final : public net::Process {
 public:
  LyingReplica(net::Simulator& sim, int id) : sim_(sim), id_(id) {}
  void on_message(const net::Message& message) override {
    if (message.tag != "ca") return;
    try {
      Reader r(message.payload);
      app::RequestEnvelope envelope = app::RequestEnvelope::decode(r);
      // A one-leaf round whose path folds for the client, carrying no
      // signature shares: the client refuses it by structure.
      app::CaResponse forged;
      forged.status = app::CaResponse::Status::kDenied;
      app::SignedReply lie;
      lie.request_id = envelope.request_id;
      lie.reply = forged.encode();
      lie.count = 1;
      sim_.submit(net::Message{id_, envelope.client, "ca/reply", lie.encode()});
    } catch (const ProtocolError&) {
    }
  }

 private:
  net::Simulator& sim_;
  int id_;
};

int main() {
  Rng rng(7);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler scheduler(7);
  protocols::Cluster<Node> cluster(
      deployment, scheduler,
      [](net::Party& party, int) {
        auto node = std::make_unique<Node>();
        node->replica = std::make_unique<app::Replica>(
            party, "ca", app::Replica::Mode::kAtomic,
            std::make_unique<app::CertificationAuthority>());
        return node;
      },
      /*corrupted=*/0, /*extra_endpoints=*/1);
  // Replace replica 3 by an active liar.
  cluster.attach_custom(3, std::make_unique<LyingReplica>(cluster.simulator(), 3));

  std::map<std::uint64_t, app::ServiceClient::Receipt> receipts;
  auto client_owner = std::make_unique<app::ServiceClient>(
      cluster.simulator(), 4, deployment, "ca", app::Replica::Mode::kAtomic, 99,
      [&](std::uint64_t id, app::ServiceClient::Receipt receipt) {
        receipts.emplace(id, std::move(receipt));
      });
  app::ServiceClient* client = client_owner.get();
  cluster.attach_client(4, std::move(client_owner));
  cluster.start();

  // Alice requests a certificate for her public key.
  app::CaRequest issue;
  issue.op = app::CaRequest::Op::kIssue;
  issue.subject = "alice@example.com";
  issue.public_key = bytes_of("---alice public key---");
  issue.credentials = "credential:alice@example.com";
  Bytes body = issue.encode();
  std::uint64_t id = client->request(Bytes(body));

  if (!cluster.simulator().run_until([&] { return receipts.contains(id); }, 10000000)) {
    std::printf("FAILED: no certificate\n");
    return 1;
  }
  const auto& receipt = receipts.at(id);
  auto response = app::CaResponse::decode(receipt.reply);
  std::printf("certificate issued: subject=%s serial=%llu policy=%s\n",
              response.subject.c_str(), static_cast<unsigned long long>(response.serial),
              response.policy_at_issue.c_str());
  std::printf("lying replica's forged denial was outvoted: status=%s\n",
              response.status == app::CaResponse::Status::kOk ? "OK" : "DENIED?!");

  // Anyone can verify the certificate with the single CA public key.
  const bool valid = client->verify_receipt(id, body, receipt);
  std::printf("threshold signature verifies under the CA public key: %s\n",
              valid ? "YES" : "NO");
  std::printf("signature (hex, first 32 chars): %.32s...\n",
              receipt.signature.to_hex().c_str());
  return valid && response.status == app::CaResponse::Status::kOk ? 0 : 1;
}
