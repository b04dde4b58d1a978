// Consistent broadcast tests: delivery with certificate, transferability,
// and the uniqueness property against an equivocating sender.
#include <gtest/gtest.h>

#include "protocols/consistent.hpp"
#include "protocols/harness.hpp"

namespace sintra::protocols {
namespace {

struct CbcState {
  std::unique_ptr<ConsistentBroadcast> cbc;
  std::optional<CertifiedMessage> delivered;
};

Cluster<CbcState> make_cluster(adversary::Deployment deployment, net::Scheduler& sched,
                               int sender, crypto::PartySet corrupted = 0) {
  return Cluster<CbcState>(
      std::move(deployment), sched,
      [sender](net::Party& party, int) {
        auto state = std::make_unique<CbcState>();
        state->cbc = std::make_unique<ConsistentBroadcast>(
            party, "cbc/0", sender,
            [s = state.get()](CertifiedMessage cm) { s->delivered = std::move(cm); });
        return state;
      },
      corrupted);
}

TEST(CbcTest, HonestSenderAllDeliverWithValidCertificate) {
  Rng rng(1);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(2);
  auto cluster = make_cluster(deployment, sched, 0);
  cluster.start();
  cluster.protocol(0)->cbc->start(bytes_of("certified payload"));
  ASSERT_TRUE(cluster.run_until_all([](CbcState& s) { return s.delivered.has_value(); },
                                    100000));
  const auto& pk = deployment.keys->public_keys().quorum_sig;
  cluster.for_each([&](int, CbcState& s) {
    EXPECT_EQ(s.delivered->message, bytes_of("certified payload"));
    EXPECT_TRUE(verify_certificate(pk, *deployment.quorum, "cbc/0", *s.delivered));
  });
}

TEST(CbcTest, CertificateIsTransferable) {
  // A third party holding only the public key verifies the certificate —
  // and it does not verify for a different instance tag or message.
  Rng rng(3);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(4);
  auto cluster = make_cluster(deployment, sched, 2);
  cluster.start();
  cluster.protocol(2)->cbc->start(bytes_of("m"));
  ASSERT_TRUE(cluster.run_until_all([](CbcState& s) { return s.delivered.has_value(); },
                                    100000));
  const auto& pk = deployment.keys->public_keys().quorum_sig;
  const auto& quorum = *deployment.quorum;
  CertifiedMessage cm = *cluster.protocol(0)->delivered;
  EXPECT_TRUE(verify_certificate(pk, quorum, "cbc/0", cm));
  EXPECT_FALSE(verify_certificate(pk, quorum, "cbc/1", cm));
  CertifiedMessage tampered = cm;
  tampered.message = bytes_of("other");
  EXPECT_FALSE(verify_certificate(pk, quorum, "cbc/0", tampered));
}

TEST(CbcTest, ToleratesCrashFault) {
  Rng rng(5);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(6);
  auto cluster = make_cluster(deployment, sched, 0, crypto::party_bit(2));
  cluster.start();
  cluster.protocol(0)->cbc->start(bytes_of("with crash"));
  EXPECT_TRUE(cluster.run_until_all([](CbcState& s) { return s.delivered.has_value(); },
                                    100000));
}

TEST(CbcTest, SerializationRoundTrip) {
  Rng rng(7);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  const auto& pk = deployment.keys->public_keys().quorum_sig;
  CertifiedMessage cm{bytes_of("msg"), {}};
  for (int party = 0; party < 3; ++party) {
    for (auto& sig : deployment.keys->share(party).quorum_sig.sign(
             pk, consistent_statement("cbc/0", cm.message))) {
      cm.certificate.push_back(std::move(sig));
    }
  }
  Writer w;
  cm.encode(w, pk.group());
  Reader r(w.data());
  CertifiedMessage decoded = CertifiedMessage::decode(r, pk.group());
  r.expect_done();
  EXPECT_EQ(decoded.message, cm.message);
  EXPECT_EQ(decoded.certificate, cm.certificate);
  EXPECT_TRUE(verify_certificate(pk, *deployment.quorum, "cbc/0", decoded));
}

/// Equivocating sender driving the real protocol twice: collects shares
/// for two different messages by sending SEND("A") to some parties and
/// SEND("B") to others.  Uniqueness: at most one certificate can form.
class EquivocatingCbcSender final : public net::Process {
 public:
  EquivocatingCbcSender(net::Simulator& sim, int id) : sim_(sim), id_(id) {}
  void on_start() override {
    for (int to = 0; to < sim_.n(); ++to) {
      if (to == id_) continue;
      Writer w;
      w.u8(0);  // kSend
      w.bytes(bytes_of(to < 2 ? "AAAA" : "BBBB"));
      net::Message m;
      m.from = id_;
      m.to = to;
      m.tag = "cbc/0";
      m.payload = w.take();
      sim_.submit(std::move(m));
    }
  }
  void on_message(const net::Message&) override {
    // The attacker receives signature shares but can never gather a quorum
    // for either message: it only relays nothing.  (Even an attacker that
    // combined what it has cannot reach a quorum for both values, since
    // every honest party signs only once.)
  }

 private:
  net::Simulator& sim_;
  int id_;
};

TEST(CbcTest, EquivocatingSenderCannotCertifyTwoMessages) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 13);
    auto cluster = make_cluster(deployment, sched, 3);
    cluster.attach_custom(3,
                          std::make_unique<EquivocatingCbcSender>(cluster.simulator(), 3));
    cluster.start();
    cluster.simulator().run(500000);
    // 2 parties signed "AAAA", 1 signed "BBBB" (quorum = 3): no FINAL can
    // have been produced, so nothing was delivered; and in no case may two
    // different certified messages exist.
    std::optional<Bytes> seen;
    cluster.for_each([&](int, CbcState& s) {
      if (!s.delivered.has_value()) return;
      if (!seen.has_value()) seen = s.delivered->message;
      EXPECT_EQ(s.delivered->message, *seen) << "uniqueness violated";
    });
  }
}

}  // namespace
}  // namespace sintra::protocols
