// Quorum certificates (crypto/quorum_sig.hpp): the signature sets that
// certify consistent broadcasts and atomic-broadcast batches.  A
// certificate is valid iff every signer covers exactly its own units once,
// the signers form a quorum, and every signature verifies; each of those
// conditions is broken here on its own.  Also: signatures are bound to
// their statement (instance tag, batch round), the deterministic nonce,
// and the protocol sites refusing misattributed or misbound signatures.
#include <gtest/gtest.h>

#include "adversary/examples.hpp"
#include "crypto/sha256.hpp"
#include "protocols/atomic.hpp"
#include "protocols/consistent.hpp"
#include "protocols/harness.hpp"

namespace sintra {
namespace {

using crypto::PartySet;
using crypto::QuorumSig;
using protocols::CertifiedMessage;

constexpr const char* kTag = "cbc/0";

class QuorumCertTest : public ::testing::Test {
 protected:
  QuorumCertTest()
      : rng_(101),
        deployment_(adversary::Deployment::threshold(4, 1, rng_, adversary::CryptoConfig::curve())) {}

  [[nodiscard]] const crypto::QuorumSigPublicKey& pk() const {
    return deployment_.keys->public_keys().quorum_sig;
  }

  [[nodiscard]] std::vector<QuorumSig> sign(int party, const std::string& tag,
                                            BytesView message) const {
    return deployment_.keys->share(party).quorum_sig.sign(
        pk(), protocols::consistent_statement(tag, message));
  }

  /// A certificate on `message` under `tag` signed by `signers`.
  [[nodiscard]] CertifiedMessage certify(const std::vector<int>& signers,
                                         const std::string& tag = kTag) const {
    CertifiedMessage cm{bytes_of("certified"), {}};
    for (int party : signers) {
      for (auto& sig : sign(party, tag, cm.message)) cm.certificate.push_back(std::move(sig));
    }
    return cm;
  }

  [[nodiscard]] bool valid(const CertifiedMessage& cm, const std::string& tag = kTag) const {
    return protocols::verify_certificate(pk(), *deployment_.quorum, tag, cm);
  }

  Rng rng_;
  adversary::Deployment deployment_;
};

TEST_F(QuorumCertTest, QuorumOfSignersIsAccepted) {
  EXPECT_TRUE(valid(certify({0, 1, 2})));
  EXPECT_TRUE(valid(certify({3, 1, 0, 2})));
}

TEST_F(QuorumCertTest, NonQuorumSignerSetIsRejected) {
  // Every signature is genuine and well-formed: only the quorum rule can
  // refuse it.
  const CertifiedMessage cm = certify({0, 2});
  const Bytes stmt = protocols::consistent_statement(kTag, cm.message);
  ASSERT_EQ(pk().verify_set(stmt, cm.certificate),
            std::optional<PartySet>(crypto::party_bit(0) | crypto::party_bit(2)));
  EXPECT_FALSE(valid(cm));
  EXPECT_FALSE(valid(certify({1})));
  EXPECT_FALSE(valid(certify({})));
}

TEST_F(QuorumCertTest, DuplicateSignerIsRejected) {
  // Two signers plus a second copy of one of them: three signatures, but
  // only two signers.
  CertifiedMessage cm = certify({0, 1});
  cm.certificate.push_back(cm.certificate[1]);
  EXPECT_FALSE(valid(cm));
  // A duplicate also spoils an otherwise valid quorum set.
  CertifiedMessage full = certify({0, 1, 2});
  full.certificate.push_back(full.certificate[0]);
  EXPECT_FALSE(valid(full));
}

TEST_F(QuorumCertTest, UnitNotOwnedByItsClaimedSignerIsRejected) {
  // Party 1's signature relabelled as unit 3 (owned by party 3): the set
  // now claims signers {0, 2, 3}, a quorum, but unit 3's signature was
  // made with party 1's key.
  CertifiedMessage cm = certify({0, 1, 2});
  for (QuorumSig& sig : cm.certificate) {
    if (sig.unit == 1) sig.unit = 3;
  }
  EXPECT_FALSE(valid(cm));
  // Out-of-range units never verify.
  CertifiedMessage out_of_range = certify({0, 1, 2});
  out_of_range.certificate[0].unit = 4;
  EXPECT_FALSE(valid(out_of_range));
}

TEST_F(QuorumCertTest, PartialUnitSetOfAMultiUnitSignerIsRejected) {
  // Example 2 (16 parties, weighted): a signer holding nine units that
  // contributes eight is not a signer at all.
  Rng rng(29);
  auto deployment = adversary::example2_deployment(rng);
  const auto& pk = deployment.keys->public_keys().quorum_sig;
  const Bytes stmt = protocols::consistent_statement(kTag, bytes_of("m"));
  std::vector<QuorumSig> sigs;
  for (int i = 0; i < deployment.n(); ++i) {
    for (auto& s : deployment.keys->share(i).quorum_sig.sign(pk, stmt)) sigs.push_back(s);
  }
  ASSERT_TRUE(pk.verify_set(stmt, sigs).has_value());
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    if (pk.scheme().units_of(pk.scheme().unit_owner(sigs[i].unit)).size() < 2) continue;
    std::vector<QuorumSig> partial = sigs;
    partial.erase(partial.begin() + static_cast<std::ptrdiff_t>(i));
    EXPECT_FALSE(pk.verify_set(stmt, partial).has_value()) << "dropped unit " << sigs[i].unit;
    break;
  }
}

TEST_F(QuorumCertTest, SignatureOverAnotherInstanceIsRejected) {
  const CertifiedMessage cm = certify({0, 1, 2}, "vba/7/cb/1");
  EXPECT_TRUE(valid(cm, "vba/7/cb/1"));
  EXPECT_FALSE(valid(cm, "vba/7/cb/2"));
  EXPECT_FALSE(valid(cm, "vba/8/cb/1"));
  // One signature from another instance spoils the set.
  CertifiedMessage mixed = certify({0, 1}, "vba/7/cb/1");
  for (auto& sig : sign(2, "vba/8/cb/1", mixed.message)) mixed.certificate.push_back(sig);
  EXPECT_FALSE(valid(mixed, "vba/7/cb/1"));
}

TEST_F(QuorumCertTest, TrustedSignaturesOnlyStandInForThemselves) {
  // A caller's own signatures are accepted by byte compare; a different
  // signature in the same slot is still checked.
  const CertifiedMessage cm = certify({0, 1, 2});
  const auto own = sign(0, kTag, cm.message);
  EXPECT_TRUE(protocols::verify_certificate(pk(), *deployment_.quorum, kTag, cm, own));
  CertifiedMessage forged = cm;
  for (QuorumSig& sig : forged.certificate) {
    if (sig.unit == 0) sig.z = pk().group().scalar_add(sig.z, crypto::BigInt(1));
  }
  EXPECT_FALSE(protocols::verify_certificate(pk(), *deployment_.quorum, kTag, forged, own));
}

TEST_F(QuorumCertTest, NonceIsDeterministicPerStatement) {
  const auto& group = pk().group();
  // R = g^z · X_u^{-c}: the signature's nonce commitment.
  const auto nonce_point = [&](const QuorumSig& sig) {
    return group.exp2(group.g(), sig.z, pk().verification(sig.unit),
                      group.scalar_sub(crypto::BigInt(0), sig.c));
  };
  const auto a1 = sign(1, kTag, bytes_of("a"));
  const auto a2 = sign(1, kTag, bytes_of("a"));
  const auto b = sign(1, kTag, bytes_of("b"));
  const auto other_tag = sign(1, "cbc/1", bytes_of("a"));
  ASSERT_EQ(a1.size(), 1u);
  Writer wa1;
  Writer wa2;
  a1[0].encode(wa1, group);
  a2[0].encode(wa2, group);
  EXPECT_EQ(wa1.data(), wa2.data());  // byte-identical
  EXPECT_NE(nonce_point(a1[0]), nonce_point(b[0]));
  EXPECT_NE(nonce_point(a1[0]), nonce_point(other_tag[0]));
  // Another unit signing the same statement uses another nonce.
  EXPECT_NE(nonce_point(a1[0]), nonce_point(sign(2, kTag, bytes_of("a"))[0]));
}

// ---- protocol sites ----------------------------------------------------------

/// Sends party 0 one unsolicited message on `tag` from party 3.
class OneShotSender final : public net::Process {
 public:
  OneShotSender(net::Simulator& sim, std::string tag, Bytes payload)
      : sim_(sim), tag_(std::move(tag)), payload_(std::move(payload)) {}
  void on_start() override {
    net::Message m;
    m.from = 3;
    m.to = 0;
    m.tag = tag_;
    m.payload = payload_;
    sim_.submit(std::move(m));
  }
  void on_message(const net::Message&) override {}

 private:
  net::Simulator& sim_;
  std::string tag_;
  Bytes payload_;
};

struct CbcState {
  std::unique_ptr<protocols::ConsistentBroadcast> cbc;
  std::optional<Bytes> delivered;
};

TEST_F(QuorumCertTest, CbcSenderRefusesAnotherPartysSignatures) {
  // Party 3 echoes party 1's genuine signatures as its own: the units are
  // not party 3's, so the sender refuses them at admission, fingers
  // nobody, and certifies from the honest parties.
  const Bytes message = bytes_of("certify me");
  Writer w;
  w.u8(1);  // ConsistentBroadcast::kShare
  w.vec(sign(1, "cbc/x", message), [&](Writer& wr, const QuorumSig& s) {
    s.encode(wr, pk().group());
  });
  net::FifoScheduler sched;
  TraceLog log;
  log.set_enabled(true);
  protocols::Cluster<CbcState> cluster(
      deployment_, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<CbcState>();
        s->cbc = std::make_unique<protocols::ConsistentBroadcast>(
            party, "cbc/x", 0,
            [p = s.get()](CertifiedMessage cm) { p->delivered = cm.message; });
        return s;
      },
      0, 0, 5, &log);
  cluster.attach_custom(3, std::make_unique<OneShotSender>(cluster.simulator(), "cbc/x",
                                                           w.take()));
  cluster.start();
  cluster.protocol(0)->cbc->start(message);
  ASSERT_TRUE(cluster.run_until_all([](CbcState& s) { return s.delivered.has_value(); },
                                    1000000));
  EXPECT_EQ(cluster.protocol(0)->cbc->suspected(), 0u);
  const auto refused = std::count_if(log.events().begin(), log.events().end(), [](const auto& e) {
    return e.party == 0 &&
           e.message.find("cbc: shares not the signer's units") != std::string::npos;
  });
  EXPECT_EQ(refused, 1);
}

struct AbcState {
  std::unique_ptr<protocols::AtomicBroadcast> abc;
  std::vector<Bytes> delivered;
};

/// AtomicBroadcast's batch statement for ("abc", round, party, block).
Bytes batch_statement(int round, int party, BytesView block) {
  Writer w;
  w.str("sintra/abc/batch");
  w.str("abc");
  w.u32(static_cast<std::uint32_t>(round));
  w.u32(static_cast<std::uint32_t>(party));
  const auto digest = crypto::hash_domain("sintra/abc/block", block);
  w.raw(BytesView(digest.data(), digest.size()));
  return w.take();
}

TEST_F(QuorumCertTest, BatchSignedForAnotherRoundIsRejected) {
  // Party 3 sends a round-1 batch carrying its genuine signatures on the
  // same block for round 2: party 0 refuses it and fingers party 3, and
  // the honest parties still order their payloads.
  Writer block;
  block.vec(std::vector<Bytes>{bytes_of("replayed")}, [](Writer& wr, const Bytes& p) {
    wr.bytes(p);
  });
  const Bytes payload_block = block.take();
  Writer w;
  w.u8(1);  // AtomicBroadcast::kBatch
  w.u32(1);
  w.bytes(payload_block);
  w.vec(deployment_.keys->share(3).quorum_sig.sign(pk(), batch_statement(2, 3, payload_block)),
        [&](Writer& wr, const QuorumSig& s) { s.encode(wr, pk().group()); });
  net::FifoScheduler sched;
  protocols::Cluster<AbcState> cluster(
      deployment_, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<AbcState>();
        s->abc = std::make_unique<protocols::AtomicBroadcast>(
            party, "abc",
            [p = s.get()](int, Bytes payload) { p->delivered.push_back(std::move(payload)); });
        return s;
      },
      0, 0, 9);
  cluster.attach_custom(3, std::make_unique<OneShotSender>(cluster.simulator(), "abc", w.take()));
  cluster.start();
  cluster.for_each([](int id, AbcState& s) { s.abc->submit(bytes_of("m" + std::to_string(id))); });
  ASSERT_TRUE(cluster.run_until_all([](AbcState& s) { return s.delivered.size() >= 3; },
                                    5000000));
  EXPECT_EQ(cluster.protocol(0)->abc->suspected(), crypto::party_bit(3));
  cluster.for_each([](int id, AbcState& s) {
    for (const Bytes& payload : s.delivered) {
      EXPECT_NE(payload, bytes_of("replayed")) << "party " << id;
    }
  });
}

}  // namespace
}  // namespace sintra
