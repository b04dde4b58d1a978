// Cross-backend differential suite: every discrete-log protocol — coin,
// TDH2, NIZK, Feldman VSS, and the batch verifiers — runs end-to-end over
// both group representations (Z_p* Schnorr and secp256k1) from the same
// seeds, asserting identical protocol-level behaviour: honest flows
// accept, tampered flows are rejected, and wire round-trips are exact.  Any representation leak (a consumer
// assuming residues, an identity special case, an encoding size
// assumption) shows up as a divergence between the two parameterizations.
#include <gtest/gtest.h>

#include <map>

#include "adversary/quorum.hpp"
#include "crypto/batch.hpp"
#include "crypto/coin.hpp"
#include "crypto/dealer.hpp"
#include "crypto/nizk.hpp"
#include "crypto/shamir.hpp"
#include "crypto/tdh2.hpp"
#include "crypto/vss.hpp"

namespace sintra::crypto {
namespace {

class DifferentialBackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] GroupPtr group() const { return Group::by_name(GetParam()); }
  [[nodiscard]] std::shared_ptr<const ThresholdScheme> scheme() const {
    return std::make_shared<ThresholdScheme>(4, 1);
  }
};

TEST_P(DifferentialBackendTest, CoinEndToEnd) {
  GroupPtr g = group();
  Rng rng(100);
  auto deal = CoinDeal::deal(g, scheme(), rng);
  Bytes name = bytes_of("diff-coin");

  std::vector<CoinShare> shares;
  for (int p = 0; p < 4; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].share(deal.public_key, name,
                                                                       rng)) {
      EXPECT_TRUE(deal.public_key.verify_share(name, s));
      shares.push_back(s);
    }
  }

  // Any qualified subset combines to the same coin value.
  auto v01 = deal.public_key.combine(name, {shares[0], shares[1]});
  auto v23 = deal.public_key.combine(name, {shares[2], shares[3]});
  ASSERT_TRUE(v01.has_value());
  ASSERT_TRUE(v23.has_value());
  EXPECT_EQ(*v01, *v23);

  // A tampered share fails strict verification.
  CoinShare bad = shares[0];
  bad.value = g->mul(bad.value, g->g());
  EXPECT_FALSE(deal.public_key.verify_share(name, bad));

  // Wire round-trip is exact.
  Writer w;
  shares[0].encode(w, *g);
  Reader r(w.data());
  CoinShare decoded = CoinShare::decode(r, *g);
  EXPECT_EQ(decoded.value, shares[0].value);
  EXPECT_TRUE(deal.public_key.verify_share(name, decoded));
}

TEST_P(DifferentialBackendTest, Tdh2EndToEnd) {
  GroupPtr g = group();
  Rng rng(101);
  auto deal = Tdh2Deal::deal(g, scheme(), rng);
  const Bytes message = bytes_of("differential secret");
  const Bytes label = bytes_of("label");
  auto ct = deal.public_key.encrypt(message, label, rng);
  EXPECT_TRUE(deal.public_key.check_ciphertext(ct));

  // Ciphertext wire round-trip.
  Writer w;
  ct.encode(w, *g);
  Reader r(w.data());
  auto ct2 = Tdh2Ciphertext::decode(r, *g);
  EXPECT_TRUE(deal.public_key.check_ciphertext(ct2));

  std::vector<Tdh2DecShare> shares;
  for (int p = 0; p < 2; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].decrypt_shares(
             deal.public_key, ct2, rng)) {
      EXPECT_TRUE(deal.public_key.verify_share(ct2, s));
      shares.push_back(s);
    }
  }
  auto plaintext = deal.public_key.combine(ct2, shares);
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, message);

  // A tampered decryption share fails verification.
  Tdh2DecShare bad = shares[0];
  bad.value = g->mul(bad.value, g->g());
  EXPECT_FALSE(deal.public_key.verify_share(ct2, bad));

  // A tampered ciphertext fails its well-formedness proof.
  auto mangled = ct;
  mangled.u = g->mul(mangled.u, g->g());
  EXPECT_FALSE(deal.public_key.check_ciphertext(mangled));
}

TEST_P(DifferentialBackendTest, NizkProofs) {
  GroupPtr g = group();
  Rng rng(102);
  const BigInt x = g->random_scalar(rng);
  const Element g2 = g->hash_to_element("diff-nizk", bytes_of("second base"));
  const Element h1 = g->exp_g(x);
  const Element h2 = g->exp(g2, x);

  auto dleq = DleqProof::prove(*g, "ctx", g->g(), h1, g2, h2, x, rng);
  EXPECT_TRUE(dleq.verify(*g, "ctx", g->g(), h1, g2, h2));
  EXPECT_FALSE(dleq.verify(*g, "other-ctx", g->g(), h1, g2, h2));
  EXPECT_FALSE(dleq.verify(*g, "ctx", g->g(), h2, g2, h1));

  Writer w;
  dleq.encode(w, *g);
  Reader r(w.data());
  auto dleq2 = DleqProof::decode(r, *g);
  EXPECT_TRUE(dleq2.verify(*g, "ctx", g->g(), h1, g2, h2));

  auto schnorr = SchnorrProof::prove(*g, "ctx", g->g(), h1, x, rng);
  EXPECT_TRUE(schnorr.verify(*g, "ctx", g->g(), h1));
  EXPECT_FALSE(schnorr.verify(*g, "ctx", g->g(), h2));
  Writer w2;
  schnorr.encode(w2, *g);
  Reader r2(w2.data());
  EXPECT_TRUE(SchnorrProof::decode(r2, *g).verify(*g, "ctx", g->g(), h1));
}

TEST_P(DifferentialBackendTest, FeldmanVss) {
  GroupPtr g = group();
  Rng rng(103);
  const BigInt secret = g->random_scalar(rng);
  auto dealing = FeldmanDealing::deal(*g, secret, 4, 1, rng);
  ASSERT_EQ(dealing.shares.size(), 4u);
  ASSERT_EQ(dealing.commitments.size(), 2u);
  EXPECT_EQ(dealing.public_image(), g->exp_g(secret));

  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(FeldmanDealing::verify_share(*g, dealing.commitments, p,
                                             dealing.shares[static_cast<std::size_t>(p)]));
    EXPECT_EQ(FeldmanDealing::share_image(*g, dealing.commitments, p),
              g->exp_g(dealing.shares[static_cast<std::size_t>(p)]));
  }
  // Tampered share rejected.
  EXPECT_FALSE(FeldmanDealing::verify_share(*g, dealing.commitments, 0,
                                            g->scalar_add(dealing.shares[0], BigInt(1))));
}

TEST_P(DifferentialBackendTest, BatchCoinAndDecryptionSharePaths) {
  // Four shares reach the batched equation on both backends.
  GroupPtr g = group();
  Rng rng(105);
  auto deal = CoinDeal::deal(g, scheme(), rng);
  Bytes name = bytes_of("diff-batch-coin");
  std::vector<CoinShare> shares;
  for (int p = 0; p < 4; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].share(deal.public_key, name,
                                                                       rng)) {
      shares.push_back(s);
    }
  }
  EXPECT_TRUE(batch::verify_coin_shares(deal.public_key, name, shares, rng));
  auto tampered = shares;
  tampered[2].value = g->mul(tampered[2].value, g->g());
  EXPECT_FALSE(batch::verify_coin_shares(deal.public_key, name, tampered, rng));

  auto tdh2 = Tdh2Deal::deal(g, scheme(), rng);
  const auto ct = tdh2.public_key.encrypt(bytes_of("m"), bytes_of("l"), rng);
  std::vector<Tdh2DecShare> dec;
  for (int p = 0; p < 4; ++p) {
    for (auto& s : tdh2.secret_keys[static_cast<std::size_t>(p)].decrypt_shares(tdh2.public_key,
                                                                                ct, rng)) {
      dec.push_back(s);
    }
  }
  EXPECT_TRUE(batch::verify_dec_shares(tdh2.public_key, ct, dec, rng));
  dec[1].proof.z = g->scalar_add(dec[1].proof.z, BigInt(1));
  EXPECT_FALSE(batch::verify_dec_shares(tdh2.public_key, ct, dec, rng));
}

TEST_P(DifferentialBackendTest, DealerBundleOnBackend) {
  GroupPtr g = group();
  Rng rng(106);
  auto bundle = KeyBundle::deal_threshold(4, 1, rng, g);
  const auto& pk = bundle.public_keys();
  Bytes name = bytes_of("bundle-coin");
  std::vector<CoinShare> shares;
  for (int p = 0; p < 2; ++p) {
    for (auto& s : bundle.share(p).coin.share(pk.coin, name, rng)) {
      EXPECT_TRUE(pk.coin.verify_share(name, s));
      shares.push_back(s);
    }
  }
  EXPECT_TRUE(pk.coin.combine(name, shares).has_value());

  auto ct = pk.encryption.encrypt(bytes_of("bundle secret"), bytes_of("l"), rng);
  std::vector<Tdh2DecShare> dec;
  for (int p = 2; p < 4; ++p) {
    for (auto& s : bundle.share(p).decryption.decrypt_shares(pk.encryption, ct, rng)) {
      dec.push_back(s);
    }
  }
  auto plaintext = pk.encryption.combine(ct, dec);
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, bytes_of("bundle secret"));
}

INSTANTIATE_TEST_SUITE_P(Backends, DifferentialBackendTest,
                         ::testing::Values("test-256/128", "secp256k1"));

// ---- representation parity, asserted directly across backends ----------

TEST(DifferentialParityTest, EncodingSizesMatchDeclaredWidth) {
  for (const char* name : {"test-256/128", "default-768/256", "big-1536/256", "secp256k1"}) {
    GroupPtr g = Group::by_name(name);
    Rng rng(107);
    Writer w;
    g->encode_element(w, g->exp_g(g->random_scalar(rng)));
    g->encode_element(w, g->identity());
    EXPECT_EQ(w.data().size(), 2 * g->element_bytes()) << name;
  }
}

TEST(DifferentialParityTest, CurveElementsAreCompact) {
  // The point of the backend: 33-byte elements versus 96/192 for the
  // Schnorr representations, with the same 256-bit scalar field as big.
  EXPECT_EQ(Group::curve_group()->element_bytes(), 33u);
  EXPECT_EQ(Group::curve_group()->q().bit_length(), 256u);
  EXPECT_EQ(Group::big_group()->q().bit_length(), 256u);
  EXPECT_GT(Group::big_group()->element_bytes(), 4 * Group::curve_group()->element_bytes());
}

TEST(DifferentialParityTest, CurveDeploymentConfig) {
  // CryptoConfig::curve() wires the curve backend through the dealer and
  // a full deployment, RSA staying at production size.
  Rng rng(108);
  auto config = adversary::CryptoConfig::curve();
  EXPECT_EQ(config.group->name(), "secp256k1");
  auto deployment = adversary::Deployment::threshold(4, 1, rng, config);
  const auto& pk = deployment.keys->public_keys();
  Bytes name = bytes_of("deploy-coin");
  std::vector<CoinShare> shares;
  for (int p = 0; p < 2; ++p) {
    for (auto& s : deployment.keys->share(p).coin.share(pk.coin, name, rng)) {
      shares.push_back(s);
    }
  }
  auto value = pk.coin.combine(name, shares);
  ASSERT_TRUE(value.has_value());
}

}  // namespace
}  // namespace sintra::crypto
