// Differential tests for the batch verifier (crypto/batch.hpp): on every
// input, the batched check must agree with running the strict individual
// verifier over the whole set — batch accepts iff all individual proofs
// accept — and bisection must return exactly the corrupted indices.
// Includes adversarial share pairs with compensating errors that a naive
// (fixed-weight) sum-check would accept; the independent random weights
// must reject them.
#include <gtest/gtest.h>

#include "crypto/batch.hpp"
#include "crypto/shamir.hpp"

namespace sintra::crypto {
namespace {

// -- DLEQ ---------------------------------------------------------------------

class BatchDleqTest : public ::testing::Test {
 protected:
  BatchDleqTest()
      : rng_(2024),
        group_(Group::test_group()),
        g2_(group_->hash_to_element("sintra/test/batch-base", bytes_of("second base"))) {}

  batch::DleqItem make_item(int i) {
    const std::string ctx = "dleq-item-" + std::to_string(i);
    BigInt x = group_->random_scalar(rng_);
    Element h1 = group_->exp_g(x);
    Element h2 = group_->exp(g2_, x);
    DleqProof proof = DleqProof::prove(*group_, ctx, group_->g(), h1, g2_, h2, x, rng_);
    return batch::DleqItem{ctx, std::move(h1), std::move(h2), std::move(proof)};
  }

  std::vector<batch::DleqItem> make_items(int k) {
    std::vector<batch::DleqItem> items;
    for (int i = 0; i < k; ++i) items.push_back(make_item(i));
    return items;
  }

  bool all_individual(const std::vector<batch::DleqItem>& items) {
    for (const auto& item : items) {
      if (!item.proof.verify(*group_, item.context, group_->g(), item.h1, g2_, item.h2)) {
        return false;
      }
    }
    return true;
  }

  Rng rng_;
  GroupPtr group_;
  Element g2_;
};

TEST_F(BatchDleqTest, CleanBatchMatchesIndividual) {
  auto items = make_items(16);
  ASSERT_TRUE(all_individual(items));
  EXPECT_TRUE(batch::verify_dleq(*group_, group_->g(), g2_, items, rng_));
  EXPECT_TRUE(batch::find_invalid_dleq(*group_, group_->g(), g2_, items, rng_).empty());
  EXPECT_TRUE(batch::verify_dleq(*group_, group_->g(), g2_, {}, rng_));
}

TEST_F(BatchDleqTest, CorruptedSubsetFingeredExactly) {
  auto items = make_items(13);
  // Corrupt a spread of positions with different kinds of damage.
  items[0].proof.z = group_->scalar_add(items[0].proof.z, BigInt(1));
  items[5].proof.a1 = group_->mul(items[5].proof.a1, group_->g());
  items[12].h2 = group_->mul(items[12].h2, g2_);
  ASSERT_FALSE(all_individual(items));
  EXPECT_FALSE(batch::verify_dleq(*group_, group_->g(), g2_, items, rng_));
  EXPECT_EQ(batch::find_invalid_dleq(*group_, group_->g(), g2_, items, rng_),
            (std::vector<std::size_t>{0, 5, 12}));
}

TEST_F(BatchDleqTest, EverySingleCorruptionDetected) {
  // Differential sweep: one corrupted position at a time, across the whole
  // batch — batch accept must track all-individual accept exactly.
  for (std::size_t bad = 0; bad < 8; ++bad) {
    auto items = make_items(8);
    items[bad].proof.z = group_->scalar_add(items[bad].proof.z, BigInt(7));
    ASSERT_FALSE(all_individual(items));
    EXPECT_FALSE(batch::verify_dleq(*group_, group_->g(), g2_, items, rng_));
    EXPECT_EQ(batch::find_invalid_dleq(*group_, group_->g(), g2_, items, rng_),
              std::vector<std::size_t>{bad});
  }
}

TEST_F(BatchDleqTest, CompensatingResponsePairRejected) {
  // The response z is outside the Fiat–Shamir hash, so adding delta to one
  // proof's response and subtracting it from another multiplies the two
  // equation sides by g^delta and g^-delta: a naive fixed-weight sum-check
  // cancels the errors and accepts.  Independent random weights make the
  // cancellation happen with probability 2^-128.
  auto items = make_items(6);
  const BigInt delta(123456789);
  items[1].proof.z = group_->scalar_add(items[1].proof.z, delta);
  items[4].proof.z = group_->scalar_sub(items[4].proof.z, delta);
  ASSERT_FALSE(all_individual(items));
  EXPECT_FALSE(batch::verify_dleq(*group_, group_->g(), g2_, items, rng_));
  EXPECT_EQ(batch::find_invalid_dleq(*group_, group_->g(), g2_, items, rng_),
            (std::vector<std::size_t>{1, 4}));
}

TEST_F(BatchDleqTest, CrossEquationCompensationRejected) {
  // Within ONE proof: grow the first equation's commitment by d and shrink
  // the second's by d.  A batch that reused one weight for both equations
  // of a DLEQ proof would cancel these; independent weights must not.
  auto items = make_items(4);
  const Element d = group_->exp_g(BigInt(42));
  items[2].proof.a1 = group_->mul(items[2].proof.a1, d);
  items[2].proof.a2 = group_->mul(items[2].proof.a2, group_->inv(d));
  ASSERT_FALSE(all_individual(items));
  EXPECT_FALSE(batch::verify_dleq(*group_, group_->g(), g2_, items, rng_));
  EXPECT_EQ(batch::find_invalid_dleq(*group_, group_->g(), g2_, items, rng_),
            std::vector<std::size_t>{2});
}

// -- Schnorr ------------------------------------------------------------------

class BatchSchnorrTest : public ::testing::Test {
 protected:
  BatchSchnorrTest() : rng_(77), group_(Group::test_group()) {}

  std::vector<batch::SchnorrItem> make_items(int k) {
    std::vector<batch::SchnorrItem> items;
    for (int i = 0; i < k; ++i) {
      const std::string ctx = "schnorr-item-" + std::to_string(i);
      BigInt x = group_->random_scalar(rng_);
      Element h = group_->exp_g(x);
      SchnorrProof proof = SchnorrProof::prove(*group_, ctx, group_->g(), h, x, rng_);
      items.push_back(batch::SchnorrItem{ctx, std::move(h), std::move(proof)});
    }
    return items;
  }

  bool all_individual(const std::vector<batch::SchnorrItem>& items) {
    for (const auto& item : items) {
      if (!item.proof.verify(*group_, item.context, group_->g(), item.h)) return false;
    }
    return true;
  }

  Rng rng_;
  GroupPtr group_;
};

TEST_F(BatchSchnorrTest, CleanBatchMatchesIndividual) {
  auto items = make_items(16);
  ASSERT_TRUE(all_individual(items));
  EXPECT_TRUE(batch::verify_schnorr(*group_, group_->g(), items, rng_));
  EXPECT_TRUE(batch::find_invalid_schnorr(*group_, group_->g(), items, rng_).empty());
}

TEST_F(BatchSchnorrTest, CompensatingPairRejectedAndFingered) {
  auto items = make_items(9);
  const BigInt delta(999);
  items[0].proof.z = group_->scalar_add(items[0].proof.z, delta);
  items[8].proof.z = group_->scalar_sub(items[8].proof.z, delta);
  items[3].proof.a = group_->mul(items[3].proof.a, group_->g());
  ASSERT_FALSE(all_individual(items));
  EXPECT_FALSE(batch::verify_schnorr(*group_, group_->g(), items, rng_));
  EXPECT_EQ(batch::find_invalid_schnorr(*group_, group_->g(), items, rng_),
            (std::vector<std::size_t>{0, 3, 8}));
}

// -- coin shares --------------------------------------------------------------

class BatchCoinTest : public ::testing::Test {
 protected:
  BatchCoinTest()
      : rng_(404), deal_(CoinDeal::deal(Group::test_group(),
                                        std::make_shared<ThresholdScheme>(7, 2), rng_)) {}

  std::vector<CoinShare> shares_for(BytesView name, std::initializer_list<int> parties) {
    std::vector<CoinShare> out;
    for (int p : parties) {
      for (auto& s : deal_.secret_keys[static_cast<std::size_t>(p)].share(deal_.public_key,
                                                                          name, rng_)) {
        out.push_back(s);
      }
    }
    return out;
  }

  bool all_individual(BytesView name, const std::vector<CoinShare>& shares) {
    for (const auto& s : shares) {
      if (!deal_.public_key.verify_share(name, s)) return false;
    }
    return true;
  }

  Rng rng_;
  CoinDeal deal_;
};

TEST_F(BatchCoinTest, CleanQuorumVerifiesAndCombines) {
  Bytes name = bytes_of("batch-coin");
  auto shares = shares_for(name, {0, 1, 2, 3, 4});
  ASSERT_TRUE(all_individual(name, shares));
  EXPECT_TRUE(batch::verify_coin_shares(deal_.public_key, name, shares, rng_));
  auto expected = deal_.public_key.combine(name, shares);
  ASSERT_TRUE(expected.has_value());
  auto result = batch::combine_coin_optimistic(deal_.public_key, name, shares, rng_);
  ASSERT_TRUE(result.value.has_value());
  EXPECT_EQ(*result.value, *expected);
  EXPECT_TRUE(result.bad.empty());
}

TEST_F(BatchCoinTest, CompensatingTamperedPairRejectedExactly) {
  Bytes name = bytes_of("batch-coin-adv");
  auto shares = shares_for(name, {0, 1, 2, 3});
  const auto& group = deal_.public_key.group();
  const BigInt delta(31337);
  shares[0].proof.z = group.scalar_add(shares[0].proof.z, delta);
  shares[3].proof.z = group.scalar_sub(shares[3].proof.z, delta);
  ASSERT_FALSE(all_individual(name, shares));
  EXPECT_FALSE(batch::verify_coin_shares(deal_.public_key, name, shares, rng_));
  EXPECT_EQ(batch::find_invalid_coin_shares(deal_.public_key, name, shares, rng_),
            (std::vector<std::size_t>{0, 3}));
}

TEST_F(BatchCoinTest, OptimisticCombineFingersCulpritAndRecovers) {
  // Four parties' shares, threshold three: after ejecting the one bad
  // share the remainder still qualifies, so the combiner both fingers the
  // culprit and produces the correct coin.
  Bytes name = bytes_of("batch-coin-recover");
  auto shares = shares_for(name, {0, 1, 2, 3});
  auto honest = deal_.public_key.combine(name, shares_for(name, {1, 2, 3}));
  ASSERT_TRUE(honest.has_value());
  shares[0].value = deal_.public_key.group().mul(shares[0].value,
                                                 deal_.public_key.group().g());
  auto result = batch::combine_coin_optimistic(deal_.public_key, name, shares, rng_);
  EXPECT_EQ(result.bad, std::vector<std::size_t>{0});
  ASSERT_TRUE(result.value.has_value());
  EXPECT_EQ(*result.value, *honest);
}

TEST_F(BatchCoinTest, OptimisticCombineBareQuorumFailsClosed) {
  // Exactly-threshold set with one bad share: the culprit is fingered and
  // no value can be produced from the remainder.
  Bytes name = bytes_of("batch-coin-bare");
  auto shares = shares_for(name, {0, 1, 2});
  shares[1].proof.z = deal_.public_key.group().scalar_add(shares[1].proof.z, BigInt(5));
  auto result = batch::combine_coin_optimistic(deal_.public_key, name, shares, rng_);
  EXPECT_FALSE(result.value.has_value());
  EXPECT_EQ(result.bad, std::vector<std::size_t>{1});
}

// -- TDH2 ---------------------------------------------------------------------

class BatchTdh2Test : public ::testing::Test {
 protected:
  BatchTdh2Test()
      : rng_(808), deal_(Tdh2Deal::deal(Group::test_group(),
                                        std::make_shared<ThresholdScheme>(5, 1), rng_)) {}

  Rng rng_;
  Tdh2Deal deal_;
};

TEST_F(BatchTdh2Test, DecSharesDifferential) {
  auto ct = deal_.public_key.encrypt(bytes_of("secret payload"), bytes_of("label"), rng_);
  std::vector<Tdh2DecShare> shares;
  for (int p = 0; p < 4; ++p) {
    for (auto& s : deal_.secret_keys[static_cast<std::size_t>(p)].decrypt_shares(
             deal_.public_key, ct, rng_)) {
      shares.push_back(s);
    }
  }
  for (const auto& s : shares) EXPECT_TRUE(deal_.public_key.verify_share(ct, s));
  EXPECT_TRUE(batch::verify_dec_shares(deal_.public_key, ct, shares, rng_));
  // Compensating tamper across two shares — must be fingered exactly.
  const auto& group = deal_.public_key.group();
  const BigInt delta(271828);
  shares[2].proof.z = group.scalar_add(shares[2].proof.z, delta);
  shares[3].proof.z = group.scalar_sub(shares[3].proof.z, delta);
  EXPECT_FALSE(batch::verify_dec_shares(deal_.public_key, ct, shares, rng_));
  EXPECT_EQ(batch::find_invalid_dec_shares(deal_.public_key, ct, shares, rng_),
            (std::vector<std::size_t>{2, 3}));
}

TEST_F(BatchTdh2Test, CiphertextBatchDifferential) {
  std::vector<Tdh2Ciphertext> cts;
  for (int i = 0; i < 8; ++i) {
    cts.push_back(deal_.public_key.encrypt(bytes_of("payload-" + std::to_string(i)),
                                           bytes_of("label"), rng_));
  }
  for (const auto& ct : cts) EXPECT_TRUE(deal_.public_key.check_ciphertext(ct));
  EXPECT_TRUE(batch::verify_ciphertexts(deal_.public_key, cts, rng_));
  const auto& group = deal_.public_key.group();
  const BigInt delta(314159);
  cts[1].f = group.scalar_add(cts[1].f, delta);
  cts[6].f = group.scalar_sub(cts[6].f, delta);
  EXPECT_FALSE(deal_.public_key.check_ciphertext(cts[1]));
  EXPECT_FALSE(deal_.public_key.check_ciphertext(cts[6]));
  EXPECT_FALSE(batch::verify_ciphertexts(deal_.public_key, cts, rng_));
  EXPECT_EQ(batch::find_invalid_ciphertexts(deal_.public_key, cts, rng_),
            (std::vector<std::size_t>{1, 6}));
}

// -- threshold RSA signature shares -------------------------------------------

class BatchSigTest : public ::testing::Test {
 protected:
  BatchSigTest()
      : rng_(606),
        deal_(ThresholdSigDeal::deal(RsaParams::precomputed(128),
                                     std::make_shared<ThresholdScheme>(5, 1), rng_)) {}

  std::vector<SigShare> shares_for(BytesView message, std::initializer_list<int> parties) {
    std::vector<SigShare> out;
    for (int p : parties) {
      for (auto& s : deal_.secret_keys[static_cast<std::size_t>(p)].sign(deal_.public_key,
                                                                         message, rng_)) {
        out.push_back(s);
      }
    }
    return out;
  }

  bool all_individual(BytesView message, const std::vector<SigShare>& shares) {
    for (const auto& s : shares) {
      if (!deal_.public_key.verify_share(message, s)) return false;
    }
    return true;
  }

  Rng rng_;
  ThresholdSigDeal deal_;
};

TEST_F(BatchSigTest, CleanBatchMatchesIndividual) {
  Bytes message = bytes_of("batch sig");
  auto shares = shares_for(message, {0, 1, 2, 3, 4});
  ASSERT_TRUE(all_individual(message, shares));
  EXPECT_TRUE(batch::verify_sig_shares(deal_.public_key, message, shares, rng_));
  EXPECT_TRUE(
      batch::find_invalid_sig_shares(deal_.public_key, message, shares, rng_).empty());
}

TEST_F(BatchSigTest, CompensatingResponsePairRejectedExactly) {
  // The proof response is outside the challenge hash; add delta to one and
  // subtract it from another so a fixed-weight product check cancels.
  Bytes message = bytes_of("batch sig adv");
  auto shares = shares_for(message, {0, 1, 2, 3});
  const BigInt delta(65537);
  shares[1].response = shares[1].response + delta;
  shares[2].response = shares[2].response - delta;
  ASSERT_FALSE(all_individual(message, shares));
  EXPECT_FALSE(batch::verify_sig_shares(deal_.public_key, message, shares, rng_));
  EXPECT_EQ(batch::find_invalid_sig_shares(deal_.public_key, message, shares, rng_),
            (std::vector<std::size_t>{1, 2}));
}

TEST_F(BatchSigTest, OptimisticCombineCleanAndFallback) {
  Bytes message = bytes_of("optimistic");
  auto shares = shares_for(message, {0, 1, 2});
  auto clean = batch::combine_sig_optimistic(deal_.public_key, message, shares, rng_);
  ASSERT_TRUE(clean.value.has_value());
  EXPECT_TRUE(clean.bad.empty());
  EXPECT_TRUE(deal_.public_key.verify(message, *clean.value));

  // One corrupted share among three (threshold two): fallback must finger
  // exactly the culprit and still deliver a valid signature.
  shares[0].value = BigInt::mul_mod(shares[0].value, BigInt(2), deal_.public_key.modulus());
  auto result = batch::combine_sig_optimistic(deal_.public_key, message, shares, rng_);
  EXPECT_EQ(result.bad, std::vector<std::size_t>{0});
  ASSERT_TRUE(result.value.has_value());
  EXPECT_TRUE(deal_.public_key.verify(message, *result.value));

  // Values outside Z_N* (no inverse for a negative Lagrange coefficient)
  // are fingered the same way, in any position, instead of throwing.
  for (const BigInt& bogus : {BigInt(0), deal_.public_key.modulus()}) {
    for (std::size_t i = 0; i < 3; ++i) {
      auto tampered = shares_for(message, {0, 1, 2});
      tampered[i].value = bogus;
      auto fingered = batch::combine_sig_optimistic(deal_.public_key, message, tampered, rng_);
      EXPECT_EQ(fingered.bad, std::vector<std::size_t>{i});
      ASSERT_TRUE(fingered.value.has_value());
      EXPECT_TRUE(deal_.public_key.verify(message, *fingered.value));
    }
  }
}

TEST_F(BatchSigTest, OptimisticCombineUnqualifiedSet) {
  Bytes message = bytes_of("unqualified");
  auto shares = shares_for(message, {0});
  auto result = batch::combine_sig_optimistic(deal_.public_key, message, shares, rng_);
  EXPECT_FALSE(result.value.has_value());
  EXPECT_TRUE(result.bad.empty());
}

}  // namespace
}  // namespace sintra::crypto
