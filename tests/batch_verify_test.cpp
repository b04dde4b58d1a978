// Differential tests for the batch verifier (crypto/batch.hpp): on every
// input, the batched check must agree with running the strict individual
// verifier over the whole set — batch accepts iff all individual proofs
// accept — and the RSA bisection must return exactly the corrupted
// indices.  Includes adversarial share pairs with compensating errors that
// a naive (fixed-weight) sum-check would accept; the independent random
// weights must reject them.
#include <gtest/gtest.h>

#include "crypto/batch.hpp"
#include "crypto/shamir.hpp"

namespace sintra::crypto {
namespace {

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
  EXPECT_TRUE(batch::verify_coin_shares(deal_.public_key, name, {}, rng_));
  EXPECT_TRUE(deal_.public_key.combine(name, shares).has_value());
}

TEST_F(BatchCoinTest, EverySingleCorruptionDetected) {
  // Differential sweep: one corrupted position at a time, across the whole
  // batch — batch accept must track all-individual accept exactly.
  Bytes name = bytes_of("batch-coin-sweep");
  const auto& group = deal_.public_key.group();
  for (std::size_t bad = 0; bad < 6; ++bad) {
    auto shares = shares_for(name, {0, 1, 2, 3, 4, 5});
    switch (bad % 3) {
      case 0: shares[bad].proof.z = group.scalar_add(shares[bad].proof.z, BigInt(7)); break;
      case 1: shares[bad].proof.a1 = group.mul(shares[bad].proof.a1, group.g()); break;
      default: shares[bad].value = group.mul(shares[bad].value, group.g()); break;
    }
    ASSERT_FALSE(all_individual(name, shares));
    EXPECT_FALSE(batch::verify_coin_shares(deal_.public_key, name, shares, rng_)) << bad;
  }
}

TEST_F(BatchCoinTest, CompensatingTamperedPairRejected) {
  // The response z is outside the Fiat–Shamir hash, so adding delta to one
  // proof's response and subtracting it from another multiplies the two
  // equation sides by g^delta and g^-delta: a naive fixed-weight sum-check
  // cancels the errors and accepts.  Independent random weights make the
  // cancellation happen with probability 2^-128.
  Bytes name = bytes_of("batch-coin-adv");
  auto shares = shares_for(name, {0, 1, 2, 3});
  const auto& group = deal_.public_key.group();
  const BigInt delta(31337);
  shares[0].proof.z = group.scalar_add(shares[0].proof.z, delta);
  shares[3].proof.z = group.scalar_sub(shares[3].proof.z, delta);
  ASSERT_FALSE(all_individual(name, shares));
  EXPECT_FALSE(batch::verify_coin_shares(deal_.public_key, name, shares, rng_));
}

TEST_F(BatchCoinTest, CrossEquationCompensationRejected) {
  // Within ONE proof: grow the first equation's commitment by d and shrink
  // the second's by d.  A batch that reused one weight for both equations
  // of a DLEQ proof would cancel these; independent weights must not.
  Bytes name = bytes_of("batch-coin-cross");
  auto shares = shares_for(name, {0, 1, 2, 3});
  const auto& group = deal_.public_key.group();
  const Element d = group.exp_g(BigInt(42));
  shares[2].proof.a1 = group.mul(shares[2].proof.a1, d);
  shares[2].proof.a2 = group.mul(shares[2].proof.a2, group.inv(d));
  ASSERT_FALSE(all_individual(name, shares));
  EXPECT_FALSE(batch::verify_coin_shares(deal_.public_key, name, shares, rng_));
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
  // Compensating tamper across two shares — must be rejected.
  const auto& group = deal_.public_key.group();
  const BigInt delta(271828);
  shares[2].proof.z = group.scalar_add(shares[2].proof.z, delta);
  shares[3].proof.z = group.scalar_sub(shares[3].proof.z, delta);
  EXPECT_FALSE(batch::verify_dec_shares(deal_.public_key, ct, shares, rng_));
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
