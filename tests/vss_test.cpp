// Feldman VSS tests: share verification, public images, interaction with
// Lagrange reconstruction, rejection of inconsistent dealings.
#include <gtest/gtest.h>

#include "crypto/vss.hpp"

namespace sintra::crypto {
namespace {

class VssTest : public ::testing::Test {
 protected:
  GroupPtr group_ = Group::test_group();
  Rng rng_{77};
};

TEST_F(VssTest, AllSharesVerify) {
  BigInt secret = group_->random_scalar(rng_);
  auto dealing = FeldmanDealing::deal(*group_, secret, 7, 2, rng_);
  ASSERT_EQ(dealing.shares.size(), 7u);
  ASSERT_EQ(dealing.commitments.size(), 3u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(FeldmanDealing::verify_share(*group_, dealing.commitments, i,
                                             dealing.shares[static_cast<std::size_t>(i)]));
  }
}

TEST_F(VssTest, PublicImageIsGToSecret) {
  BigInt secret = group_->random_scalar(rng_);
  auto dealing = FeldmanDealing::deal(*group_, secret, 4, 1, rng_);
  EXPECT_EQ(dealing.public_image(), group_->exp_g(secret));
}

TEST_F(VssTest, ZeroSharingHasIdentityImage) {
  auto dealing = FeldmanDealing::deal(*group_, BigInt(0), 4, 1, rng_);
  EXPECT_EQ(dealing.public_image(), group_->identity());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(FeldmanDealing::verify_share(*group_, dealing.commitments, i,
                                             dealing.shares[static_cast<std::size_t>(i)]));
  }
}

TEST_F(VssTest, WrongShareRejected) {
  auto dealing = FeldmanDealing::deal(*group_, BigInt(42), 4, 1, rng_);
  BigInt bad = group_->scalar_add(dealing.shares[0], BigInt(1));
  EXPECT_FALSE(FeldmanDealing::verify_share(*group_, dealing.commitments, 0, bad));
  // A correct share of the wrong party also fails.
  EXPECT_FALSE(FeldmanDealing::verify_share(*group_, dealing.commitments, 1,
                                            dealing.shares[0]));
}

TEST_F(VssTest, TamperedCommitmentsRejectShares) {
  auto dealing = FeldmanDealing::deal(*group_, BigInt(42), 4, 1, rng_);
  auto tampered = dealing.commitments;
  tampered[1] = group_->mul(tampered[1], group_->g());
  EXPECT_FALSE(FeldmanDealing::verify_share(*group_, tampered, 0, dealing.shares[0]));
}

TEST_F(VssTest, ShareImageMatchesActualShares) {
  auto dealing = FeldmanDealing::deal(*group_, BigInt(7), 5, 2, rng_);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(FeldmanDealing::share_image(*group_, dealing.commitments, i),
              group_->exp_g(dealing.shares[static_cast<std::size_t>(i)]));
  }
}

TEST_F(VssTest, SharesInterpolateToSecret) {
  BigInt secret = group_->random_scalar(rng_);
  auto dealing = FeldmanDealing::deal(*group_, secret, 5, 2, rng_);
  // Lagrange over parties {0, 2, 4} (points 1, 3, 5).
  std::vector<int> points = {1, 3, 5};
  BigInt acc;
  for (std::size_t k = 0; k < points.size(); ++k) {
    BigInt coeff = lagrange_field(points, points[k], 0, group_->q());
    acc = group_->scalar_add(
        acc, group_->scalar_mul(coeff,
                                dealing.shares[static_cast<std::size_t>(points[k] - 1)]));
  }
  EXPECT_EQ(acc, secret);
}

TEST_F(VssTest, ZeroDealingRefreshPreservesSecretAndImages) {
  // The refresh algebra end-to-end, without the protocol: add a zero
  // dealing to an existing sharing; secret unchanged, shares re-randomized,
  // new verification values derivable from the commitments.
  BigInt secret = group_->random_scalar(rng_);
  auto base = FeldmanDealing::deal(*group_, secret, 4, 1, rng_);
  auto zero = FeldmanDealing::deal(*group_, BigInt(0), 4, 1, rng_);
  std::vector<BigInt> new_shares;
  for (int i = 0; i < 4; ++i) {
    new_shares.push_back(group_->scalar_add(base.shares[static_cast<std::size_t>(i)],
                                            zero.shares[static_cast<std::size_t>(i)]));
    // Public update of the verification value:
    Element updated = group_->mul(
        group_->exp_g(base.shares[static_cast<std::size_t>(i)]),
        FeldmanDealing::share_image(*group_, zero.commitments, i));
    EXPECT_EQ(updated, group_->exp_g(new_shares.back()));
    EXPECT_NE(new_shares.back(), base.shares[static_cast<std::size_t>(i)]);
  }
  // Interpolate new shares from parties {1, 3}: still the same secret.
  std::vector<int> points = {2, 4};
  BigInt acc;
  for (int p : points) {
    BigInt coeff = lagrange_field(points, p, 0, group_->q());
    acc = group_->scalar_add(
        acc, group_->scalar_mul(coeff, new_shares[static_cast<std::size_t>(p - 1)]));
  }
  EXPECT_EQ(acc, secret);
}

TEST_F(VssTest, BadParametersRejected) {
  EXPECT_THROW(FeldmanDealing::deal(*group_, BigInt(1), 0, 0, rng_), ProtocolError);
  EXPECT_THROW(FeldmanDealing::deal(*group_, BigInt(1), 4, 4, rng_), ProtocolError);
}

}  // namespace
}  // namespace sintra::crypto
