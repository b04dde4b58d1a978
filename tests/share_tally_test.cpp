// ShareTally unit tests: the one admission rule, the check on arrival, the
// trusted own vector and strike, over the Example 2 LSSS scheme, where
// every party holds several units and a partial vector is possible.
#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/examples.hpp"
#include "adversary/lsss.hpp"
#include "crypto/share_tally.hpp"

namespace sintra::crypto {
namespace {

/// Any type with a `unit` field is a share to the tally.
struct FakeShare {
  int unit = 0;
  int value = 0;
};

class ShareTallyTest : public ::testing::Test {
 protected:
  ShareTallyTest() : scheme_(adversary::example2_access(), 16) {}

  /// One share for every unit `party` holds, in order.
  std::vector<FakeShare> own(int party) const {
    std::vector<FakeShare> shares;
    for (int unit : scheme_.units_of(party)) shares.push_back({unit, party});
    return shares;
  }

  bool admit(int party, std::vector<FakeShare> shares) {
    return tally_.admit(scheme_, party, std::move(shares), "not the sender's units");
  }

  adversary::LsssScheme scheme_;
  ShareTally<FakeShare> tally_;
};

TEST_F(ShareTallyTest, CountsExactlyTheSendersUnitsOnce) {
  ASSERT_GT(scheme_.units_of(15).size(), 1u);
  EXPECT_TRUE(admit(15, own(15)));
  EXPECT_EQ(tally_.support(), party_bit(15));
  EXPECT_EQ(tally_.shares().size(), scheme_.units_of(15).size());
  EXPECT_TRUE(tally_.seen(15));
  // A replay is no error, and counts nothing.
  EXPECT_FALSE(admit(15, own(15)));
  EXPECT_EQ(tally_.shares().size(), scheme_.units_of(15).size());
  // Unit order within the vector does not matter.
  auto reversed = own(3);
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_TRUE(admit(3, std::move(reversed)));
  EXPECT_EQ(tally_.support(), party_bit(15) | party_bit(3));
}

TEST_F(ShareTallyTest, RefusesEveryOtherVectorAndStillCountsTheHonestCopy) {
  auto partial = own(15);
  partial.pop_back();
  auto duplicated = own(15);
  duplicated.back() = duplicated.front();
  auto foreign = own(15);
  foreign.back().unit = scheme_.units_of(14).front();
  auto out_of_range = own(15);
  out_of_range.back().unit = scheme_.num_units();
  auto extra = own(15);
  extra.push_back(extra.front());
  for (auto* shares : {&partial, &duplicated, &foreign, &out_of_range, &extra}) {
    EXPECT_THROW(admit(15, *shares), ProtocolError);
  }
  EXPECT_THROW(admit(15, {}), ProtocolError);
  EXPECT_EQ(tally_.support(), 0u);
  EXPECT_TRUE(tally_.shares().empty());
  EXPECT_FALSE(tally_.seen(15));
  EXPECT_TRUE(admit(15, own(15)));
}

TEST_F(ShareTallyTest, VerifyOnArrivalCheckRunsAfterTheStructureCheck) {
  int checked = 0;
  auto accept = [&](const std::vector<FakeShare>&) {
    ++checked;
    return true;
  };
  auto partial = own(15);
  partial.pop_back();
  EXPECT_THROW(tally_.admit(scheme_, 15, 0, partial, "refused", "invalid", accept),
               ProtocolError);
  EXPECT_EQ(checked, 0);
  EXPECT_FALSE(tally_.seen(15));  // a malformed vector bars nobody
  EXPECT_TRUE(tally_.admit(scheme_, 15, 0, own(15), "refused", "invalid", accept));
  EXPECT_EQ(checked, 1);
  EXPECT_EQ(tally_.support(), party_bit(15));
}

TEST_F(ShareTallyTest, AFailedCheckBarsTheSenderSoItIsCheckedOnce) {
  int checked = 0;
  auto reject = [&](const std::vector<FakeShare>&) {
    ++checked;
    return false;
  };
  EXPECT_THROW(tally_.admit(scheme_, 15, 0, own(15), "refused", "invalid", reject),
               ProtocolError);
  EXPECT_TRUE(tally_.seen(15));
  EXPECT_EQ(tally_.support(), 0u);
  EXPECT_TRUE(tally_.shares().empty());
  // Its later vectors, valid or not, are neither checked nor counted.
  EXPECT_FALSE(tally_.admit(scheme_, 15, 0, own(15), "refused", "invalid", reject));
  EXPECT_EQ(checked, 1);
}

TEST_F(ShareTallyTest, TheOwnVectorIsTrustedAndStillStructurallyChecked) {
  int checked = 0;
  auto reject = [&](const std::vector<FakeShare>&) {
    ++checked;
    return false;
  };
  auto partial = own(3);
  partial.pop_back();
  EXPECT_THROW(tally_.admit(scheme_, 3, 3, partial, "refused", "invalid", reject), ProtocolError);
  EXPECT_TRUE(tally_.admit(scheme_, 3, 3, own(3), "refused", "invalid", reject));
  EXPECT_EQ(checked, 0);
  EXPECT_EQ(tally_.support(), party_bit(3));
}

TEST_F(ShareTallyTest, StrikeErasesEveryShareOfTheCulpritAndBarsIt) {
  ASSERT_TRUE(admit(15, own(15)));
  ASSERT_TRUE(admit(3, own(3)));
  // One bad share of party 15 strikes all of its shares.
  EXPECT_EQ(tally_.strike(scheme_, {1}), party_bit(15));
  EXPECT_EQ(tally_.support(), party_bit(3));
  EXPECT_EQ(tally_.shares().size(), scheme_.units_of(3).size());
  for (const FakeShare& share : tally_.shares()) EXPECT_EQ(share.value, 3);
  EXPECT_TRUE(tally_.seen(15));
  EXPECT_FALSE(admit(15, own(15)));
  EXPECT_EQ(tally_.strike(scheme_, {}), 0u);
}

}  // namespace
}  // namespace sintra::crypto
