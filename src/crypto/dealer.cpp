#include "crypto/dealer.hpp"

#include "common/assert.hpp"
#include "crypto/sha256.hpp"
#include "crypto/shamir.hpp"

namespace sintra::crypto {

KeyBundle KeyBundle::deal(GroupPtr group, std::shared_ptr<const LinearScheme> low,
                          std::shared_ptr<const LinearScheme> high, const RsaParams& rsa,
                          Rng& rng) {
  SINTRA_REQUIRE(low->num_parties() == high->num_parties(),
                 "dealer: access structures disagree on party count");
  const int n = low->num_parties();

  CoinDeal coin = CoinDeal::deal(group, low, rng);
  ThresholdSigDeal cert_sig = ThresholdSigDeal::deal(rsa, high, rng);
  ThresholdSigDeal reply_sig = ThresholdSigDeal::deal(rsa, low, rng);
  Tdh2Deal encryption = Tdh2Deal::deal(group, low, rng);

  // Pairwise channel keys (symmetric: pair_keys[i][j] == pair_keys[j][i]).
  std::vector<std::vector<Bytes>> pair_keys(static_cast<std::size_t>(n),
                                            std::vector<Bytes>(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      Bytes key = rng.bytes(32);
      pair_keys[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = key;
      pair_keys[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = std::move(key);
    }
  }

  // Dealt after everything else, so the other keys' bytes under a given
  // seed do not depend on it.
  QuorumSigDeal quorum_sig = QuorumSigDeal::deal(group, high, rng);

  std::vector<PartyKeyShare> shares;
  shares.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    shares.push_back(PartyKeyShare{
        std::move(coin.secret_keys[static_cast<std::size_t>(i)]),
        std::move(cert_sig.secret_keys[static_cast<std::size_t>(i)]),
        std::move(reply_sig.secret_keys[static_cast<std::size_t>(i)]),
        std::move(encryption.secret_keys[static_cast<std::size_t>(i)]),
        std::move(quorum_sig.secret_keys[static_cast<std::size_t>(i)]),
        std::move(pair_keys[static_cast<std::size_t>(i)])});
  }

  PublicKeys public_keys{std::move(coin.public_key), std::move(cert_sig.public_key),
                         std::move(reply_sig.public_key), std::move(encryption.public_key),
                         std::move(quorum_sig.public_key)};
  return KeyBundle(std::move(public_keys), std::move(shares));
}

Bytes derive_link_key(BytesView channel_key) {
  return hash_expand("sintra/transport/link-key", channel_key, 32);
}

KeyBundle KeyBundle::deal_threshold(int n, int t, Rng& rng, GroupPtr group) {
  SINTRA_REQUIRE(n > 3 * t, "dealer: resilience requires n > 3t");
  auto low = std::make_shared<const ThresholdScheme>(n, t);
  auto high = std::make_shared<const ThresholdScheme>(n, n - t - 1);
  return deal(std::move(group), std::move(low), std::move(high), RsaParams::precomputed(128),
              rng);
}

}  // namespace sintra::crypto
