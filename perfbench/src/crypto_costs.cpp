#include "crypto_costs.hpp"

#include <algorithm>
#include <functional>

#include "app/replica.hpp"
#include "crypto/sha256.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using sintra::Bytes;

constexpr int kIterations = 15;

/// Median wall time of `op` in microseconds.
double median_us(const std::function<void()>& op) {
  std::vector<double> samples;
  samples.reserve(kIterations);
  for (int i = 0; i < kIterations; ++i) {
    const std::uint64_t start = now_ns();
    op();
    samples.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

std::vector<std::pair<std::string, double>> measure_crypto_costs(
    const sintra::adversary::Deployment& deployment, std::uint64_t seed) {
  sintra::Rng rng(seed ^ 0xc0ffee);
  const auto& pub = deployment.keys->public_keys();
  const auto& k0 = deployment.keys->share(0);
  const auto& k1 = deployment.keys->share(1);
  std::vector<std::pair<std::string, double>> out;
  bool ok = true;

  // Reply key: what a replica signs and a client verifies and combines.
  sintra::app::RequestEnvelope envelope{4, 1, sintra::bytes_of("perfbench request")};
  const Bytes statement =
      sintra::app::reply_statement("svc", envelope, sintra::bytes_of("perfbench reply"));
  auto s0 = k0.reply_sig.sign(pub.reply_sig, statement, rng);
  auto s1 = k1.reply_sig.sign(pub.reply_sig, statement, rng);
  std::vector<sintra::crypto::SigShare> pair_shares = s0;
  pair_shares.insert(pair_shares.end(), s1.begin(), s1.end());
  const auto signature = pub.reply_sig.combine(statement, pair_shares);
  ok = ok && signature.has_value();
  out.emplace_back("crypto.reply_sign_us", median_us([&] {
                     auto s = k0.reply_sig.sign(pub.reply_sig, statement, rng);
                     ok = ok && !s.empty();
                   }));
  out.emplace_back("crypto.reply_verify_share_us", median_us([&] {
                     ok = ok && pub.reply_sig.verify_share(statement, s0.front());
                   }));
  out.emplace_back("crypto.reply_combine_us", median_us([&] {
                     ok = ok && pub.reply_sig.combine(statement, pair_shares).has_value();
                   }));
  out.emplace_back("crypto.receipt_verify_us", median_us([&] {
                     ok = ok && signature && pub.reply_sig.verify(statement, *signature);
                   }));

  // Certificate key: atomic-broadcast batches and consistent-broadcast
  // certificates.
  auto c0 = k0.cert_sig.sign(pub.cert_sig, statement, rng);
  out.emplace_back("crypto.cert_sign_us", median_us([&] {
                     auto s = k0.cert_sig.sign(pub.cert_sig, statement, rng);
                     ok = ok && !s.empty();
                   }));
  out.emplace_back("crypto.cert_verify_share_us", median_us([&] {
                     ok = ok && pub.cert_sig.verify_share(statement, c0.front());
                   }));

  // Threshold coin: ABBA rounds and the VBA permutation.
  const Bytes coin_name = sintra::bytes_of("perfbench/coin");
  auto coin = k0.coin.share(pub.coin, coin_name, rng);
  out.emplace_back("crypto.coin_share_us", median_us([&] {
                     auto s = k0.coin.share(pub.coin, coin_name, rng);
                     ok = ok && !s.empty();
                   }));
  out.emplace_back("crypto.coin_verify_us", median_us([&] {
                     ok = ok && pub.coin.verify_share(coin_name, coin.front());
                   }));

  // TDH2: the notary's request encryption and decryption shares.
  const Bytes plaintext = sintra::bytes_of("perfbench notary document envelope");
  const Bytes label = sintra::bytes_of("svc");
  const auto ciphertext = pub.encryption.encrypt(plaintext, label, rng);
  auto d0 = k0.decryption.decrypt_shares(pub.encryption, ciphertext, rng);
  auto d1 = k1.decryption.decrypt_shares(pub.encryption, ciphertext, rng);
  std::vector<sintra::crypto::Tdh2DecShare> dec_pair = d0;
  dec_pair.insert(dec_pair.end(), d1.begin(), d1.end());
  out.emplace_back("crypto.tdh2_encrypt_us", median_us([&] {
                     auto ct = pub.encryption.encrypt(plaintext, label, rng);
                     ok = ok && !ct.data.empty();
                   }));
  out.emplace_back("crypto.tdh2_dec_share_us", median_us([&] {
                     auto s = k0.decryption.decrypt_shares(pub.encryption, ciphertext, rng);
                     ok = ok && !s.empty();
                   }));
  out.emplace_back("crypto.tdh2_verify_share_us", median_us([&] {
                     ok = ok && pub.encryption.verify_share(ciphertext, d0.front());
                   }));
  out.emplace_back("crypto.tdh2_combine_us", median_us([&] {
                     const auto combined = pub.encryption.combine(ciphertext, dec_pair);
                     ok = ok && combined.has_value() && *combined == plaintext;
                   }));

  if (!ok) out.clear();  // a failing primitive is a correctness failure
  return out;
}

}  // namespace perfbench
