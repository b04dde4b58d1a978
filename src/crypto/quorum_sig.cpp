#include "crypto/quorum_sig.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "crypto/share_tally.hpp"

namespace sintra::crypto {

namespace {
constexpr std::string_view kNonceDomain = "sintra/qsig/nonce";
constexpr std::string_view kChallengeDomain = "sintra/qsig/challenge";

BigInt challenge(const Group& group, int unit, const Element& vk, const Element& r,
                 BytesView statement) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(unit));
  group.encode_element(w, vk);
  group.encode_element(w, r);
  w.raw(statement);
  return group.hash_to_scalar(kChallengeDomain, w.data());
}
}  // namespace

void QuorumSig::encode(Writer& w, const Group& group) const {
  w.u32(static_cast<std::uint32_t>(unit));
  group.encode_scalar(w, c);
  group.encode_scalar(w, z);
}

QuorumSig QuorumSig::decode(Reader& r, const Group& group) {
  QuorumSig sig;
  sig.unit = static_cast<int>(r.u32());
  sig.c = group.decode_scalar(r);
  sig.z = group.decode_scalar(r);
  return sig;
}

std::vector<QuorumSig> QuorumSigSecretKey::sign(const QuorumSigPublicKey& pk,
                                                BytesView statement) const {
  const Group& group = pk.group();
  std::vector<QuorumSig> out;
  out.reserve(unit_shares_.size());
  for (const auto& [unit, x] : unit_shares_) {
    Writer seed;
    group.encode_scalar(seed, x);
    seed.u32(static_cast<std::uint32_t>(unit));
    seed.raw(statement);
    const BigInt k = group.hash_to_scalar(kNonceDomain, seed.data());
    SINTRA_INVARIANT(!k.is_zero(), "quorum sig: zero nonce");
    QuorumSig sig;
    sig.unit = unit;
    sig.c = challenge(group, unit, pk.verification(unit), group.exp_g(k), statement);
    sig.z = group.scalar_add(k, group.scalar_mul(sig.c, x));
    out.push_back(std::move(sig));
  }
  return out;
}

QuorumSigPublicKey::QuorumSigPublicKey(GroupPtr group, std::shared_ptr<const LinearScheme> scheme,
                                       std::vector<Element> verification)
    : group_(std::move(group)), scheme_(std::move(scheme)),
      verification_(std::move(verification)) {
  // Every verification exponentiates the signer's X_u: keep it on a table.
  for (const Element& vk : verification_) group_->precompute_base(vk);
}

bool QuorumSigPublicKey::verify(BytesView statement, const QuorumSig& sig) const {
  if (sig.unit < 0 || sig.unit >= scheme_->num_units()) return false;
  if (!group_->is_scalar(sig.c) || !group_->is_scalar(sig.z)) return false;
  const Element& vk = verification_.at(static_cast<std::size_t>(sig.unit));
  // R = g^z · X_u^{-c}; on the curve backend both bases are on their
  // fixed-base tables.
  const Element r = group_->exp2(group_->g(), sig.z, vk, group_->scalar_sub(BigInt(0), sig.c));
  return challenge(*group_, sig.unit, vk, r, statement) == sig.c;
}

std::optional<PartySet> QuorumSigPublicKey::verify_set(BytesView statement,
                                                       const std::vector<QuorumSig>& sigs,
                                                       const std::vector<QuorumSig>& trusted) const {
  // Structure first (cheap): group by signer, each signer's vector must
  // pass the same admission rule as a ShareTally.
  std::vector<std::vector<QuorumSig>> by_signer(static_cast<std::size_t>(scheme_->num_parties()));
  for (const QuorumSig& sig : sigs) {
    if (sig.unit < 0 || sig.unit >= scheme_->num_units()) return std::nullopt;
    by_signer[static_cast<std::size_t>(scheme_->unit_owner(sig.unit))].push_back(sig);
  }
  PartySet signers = 0;
  for (std::size_t party = 0; party < by_signer.size(); ++party) {
    if (by_signer[party].empty()) continue;
    if (!covers_own_units(*scheme_, static_cast<int>(party), by_signer[party])) {
      return std::nullopt;
    }
    signers |= party_bit(static_cast<int>(party));
  }
  for (const QuorumSig& sig : sigs) {
    if (std::find(trusted.begin(), trusted.end(), sig) != trusted.end()) continue;
    if (!verify(statement, sig)) return std::nullopt;
  }
  return signers;
}

QuorumSigDeal QuorumSigDeal::deal(GroupPtr group, std::shared_ptr<const LinearScheme> scheme,
                                  Rng& rng) {
  const BigInt secret = BigInt::random_below(rng, group->q());
  std::vector<BigInt> unit_values = scheme->deal(secret, group->q(), rng);

  std::vector<Element> verification;
  verification.reserve(unit_values.size());
  for (const BigInt& x : unit_values) verification.push_back(group->exp_g(x));

  std::vector<QuorumSigSecretKey> secret_keys;
  secret_keys.reserve(static_cast<std::size_t>(scheme->num_parties()));
  for (int party = 0; party < scheme->num_parties(); ++party) {
    std::map<int, BigInt> held;
    for (int unit : scheme->units_of(party)) {
      held.emplace(unit, unit_values[static_cast<std::size_t>(unit)]);
    }
    secret_keys.emplace_back(party, std::move(held));
  }
  return QuorumSigDeal{
      QuorumSigPublicKey(std::move(group), std::move(scheme), std::move(verification)),
      std::move(secret_keys)};
}

}  // namespace sintra::crypto
