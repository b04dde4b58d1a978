// Share collection for threshold combines.  Every broadcast and agreement
// step certifies by combining: it collects threshold shares (signature,
// coin or TDH2 decryption shares) until their senders are ready (a quorum,
// or qualified under the sharing scheme), then combines them into one
// certificate, coin value or plaintext.  A ShareTally is one such
// collection, and every site follows one rule: a peer's vector is checked
// when it arrives, the party's own is trusted, a sender whose vector fails
// is struck and never heard again, and the set is combined inline once it
// qualifies (PROTOCOLS.md, "Certify by combining").  The tally owns the
// admission rule (covers_own_units: a sender's vector counts once, never
// after the sender was struck, and only if it holds exactly the sender's
// units), the support set, the shares and strike.  Readiness, the check
// itself and what the result is for stay with the caller; consistent
// broadcast collects quorum signatures (quorum_sig.hpp) in one and uses
// the admitted set itself as its certificate.
#pragma once

#include <iterator>
#include <vector>

#include "common/assert.hpp"
#include "crypto/sharing.hpp"

namespace sintra::crypto {

/// Structural admission: true iff `shares` carry exactly the units `party`
/// holds, each once (so never none).  Whether their values are valid is
/// left to the caller's verification or to the combined result.
template <class Share>
[[nodiscard]] bool covers_own_units(const LinearScheme& scheme, int party,
                                    const std::vector<Share>& shares) {
  const int units = scheme.num_units();
  std::size_t held = 0;
  for (int unit = 0; unit < units; ++unit) held += scheme.unit_owner(unit) == party ? 1 : 0;
  if (shares.empty() || shares.size() != held) return false;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const int unit = shares[i].unit;
    if (unit < 0 || unit >= units || scheme.unit_owner(unit) != party) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (shares[j].unit == unit) return false;
    }
  }
  return true;
}

template <class Share>
class ShareTally {
 public:
  /// Count `from`'s share vector.  Returns false, changing nothing, when
  /// `from` was already counted or struck (a duplicate or a replay).
  /// Throws ProtocolError(`refusal`) unless the vector holds exactly
  /// `from`'s units.  A peer's vector must then pass `valid`; one that
  /// fails strikes `from`, so it is checked only once, and throws
  /// ProtocolError(`invalid`).  The vector of `me`, this party, is its own
  /// signing and is trusted.
  template <class Valid>
  bool admit(const LinearScheme& scheme, int from, int me, std::vector<Share> shares,
             const char* refusal, const char* invalid, Valid&& valid) {
    if (seen(from)) return false;
    SINTRA_REQUIRE(covers_own_units(scheme, from, shares), refusal);
    if (from != me && !valid(shares)) {
      struck_ |= party_bit(from);
      throw ProtocolError(invalid);
    }
    count(from, std::move(shares));
    return true;
  }

  /// Structural admission only, for a collector that checks what the
  /// shares combine to and strikes the culprits of a failed combine.
  bool admit(const LinearScheme& scheme, int from, std::vector<Share> shares,
             const char* refusal) {
    if (seen(from)) return false;
    SINTRA_REQUIRE(covers_own_units(scheme, from, shares), refusal);
    count(from, std::move(shares));
    return true;
  }

  [[nodiscard]] PartySet support() const { return support_; }
  [[nodiscard]] const std::vector<Share>& shares() const { return shares_; }
  /// Counted or struck: a vector from `party` is no longer admitted.
  [[nodiscard]] bool seen(int party) const { return contains(support_ | struck_, party); }

  /// Strike the senders of the shares at indices `bad` (a failed
  /// combine's culprits); returns them.
  PartySet strike(const LinearScheme& scheme, const std::vector<std::size_t>& bad) {
    PartySet culprits = 0;
    for (std::size_t i : bad) culprits |= party_bit(scheme.unit_owner(shares_[i].unit));
    return bar(scheme, culprits);
  }

  /// Free the shares once the combined result subsumes them.
  void release_shares() {
    shares_.clear();
    shares_.shrink_to_fit();
  }

 private:
  void count(int from, std::vector<Share> shares) {
    support_ |= party_bit(from);
    if (shares_.empty()) {
      shares_ = std::move(shares);
    } else {
      shares_.insert(shares_.end(), std::make_move_iterator(shares.begin()),
                     std::make_move_iterator(shares.end()));
    }
  }

  /// Culprits lose their support and every share, and are barred.
  PartySet bar(const LinearScheme& scheme, PartySet culprits) {
    if (culprits == 0) return 0;
    support_ &= ~culprits;
    struck_ |= culprits;
    std::erase_if(shares_, [&](const Share& s) {
      return contains(culprits, scheme.unit_owner(s.unit));
    });
    return culprits;
  }

  PartySet support_ = 0;
  PartySet struck_ = 0;
  std::vector<Share> shares_;
};

}  // namespace sintra::crypto
