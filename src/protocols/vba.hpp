// Multi-valued validated Byzantine agreement (§3, following CKPS01).
//
// Agreement on a value from an arbitrary domain with *external validity*:
// the caller supplies a global predicate Q, every honest party proposes a
// value satisfying Q, and the decided value is guaranteed to satisfy Q and
// to have been validated by at least one honest party.  This rules out
// deciding a value nobody proposed — the property the paper highlights as
// the key difficulty of multi-valued agreement.
//
// Structure:
//  1. Every party consistent-broadcasts its proposal (transferable quorum
//     certificate; uniqueness per sender).
//  2. The caller names the first candidate (atomic broadcast rotates it
//     with the round).  Its binary agreement (ABBA, index 0) exists from
//     the start: a party inputs 1 as soon as that candidate's certified,
//     Q-valid proposal is delivered, and 0 once it holds a full quorum of
//     delivered proposals without it.  When every honest party inputs 1
//     the VBA decides without any coin.
//  3. Only a 0 decision at index 0 releases shares of a *permutation
//     coin*, and only from a party holding a full quorum of proposals.
//     The combined coin orders all n candidates for indices 1, 2, ...
//     unpredictably, so the adversary cannot pre-arrange which proposals
//     get examined after the predictable first one.
//  4. Each candidate gets one ABBA: party k's input is "do I hold the
//     candidate's certified, Q-valid proposal?".  ABBA decides only some
//     honest party's input, so decided 1 => some honest party holds the
//     proposal (so everyone can FETCH it); all honest hold it => decided
//     1.  Past index 0 the index wraps modulo n over the permutation,
//     which makes termination deterministic once all honest-sender
//     proposals have propagated: at the latest on the second pass (2n + 1
//     candidates in all) every honest party inputs 1 for an honest
//     candidate.  An adversary who knows the first candidate can force
//     at most that one extra ABBA before the coin (PROTOCOLS.md, "VBA").
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "crypto/coin.hpp"
#include "protocols/abba.hpp"
#include "protocols/consistent.hpp"

namespace sintra::protocols {

class Vba final : public ProtocolInstance {
 public:
  /// External validity predicate Q; must be deterministic and evaluable by
  /// every honest party on any candidate value.
  using Predicate = std::function<bool(BytesView value)>;
  using DecideFn = std::function<void(Bytes value)>;

  /// `first_candidate` is protocol input: every party must pass the same
  /// party index (0..n-1).
  Vba(net::Party& host, std::string tag, int first_candidate, Predicate predicate,
      DecideFn decide);

  /// Propose a value; Q(value) must hold.
  void propose(Bytes value);

  [[nodiscard]] bool decided() const { return decided_; }
  /// Number of ABBA candidates examined before deciding (1 = first hit);
  /// exposed for the round-complexity experiments.
  [[nodiscard]] int candidates_tried() const { return candidate_index_ + 1; }
  /// Parties caught sending well-formed-but-invalid permutation-coin
  /// shares (each share vector is checked on arrival).
  [[nodiscard]] crypto::PartySet suspected() const { return suspected_; }

 private:
  enum MsgType : std::uint8_t {
    kPermShare = 0,
    kFetch = 1,
    kProposal = 2,
  };

  void handle(int from, Reader& reader) override;
  void on_proposal_delivered(int sender, CertifiedMessage cm);
  void store_proposal(int sender, CertifiedMessage cm);
  void maybe_start_first();
  void maybe_release_perm_coin();
  void on_perm_share(int from, Reader& reader);
  void adopt_permutation(BytesView coin_value);
  void maybe_start_candidate();
  [[nodiscard]] std::unique_ptr<Abba> make_candidate_ba(int index);
  void on_abba_decided(int candidate_index, bool value);
  void finish(int sender);

  [[nodiscard]] Bytes perm_coin_name() const;
  [[nodiscard]] int candidate_at(int index) const;

  int first_candidate_;
  Predicate predicate_;
  DecideFn decide_;
  bool decided_ = false;

  std::vector<std::unique_ptr<ConsistentBroadcast>> proposals_cb_;  ///< one per sender
  std::vector<std::optional<CertifiedMessage>> proposals_;          ///< validated proposals
  crypto::PartySet have_ = 0;

  bool perm_released_ = false;
  crypto::ShareTally<crypto::CoinShare> perm_shares_;
  crypto::PartySet suspected_ = 0;
  std::optional<std::vector<int>> permutation_;

  /// Current ABBA index: 0 is the first candidate, 1.. walk the permutation.
  int candidate_index_ = 0;
  bool first_started_ = false;
  std::vector<std::unique_ptr<Abba>> candidate_ba_;  ///< index 0 built with the instance
  std::optional<int> pending_fetch_;                 ///< candidate decided 1, proposal missing
};

}  // namespace sintra::protocols
