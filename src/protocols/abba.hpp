// ABBA — asynchronous binary Byzantine agreement in the style of Cachin,
// Kursawe & Shoup (PODC 2000): randomized, optimal resilience (n > 3t /
// Q³), expected constant rounds, constant-size messages via threshold
// signatures, powered by the Diffie–Hellman threshold coin.
//
// Round structure (r = 1, 2, ...):
//
//  INPUT(v): each party opens by broadcasting signature shares (under the
//  "beyond one fault set" scheme) on its proposal.  A value v is *anchored*
//  once shares from a fault-set-exceeding set combine into sigma_input(v) —
//  proof that at least one honest party proposed v.  Q³ guarantees that
//  among the honest parties at least one value anchors.
//
//  PRE-VOTE(r, v): justified by
//    - sigma_input(v) for r = 1 (so corrupted parties cannot inject a
//      value no honest party proposed — this is what gives validity);
//    - HARD:  sigma_pre(r-1, v), a threshold signature proving a full
//             quorum pre-voted v in round r-1 (obtained from a main-vote);
//    - COIN:  sigma_main(r-1, abstain), a threshold signature proving a
//             full quorum main-voted abstain in r-1, AND v equals the
//             round-(r-1) coin (checked lazily once the coin is known).
//
//  MAIN-VOTE(r): after accepting pre-votes from a full quorum:
//    - v        if all accepted pre-votes were for v; carries
//               sigma_pre(r, v) combined from their signature shares;
//    - abstain  otherwise (no justification needed: an abstain
//               *certificate* requires a quorum of abstain shares, which
//               cannot form unless honest parties genuinely abstained).
//
//  End of round: release the round-r coin share.  After main-votes from a
//  full quorum:
//    - all v        -> DECIDE v, broadcast sigma_main(r, v);
//    - some v       -> pre-vote v in r+1 with HARD justification;
//    - all abstain  -> wait for the coin, pre-vote coin(r) with COIN
//                      justification.
//
//  DECIDE(r, v, sigma_main(r, v)) is transferable: any party accepting it
//  decides, re-broadcasts it once, and halts.
//
// Why validity holds: if every honest party proposes v, then ~v never
// anchors, so every accepted round-1 pre-vote is v, every honest main-vote
// is v, no abstain certificate can form, and neither a ~v hard
// justification nor a ~v coin pre-vote is ever valid; v is decided as soon
// as the honest main-votes accumulate.
// Why agreement holds: two quorums intersect in an honest party, so
// sigma_pre(r, 0) and sigma_pre(r, 1) cannot coexist, and after a decision
// for v neither a ~v hard justification nor an abstain certificate can
// form.  Why termination is expected-constant: each round, either all
// honest parties adopt the coin (unanimous next round), or a unique hard
// value exists and the unpredictable coin matches it with probability 1/2.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>

#include "protocols/base.hpp"

namespace sintra::protocols {

class Abba final : public ProtocolInstance {
 public:
  /// decide(value, round) — round reported for the round-complexity
  /// experiments (E2).
  using DecideFn = std::function<void(bool value, int round)>;

  Abba(net::Party& host, std::string tag, DecideFn decide);
  ~Abba() override;

  /// Re-entry with the same input re-broadcasts INPUT (crash-recovery
  /// replay); a flipped input throws.
  void start(bool input);

  /// WAL compaction (opt-in): once decided, this instance's WAL entries
  /// are pruned — the registered checkpoint carries the decision across a
  /// restart instead of a full message replay.  Only sound for instances
  /// that exist when Party::restore runs (factory-built, not lazily
  /// spawned sub-instances — their checkpoint blob would find no loader
  /// and the pruned entries could not be replayed either).
  void enable_compaction() { compaction_ = true; }

  [[nodiscard]] bool decided() const { return decided_; }
  [[nodiscard]] std::optional<bool> decision() const { return decision_; }

  /// Parties caught sending well-formed-but-invalid input, pre-vote,
  /// main-vote or coin shares (fingered by the batch verifier's bisection).
  [[nodiscard]] crypto::PartySet suspected() const { return suspected_; }

  /// Introspection for the memory-budget tests.
  [[nodiscard]] std::size_t live_rounds() const { return rounds_.size(); }
  [[nodiscard]] std::size_t deferred_count() const { return deferred_.size(); }

 private:
  enum MsgType : std::uint8_t {
    kInput = 4,
    kPreVote = 0,
    kMainVote = 1,
    kCoinShare = 2,
    kDecide = 3,
    kCoinVerdict = 5,  ///< self-message: off-loop coin batch-verify result
  };
  enum Justification : std::uint8_t { kJustAnchor = 0, kJustHard = 1, kJustCoin = 2 };
  static constexpr std::uint8_t kAbstain = 2;

  using VoteTally = crypto::ShareTally<crypto::SigShare>;

  // Vote shares are admitted on structure alone (exactly the sender's
  // units), one tally per value, and checked only through the certificate
  // they combine into.  A party has voted when one of the round's tallies
  // counts it, and may not vote again once any of them has seen it: a
  // sender whose share breaks a combine loses its vote for the round, for
  // either value.
  struct Round {
    // Pre-votes.
    std::array<VoteTally, 2> prevotes;
    std::array<std::optional<crypto::BigInt>, 2> sigma_pre;  ///< combined cert per value
    bool sent_prevote = false;
    // Main-votes.
    std::array<VoteTally, 3> mainvotes;
    std::optional<crypto::BigInt> sigma_main_abstain;
    bool sent_mainvote = false;
    bool round_closed = false;  ///< certified main-vote quorum processed
    bool waiting_for_coin = false;
    // Coin.  Shares are buffered after structural checks only; the NIZK
    // batch verification + combine runs off-loop (offload_combine) and
    // reports back as a kCoinVerdict self-message.
    bool coin_released = false;
    crypto::ShareTally<crypto::CoinShare> coin_shares;
    std::optional<bool> coin;
    /// COIN-justified pre-votes for round r+1 awaiting this round's coin:
    /// (voter, value, cert-signature shares); evidence already verified.
    std::vector<std::tuple<int, bool, std::vector<crypto::SigShare>>> deferred_coin_prevotes;
  };

  void handle(int from, Reader& reader) override;
  void park_deferred(std::uint8_t type, int round, int from, Reader& reader);
  [[nodiscard]] Bytes checkpoint_save() const;
  void checkpoint_load(Reader& reader);
  void broadcast_input();
  void on_input(int from, Reader& reader);
  void maybe_anchor(int value);
  /// Combine-then-verify `tally` into the signature on statement(kind,
  /// round, value).  Senders of bad shares are struck from the tally and
  /// fingered; nullopt means the rest is not (yet) qualified.
  std::optional<crypto::BigInt> certify(const crypto::ThresholdSigPublicKey& pk,
                                        std::string_view kind, int round, std::uint8_t value,
                                        VoteTally& tally);
  void try_first_prevote();
  void on_prevote(int from, Reader& reader);
  void on_mainvote(int from, Reader& reader);
  void on_coin_share(int from, Reader& reader);
  void on_coin_verdict(int from, Reader& reader);
  void on_decide(int from, Reader& reader);

  void accept_prevote(int round, int from, bool value, std::vector<crypto::SigShare> shares);
  void maybe_mainvote(int round);
  void maybe_close_round(int round);
  void release_coin(int round);
  void maybe_combine_coin(int round);
  void adopt_coin(int round, BytesView value);
  void advance(int round, bool value, Justification justification,
               const crypto::BigInt& evidence);
  void send_prevote(int round, bool value, Justification justification,
                    const crypto::BigInt& evidence);
  void decide(bool value, int round, const crypto::BigInt& sigma_main);

  [[nodiscard]] Bytes statement(std::string_view kind, int round, std::uint8_t value) const;
  [[nodiscard]] Bytes coin_name(int round) const;
  Round& round_state(int round);

  DecideFn decide_;
  bool started_ = false;
  bool decided_ = false;
  bool compaction_ = false;
  std::optional<bool> decision_;
  int decide_round_ = 0;
  std::optional<bool> my_input_;
  // Input anchoring.  A sender whose input share breaks the anchor stays
  // in input_voted_: its input is spent, only its shares go.
  crypto::PartySet input_voted_ = 0;
  std::array<VoteTally, 2> inputs_;
  std::array<std::optional<crypto::BigInt>, 2> anchor_;
  int current_round_ = 1;
  std::map<int, Round> rounds_;
  std::vector<std::tuple<int, int, Bytes>> deferred_;  ///< (round, from, raw) for far-future rounds
  Bytes decide_raw_;  ///< the kDecide broadcast (responder + checkpoint material)
  crypto::PartySet helped_ = 0;     ///< peers already re-sent the decide cert
  crypto::PartySet suspected_ = 0;  ///< proven bad-share senders
};

}  // namespace sintra::protocols
