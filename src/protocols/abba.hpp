// ABBA — asynchronous binary Byzantine agreement: the signature-free
// protocol of Mostéfaoui, Moumen & Raynal (JACM 2015) with its CONF phase,
// its thresholds generalised to Q³ adversary structures as Alpos & Cachin
// do ("t + 1" is exceeds_fault_set, "n − t" is is_quorum).  Optimal
// resilience, expected constant rounds, O(n²) messages per phase, and the
// common coin is the only threshold cryptography it uses.
//
// Round r (r = 1, 2, ...) starts from an estimate est (round 1: the input):
//
//  BVAL: send BVAL(r, est).  Echo BVAL(r, b) once its senders exceed a fault
//  set (one of them is honest); admit b to bin_values(r) once they form a
//  quorum.  So only a value some honest party held as its estimate ever
//  enters bin_values.
//
//  AUX: when bin_values first becomes non-empty, send AUX(r, w) for that
//  first value w.  Wait until the AUX senders whose value lies in
//  bin_values form a quorum; their values are aux_vals.
//
//  CONF: send CONF(r, aux_vals).  Wait until the CONF senders whose set lies
//  in bin_values form a quorum; the union of their sets is vals.
//
//  Coin: s(r) is the constant 1 in rounds 1, 4, 7, ..., the constant 0 in
//  rounds 2, 5, 8, ..., and the Diffie–Hellman threshold coin in rounds 3,
//  6, 9, ...; a party releases its coin share only after the CONF wait.
//
//  If vals = {v}: est = v, and v is decided when v = s(r).  Otherwise
//  est = s(r).
//
// DECIDE, Bracha-style: a party that decides broadcasts DECIDE(v).
// DECIDE(v) from a set exceeding a fault set is adopted as the decision
// (an honest party decided v) and echoed; DECIDE(v) from a quorum halts the
// instance, which frees its rounds and answers a peer still sending round
// traffic with one DECIDE.  Until it halts a decided party keeps running
// rounds.
//
// Why agreement holds: two quorums meet in an honest party, which sends
// one CONF per round, so no two honest parties end a round with vals {0}
// and {1}.  When one decides v (vals {v}, s(r) = v), every other honest
// party leaves the round with est = v, from vals {v} or from the coin;
// from then on ~v never enters bin_values again.
// Why validity holds: if every honest party starts with v, ~v never enters
// bin_values, so every vals is {v} and v is decided in round 1 or 2.
// Why termination is expected-constant: the only value that can end a
// round as some party's singleton vals is fixed by the honest CONF sets
// before any honest coin share goes out (the CONF phase is what defeats
// MacBrough's attack, which times the coin against the CONF-less
// protocol).  In a threshold-coin round the coin matches that value with
// probability 1/2; then every honest estimate agrees, and one of the next
// two constant-coin rounds decides it.
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

  /// Wire type bytes; BVAL, AUX, CONF and the coin share carry a round.
  enum MsgType : std::uint8_t {
    kBval = 0,
    kAux = 1,
    kCoinShare = 2,
    kDecide = 3,
    kConf = 4,
  };

  Abba(net::Party& host, std::string tag, DecideFn decide);
  ~Abba() override;

  /// Re-entry with the same input re-broadcasts the round-1 BVAL
  /// (crash-recovery replay); a flipped input throws.
  void start(bool input);

  /// WAL compaction (opt-in): once halted, this instance's WAL entries
  /// are pruned — the registered checkpoint carries the decision across a
  /// restart instead of a full message replay.  Only sound for instances
  /// that exist when Party::restore runs (factory-built, not lazily
  /// spawned sub-instances — their checkpoint blob would find no loader
  /// and the pruned entries could not be replayed either).
  void enable_compaction() { compaction_ = true; }

  /// Parties caught sending well-formed-but-invalid coin shares (each
  /// share vector is checked on arrival).
  [[nodiscard]] crypto::PartySet suspected() const { return suspected_; }

  /// Introspection for the memory-budget tests.
  [[nodiscard]] std::size_t live_rounds() const { return rounds_.size(); }
  [[nodiscard]] std::size_t deferred_count() const { return deferred_.size(); }

 private:
  /// A set of binary values as a bit mask: bit b stands for value b.
  using Values = std::uint8_t;
  static constexpr Values kBoth = 3;

  struct Round {
    std::array<crypto::PartySet, 2> bval_from{};  ///< senders of BVAL(r, b)
    std::array<bool, 2> bval_sent{};
    Values bin_values = 0;
    int first_bin = -1;                           ///< the value AUX carries
    std::array<crypto::PartySet, 2> aux_from{};   ///< by AUX value; one per sender
    std::array<crypto::PartySet, 4> conf_from{};  ///< by CONF set; one per sender
    bool aux_sent = false;
    bool conf_sent = false;
    std::optional<Values> vals;  ///< set once the CONF wait is over
    bool finished = false;
    // Threshold coin (rounds 3, 6, ...): shares checked on arrival,
    // combined once a qualified set is in.
    crypto::ShareTally<crypto::CoinShare> coin_shares;
    std::optional<bool> coin;
  };

  void handle(int from, Reader& reader) override;
  void on_round_message(std::uint8_t type, int from, Reader& reader);
  void park_deferred(std::uint8_t type, int round, int from, Reader& reader);
  [[nodiscard]] Bytes checkpoint_save() const;
  void checkpoint_load(Reader& reader);

  void on_bval(int round, int from, int value);
  void on_aux(int round, int from, int value);
  void on_conf(int round, int from, Values values);
  void on_coin_share(int round, int from, Reader& reader);
  void on_decide(int from, Reader& reader);

  void send_round(std::uint8_t type, int round, std::uint8_t value);
  /// Runs the current round's AUX, CONF and coin steps as far as the
  /// messages received allow.
  void progress(int round);
  void finish_round(int round, bool coin);
  void enter_round(int round, bool est);
  [[nodiscard]] std::optional<bool> coin_of(int round) const;
  void decide(bool value, int round);
  void halt();

  [[nodiscard]] Bytes decide_message() const;
  [[nodiscard]] Bytes coin_name(int round) const;
  Round& round_state(int round);

  DecideFn decide_;
  bool started_ = false;
  bool halted_ = false;
  bool compaction_ = false;
  std::optional<bool> decision_;
  int decide_round_ = 0;
  std::optional<bool> my_input_;
  int current_round_ = 1;
  std::map<int, Round> rounds_;
  std::vector<std::tuple<int, int, Bytes>> deferred_;  ///< (round, from, raw) for far-future rounds
  std::array<crypto::PartySet, 2> decide_from_{};  ///< by DECIDE value; one per sender
  crypto::PartySet helped_ = 0;     ///< peers already re-sent the DECIDE
  crypto::PartySet suspected_ = 0;  ///< proven bad coin-share senders
};

}  // namespace sintra::protocols
