// Corrupted-party harnesses.
//
// The paper's adversary fully controls corrupted parties (and holds their
// dealt keys).  Generic behaviours live here; protocol-specific Byzantine
// attacks (equivocation, bogus shares, front-running) are built in the
// tests and benchmarks as custom Processes with access to the corrupted
// party's PartyKeyShare.
#pragma once

#include <array>
#include <functional>

#include "adversary/quorum.hpp"
#include "net/simulator.hpp"

namespace sintra::net {

/// Crashed / muted party: receives everything, says nothing.  Also models
/// the paper's "unavailable site".
class CrashProcess final : public Process {
 public:
  void on_message(const Message&) override {}
};

/// Sends garbage to everyone on every delivery (stress for the robustness
/// paths: signature/proof verification, ProtocolError handling).
class SpamProcess final : public Process {
 public:
  SpamProcess(Simulator& simulator, int id, std::uint64_t seed, std::vector<std::string> tags)
      : simulator_(simulator), id_(id), rng_(seed), tags_(std::move(tags)) {}

  void on_start() override { burst(); }
  void on_message(const Message&) override { burst(); }

 private:
  void burst();

  Simulator& simulator_;
  int id_;
  Rng rng_;
  std::vector<std::string> tags_;
  std::uint64_t sent_ = 0;
};

/// Byzantine resource-exhaustion attacker (the flooder attack suite): a
/// corrupted party spraying protocol-shaped traffic at the honest
/// parties' buffering paths.  Each profile targets one buffer:
///  - kAbbaRounds: far-future ABBA round messages (BVAL, AUX, CONF, coin
///    share), which honest parties park in their deferred-round buffer
///    until the round arrives;
///  - kAbcRounds: VALIDLY SIGNED future-round atomic-broadcast batches —
///    the flooder holds its dealt key share, so these pass signature
///    verification and occupy round buffers legitimately;
///  - kPbftViews: future-view PBFT phase traffic (the view stash);
///  - kBogusTags: messages for instance tags that will never register
///    (the Party's unhandled-traffic buffer);
///  - kRequests: a runaway client spraying distinct requests at every
///    replica (the admission-control queue).
/// Every profile is volume-bounded so flooded runs still quiesce; the
/// point is not to break termination but to show ResourceBudget holding
/// every honest party's buffered bytes under its cap while the protocols
/// keep delivering.
class FlooderProcess final : public Process {
 public:
  enum class Profile {
    kAbbaRounds,
    kAbcRounds,
    kPbftViews,
    kBogusTags,
    kRequests,
  };

  /// The round-stamped ABBA wire types kAbbaRounds sprays: BVAL, AUX, CONF
  /// and the coin share (protocols::Abba::MsgType).
  static constexpr std::array<std::uint8_t, 4> kAbbaRoundTypes{0, 1, 4, 2};

  /// `target_tag` is the attacked instance's tag (the ABBA/ABC/PBFT tag,
  /// or the service tag for kRequests, or a prefix for kBogusTags).
  FlooderProcess(Simulator& simulator, int id, adversary::Deployment deployment,
                 std::uint64_t seed, Profile profile, std::string target_tag);

  void on_start() override { burst(); }
  void on_message(const Message&) override { burst(); }

  [[nodiscard]] std::uint64_t sent() const { return sent_; }

 private:
  void burst();
  void spray(int to, std::string tag, Bytes payload);

  Simulator& simulator_;
  int id_;
  adversary::Deployment deployment_;
  Rng rng_;
  Profile profile_;
  std::string target_tag_;
  std::uint64_t sent_ = 0;
  std::uint64_t cursor_ = 0;  ///< round/view/request-id cursor
};

/// Fully scripted Byzantine process: delegates to a function.
class HookProcess final : public Process {
 public:
  using Hook = std::function<void(const Message&)>;

  HookProcess(Hook on_start, Hook on_message)
      : on_start_(std::move(on_start)), on_message_(std::move(on_message)) {}

  void on_start() override {
    if (on_start_) on_start_(Message{});
  }
  void on_message(const Message& message) override {
    if (on_message_) on_message_(message);
  }

 private:
  Hook on_start_;
  Hook on_message_;
};

}  // namespace sintra::net
