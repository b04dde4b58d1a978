// Authentication service (§5: "an authentication service ... [is] also
// described there" — MAFTIA deliverable D26): a distributed verifier of
// client credentials that issues threshold-signed session grants, in the
// spirit of a Byzantine-fault-tolerant Kerberos KDC.
//
// State: per-principal credential verifiers (salted digests — the service
// never stores the secret itself) and a monotonic logical clock.  An
// AUTHENTICATE request presenting the correct secret yields a grant
// record (principal, session id, issued-at, expires-at in logical ticks);
// the *ticket* is the client's receipt: the threshold signature on the
// root of the round's reply tree plus the grant's inclusion path, which
// any relying party checks against the single service key.  Every
// request goes through atomic broadcast, so session ids are unique and
// the logical clock is consistent across replicas.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "app/replica.hpp"

namespace sintra::app {

struct AuthRequest {
  enum class Op : std::uint8_t { kEnroll = 0, kAuthenticate = 1, kRevoke = 2, kTick = 3 };
  Op op = Op::kAuthenticate;
  std::string principal;
  Bytes secret;  ///< kEnroll: credential to register; kAuthenticate: proof

  [[nodiscard]] Bytes encode() const;
  static AuthRequest decode(BytesView data);
};

struct AuthResponse {
  enum class Status : std::uint8_t {
    kGranted = 0,
    kDenied = 1,
    kEnrolled = 2,
    kRevoked = 3,
    kUnknownPrincipal = 4,
  };
  Status status = Status::kDenied;
  std::string principal;
  std::uint64_t session_id = 0;
  std::uint64_t issued_at = 0;   ///< logical clock at grant
  std::uint64_t expires_at = 0;  ///< issued_at + lifetime

  [[nodiscard]] Bytes encode() const;
  static AuthResponse decode(BytesView data);
};

class AuthenticationService final : public StateMachine {
 public:
  explicit AuthenticationService(std::uint64_t session_lifetime = 100)
      : session_lifetime_(session_lifetime) {}

  Bytes execute(BytesView request) override;
  [[nodiscard]] std::string name() const override { return "auth"; }

  [[nodiscard]] std::uint64_t clock() const { return clock_; }
  [[nodiscard]] std::size_t enrolled_count() const { return verifiers_.size(); }

 private:
  [[nodiscard]] static Bytes verifier_of(const std::string& principal, BytesView secret);

  std::uint64_t session_lifetime_;
  std::uint64_t clock_ = 0;
  std::uint64_t next_session_ = 1;
  std::map<std::string, Bytes> verifiers_;  ///< principal -> salted digest
};

}  // namespace sintra::app
