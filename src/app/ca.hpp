// Certification authority (§5.1): the distributed CA issues certificates
// binding identities to public keys.  Internally a deterministic state
// machine replicated via atomic broadcast — issuance changes global state
// (serial numbers, policy), which is exactly why the paper insists on
// atomic (not merely reliable) broadcast for it.
//
// The actual *certificate* is the receipt the client collects
// (app/client.hpp): a single RSA signature under the CA's public key on
// the root of the round's reply tree, plus the reply's inclusion path —
// verifiable by anyone, produced without any server ever holding the CA
// signing key.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "app/replica.hpp"

namespace sintra::app {

/// CA request/response encodings.
struct CaRequest {
  enum class Op : std::uint8_t { kIssue = 0, kQuery = 1, kSetPolicy = 2 };
  Op op = Op::kIssue;
  std::string subject;   ///< identity (kIssue/kQuery)
  Bytes public_key;      ///< subject public key (kIssue)
  std::string credentials;  ///< what the CA's policy validates (kIssue)
  std::string policy;    ///< new policy text (kSetPolicy)

  [[nodiscard]] Bytes encode() const;
  static CaRequest decode(BytesView data);
};

struct CaResponse {
  enum class Status : std::uint8_t { kOk = 0, kDenied = 1, kNotFound = 2 };
  Status status = Status::kOk;
  std::uint64_t serial = 0;
  std::string subject;
  Bytes public_key;
  std::string policy_at_issue;

  [[nodiscard]] Bytes encode() const;
  static CaResponse decode(BytesView data);
};

/// The CA state machine.  Policy model (deliberately simple but real): a
/// request is granted iff its credentials string equals "credential:" +
/// subject — standing in for out-of-band identity validation.
class CertificationAuthority final : public StateMachine {
 public:
  struct CertRecord {
    std::uint64_t serial;
    Bytes public_key;
    std::string policy_at_issue;
  };

  Bytes execute(BytesView request) override;
  [[nodiscard]] std::string name() const override { return "ca"; }

  [[nodiscard]] const std::map<std::string, CertRecord>& issued() const { return issued_; }
  [[nodiscard]] const std::string& policy() const { return policy_; }

 private:
  std::uint64_t next_serial_ = 1;
  std::string policy_ = "v1";
  std::map<std::string, CertRecord> issued_;
};

}  // namespace sintra::app
