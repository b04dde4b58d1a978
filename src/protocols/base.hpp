// Base class for protocol instances hosted by a net::Party.
//
// An instance owns one routing tag.  Construction registers the handler;
// instances must therefore outlive the simulation (own them via unique_ptr
// in the parent protocol or the harness).  Sub-protocols compose by
// extending the tag path ("abc/5" spawns "abc/5/vba", ...).
//
// Instances that combine threshold shares collect them in a
// crypto::ShareTally, which checks each peer's vector as it arrives and
// leaves the combine to the handler that completes the set (PROTOCOLS.md,
// "Certify by combining").
#pragma once

#include <string>
#include <utility>

#include "crypto/batch.hpp"
#include "crypto/share_tally.hpp"
#include "net/party.hpp"

namespace sintra::protocols {

class ProtocolInstance {
 public:
  ProtocolInstance(net::Party& host, std::string tag) : host_(host), tag_(std::move(tag)) {
    host_.register_handler(tag_, [this](int from, Reader& reader) { handle(from, reader); });
  }
  virtual ~ProtocolInstance() {
    host_.unregister_handler(tag_);
    // Nothing under this tag subtree can legitimately hold budget once the
    // instance is gone (sub-instances released theirs when they died).
    host_.budget().release_instance(tag_);
  }

  ProtocolInstance(const ProtocolInstance&) = delete;
  ProtocolInstance& operator=(const ProtocolInstance&) = delete;

  [[nodiscard]] const std::string& tag() const { return tag_; }

 protected:
  virtual void handle(int from, Reader& reader) = 0;

  void send(int to, Bytes payload) { host_.send(to, tag_, std::move(payload)); }
  void broadcast(const Bytes& payload) { host_.broadcast(tag_, payload); }

  [[nodiscard]] net::Party& host() { return host_; }
  [[nodiscard]] const adversary::QuorumSystem& quorum() const { return host_.quorum(); }
  [[nodiscard]] int me() const { return host_.id(); }

  net::Party& host_;
  std::string tag_;
};

}  // namespace sintra::protocols
