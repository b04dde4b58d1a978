// Base class for protocol instances hosted by a net::Party.
//
// An instance owns one routing tag.  Construction registers the handler;
// instances must therefore outlive the simulation (own them via unique_ptr
// in the parent protocol or the harness).  Sub-protocols compose by
// extending the tag path ("abc/5" spawns "abc/5/vba", ...).
//
// Instances that combine threshold shares collect them in a
// crypto::ShareTally; offload_combine and settle_verdict are the round trip
// of a combine run off the event loop (PROTOCOLS.md, "Certify by
// combining").
#pragma once

#include <string>
#include <type_traits>
#include <utility>

#include "crypto/batch.hpp"
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

  /// Combine `tally`'s shares under `pk` (a threshold-signature or coin
  /// public key) on a work-pool thread, unless an earlier attempt is still
  /// in flight.  `prefix` (type and key) heads the verdict self-message.
  template <class PublicKey, class Share>
  void offload_combine(crypto::ShareTally<Share>& tally, const PublicKey& pk, Bytes statement,
                       Bytes prefix) {
    const int attempt = tally.begin_attempt();
    if (attempt == 0) return;
    // The weight seed is drawn on the loop thread so sequential runs replay
    // bit-exactly.  The job owns copies of everything except pk, which is
    // immutable for the party's lifetime and so safe to read from a worker.
    const std::uint64_t seed = host_.rng().next();
    host_.offload(tag_, [&pk, statement = std::move(statement), shares = tally.shares(),
                         prefix = std::move(prefix), attempt, seed]() -> Bytes {
      Rng rng(seed);
      Writer w;
      w.raw(prefix);
      w.u32(static_cast<std::uint32_t>(attempt));
      const auto write = [&](const auto& result, const auto& write_value) {
        w.vec(result.bad, [&](Writer& wr, const std::size_t& i) {
          wr.u32(static_cast<std::uint32_t>(shares[i].unit));
        });
        w.u8(result.value.has_value() ? 1 : 0);
        if (result.value.has_value()) write_value(*result.value);
      };
      if constexpr (std::is_same_v<Share, crypto::SigShare>) {
        write(crypto::batch::combine_sig_optimistic(pk, statement, shares, rng),
              [&](const crypto::BigInt& signature) { signature.encode(w); });
      } else {
        write(crypto::batch::combine_coin_optimistic(pk, statement, shares, rng),
              [&](const Bytes& coin_value) { w.bytes(coin_value); });
      }
      return w.take();
    });
  }

  /// Handle a verdict written by offload_combine; `reader` stands after the
  /// type byte.  A verdict from a peer is refused before anything else is
  /// read.  `tally_for` reads the key and returns the tally it names.  A
  /// verdict for an attempt that is not the one in flight changes nothing
  /// (WAL replay re-delivers verdicts).  Otherwise the owners of the bad
  /// units are struck and fingered in `suspected`, and `retry` runs if that
  /// leaves the combine failed.  Returns the combined value: a
  /// crypto::BigInt signature or a Bytes coin value.
  template <class T, class TallyFor, class Retry>
  std::optional<T> settle_verdict(int from, Reader& reader, const crypto::LinearScheme& scheme,
                                  crypto::PartySet& suspected, TallyFor&& tally_for,
                                  Retry&& retry) {
    SINTRA_REQUIRE(from == me(), tag_ + ": verdict from another party");
    auto& tally = tally_for(reader);
    const int attempt = static_cast<int>(reader.u32());
    auto bad_units = reader.vec<std::uint32_t>([](Reader& r) { return r.u32(); });
    std::optional<T> value;
    if (reader.u8() == 1) {
      if constexpr (std::is_same_v<T, crypto::BigInt>) {
        value = crypto::BigInt::decode(reader);
      } else {
        value = reader.bytes();
      }
    }
    reader.expect_done();
    if (!tally.settle(attempt)) return std::nullopt;
    const crypto::PartySet culprits = tally.strike_units(scheme, bad_units);
    if (culprits == 0) return value;
    suspected |= culprits;
    host_.trace("tally", tag_ + " struck invalid shares (suspects fingered)");
    if (!value.has_value()) retry();  // the remaining shares may still combine
    return value;
  }

  net::Party& host_;
  std::string tag_;
};

}  // namespace sintra::protocols
