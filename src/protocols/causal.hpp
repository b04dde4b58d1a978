// Secure causal atomic broadcast (§3, after Reiter–Birman).
//
// Atomic broadcast of TDH2 ciphertexts followed by threshold decryption
// *after* the total order is fixed.  Client requests therefore stay
// confidential until they are scheduled: a corrupted server that sees a
// ciphertext in flight can neither read it nor construct a *related*
// ciphertext (TDH2 is CCA2-secure), so it cannot have a derived request
// ordered before the original — the paper's notary front-running attack
// is exactly what this rules out (experiment E4 demonstrates it).
//
// Flow per payload: client (or server) encrypts under the service
// encryption key; a server submits the ciphertext to atomic broadcast;
// upon ABC delivery every honest server broadcasts its decryption shares;
// once shares from a set exceeding one fault set combine, the plaintext is
// delivered — in ABC order, with completed-out-of-order decryptions held
// back until their turn.
#pragma once

#include <map>

#include "crypto/tdh2.hpp"
#include "protocols/atomic.hpp"

namespace sintra::protocols {

class SecureCausalBroadcast final : public ProtocolInstance {
 public:
  /// deliver(sequence, plaintext, label): strictly increasing sequence,
  /// identical at every honest party.
  using DeliverFn = std::function<void(std::uint64_t sequence, Bytes plaintext, Bytes label)>;

  SecureCausalBroadcast(net::Party& host, std::string tag, DeliverFn deliver);

  /// Submit an already-encrypted request for causal total-order delivery.
  void submit(const crypto::Tdh2Ciphertext& ciphertext);

  /// Client-side helper: encrypt a request for a deployment's service key.
  static crypto::Tdh2Ciphertext encrypt(const crypto::Tdh2PublicKey& pk, BytesView request,
                                        BytesView label, Rng& rng);

  [[nodiscard]] std::uint64_t delivered_count() const { return next_deliver_; }

 private:
  struct Slot {
    crypto::Tdh2Ciphertext ciphertext;
    bool have_ciphertext = false;
    std::uint64_t sequence = 0;
    bool sequenced = false;
    bool done = false;
    crypto::ShareTally<crypto::Tdh2DecShare> shares;  ///< verified on arrival
    /// Shares that arrived before we saw the ciphertext (unverifiable yet).
    std::vector<std::pair<int, Bytes>> early_shares;
  };

  void handle(int from, Reader& reader) override;
  void on_ordered(int origin, Bytes ciphertext_bytes);
  void add_share(Slot& slot, int from, std::vector<crypto::Tdh2DecShare> shares);
  void maybe_flush();

  DeliverFn deliver_;
  AtomicBroadcast abc_;
  std::map<Bytes, Slot> slots_;                  ///< ciphertext id -> state
  std::map<std::uint64_t, Bytes> by_sequence_;   ///< sequence -> ciphertext id
  std::map<std::uint64_t, std::pair<Bytes, Bytes>> ready_;  ///< seq -> (plaintext, label)
  std::uint64_t next_sequence_ = 0;
  std::uint64_t next_deliver_ = 0;
};

}  // namespace sintra::protocols
