// Online membership reconfiguration (issue 9).
//
// An epoch-based protocol that swaps, adds, or removes replicas while
// preserving every shared secret: the old committee runs verifiable share
// redistribution (crypto/reshare.hpp) for all five dealt keys — coin,
// TDH2, reply-signature, certificate-signature and quorum-signature —
// totally ordered over
// an embedded atomic broadcast, fenced at a checkpoint certificate of the
// service's delivery log; every step is one loop over the dealt-key table
// (DealtKey: each key's kind, sharing degree and old public key).  The
// protocol produces
//
//  * a signed NEW-CONFIG announcement (the new committee geometry, the
//    fence, and all new public verification values, threshold-signed under
//    the OLD reply key so clients and joiners can verify it with key
//    material they already hold), and
//  * each surviving member's new secret shares, interpolated from the
//    first qualified set of applied dealings.
//
// Epoch flow (all messages through the embedded ABC, so every honest old
// member sees the identical sequence):
//  1. kDealing — every old member deals a degree-t' redistribution of each
//     of its five shares to the n' new slots, sub-shares masked with
//     pairwise keys (dealer-dealt channel keys between survivors; an
//     out-of-band provisioned join key per joining slot — the paper's
//     dealer model extended to admission, see PROTOCOLS.md).
//  2. kVerdict — once a member holds a quorum of VALID dealings (or has
//     heard every dealer), it broadcasts (seen, valid) bitmasks over old
//     slots.  The applied set = dealers seen AND approved by every verdict
//     of the first verdict quorum — deterministic at every member.
//  3. If fewer than n−t dealers are applied the epoch ABORTS cleanly (the
//     certificate key has sharing degree n−t−1, so n−t sub-sharings are
//     needed; the old committee stays intact, excluded dealers are
//     fingered in `suspected`).  Otherwise every member derives the new
//     shares + verification values and
//  4. kSig — members exchange OLD-reply-key signature shares over the
//     NEW-CONFIG statement; the first qualified set combines into the
//     (unique) announcement signature.
//
// A joining replica holds no old share: it bootstraps its protocol state
// via net/state_transfer (anchored at the fence certificate) and receives
// a JoinPackage — the signed announcement plus the applied dealings'
// commitments and its own masked sub-shares — from any old member, and
// derives its shares through the members' own apply path, which for a
// joiner first checks everything against public values (first valid
// package wins).  Each dealer MACs its masked rows for every joining slot
// under a key derived from the join key, inside its ordered dealing: rows
// that fail their MAC were altered by the member providing the package,
// which is refused with nobody fingered; a MAC'd sub-share that fails
// verification is its dealer's provable fault — fingered, join aborted
// cleanly.  (A dealer that MACs garbage stays unfingered, like any
// package-level failure.)
//
// Proactive refresh (paper §6: "all secrets that the adversary has seen in
// the past become useless") is the same-committee epoch,
// ReconfigPlan::same_committee: every member keeps its slot and every share
// of all five keys is re-randomized.  Each epoch compounds Δ into the RSA
// schemes and widens their public share bounds, so chained refreshes make
// σ-shares steadily wider (PROTOCOLS.md "Reconfiguration").
//
// Model honesty: redistribution interpolates over Lagrange points, so this
// protocol supports the classical threshold model only (a generalized-LSSS
// redistribution would need per-gate resharing).  A
// Byzantine old member can at worst force a clean abort (false verdicts)
// or leave one member whose verdict missed the first quorum with an
// unusable share — which that member DETECTS (share_valid == false) and
// recovers from via a subsequent identity reshare.
#pragma once

#include <array>
#include <optional>

#include "crypto/checkpoint.hpp"
#include "crypto/reshare.hpp"
#include "protocols/atomic.hpp"

namespace sintra::protocols {

/// The dealt keys, in wire and mask order; per-key arrays are indexed by
/// it.  Coin, TDH2 and quorum are discrete-log keys, reply and cert
/// threshold-RSA keys; cert and quorum are dealt at the high sharing
/// degree.
enum DealtKey : std::size_t {
  kKeyCoin = 0,
  kKeyTdh2,
  kKeyReply,
  kKeyCert,
  kKeyQuorum,
  kDealtKeys
};

/// Committee geometry of one epoch change, as carried by the totally
/// ordered RECONFIG command.  Contains no secret material.
struct ReconfigPlan {
  std::uint32_t new_epoch = 1;
  std::int32_t n_old = 0;
  std::int32_t t_old = 0;
  std::int32_t n_new = 0;
  std::int32_t t_new = 0;
  /// new slot -> old slot of the member that keeps it, or -1 for a slot
  /// filled by a joining (blank) replica.
  std::vector<std::int32_t> old_slot;
  /// new slot -> transport endpoint ("host:port"); may be empty under the
  /// simulator, where slots are addresses.
  std::vector<std::string> endpoints;

  /// The identity plan (n, t) -> (n, t), every member keeping its slot: a
  /// proactive refresh that re-randomizes every share of all five keys.
  static ReconfigPlan same_committee(std::uint32_t new_epoch, int n, int t);

  /// Old slot -> new slot, or -1 if the member retires this epoch.
  [[nodiscard]] int new_slot_of(int old) const;
  [[nodiscard]] bool joining(int new_slot) const {
    return old_slot.at(static_cast<std::size_t>(new_slot)) < 0;
  }
  /// Sharing degrees of the new committee's low / high access structures.
  [[nodiscard]] int low_degree() const { return t_new; }
  [[nodiscard]] int high_degree() const { return n_new - t_new - 1; }

  /// Structural sanity (throws ProtocolError): n > 3t on both sides,
  /// committee sizes within PartySet range, old_slot injective and in
  /// range, endpoints either empty or one per new slot.
  void validate() const;

  void encode(Writer& w) const;
  static ReconfigPlan decode(Reader& r);
};

/// The signed NEW-CONFIG announcement.  Everything a client or joining
/// replica needs to follow the epoch: the plan, the checkpoint fence, and
/// the new public key material for all five keys, authenticated by a
/// combined threshold signature under the OLD reply key (whose public key
/// every client already holds; combined RSA signatures are unique, so all
/// honest members produce the bit-identical announcement).
struct NewConfig {
  ReconfigPlan plan;
  /// Fence: the epoch cuts the delivery log at this certificate (round 0 =
  /// unfenced, for key-rotation-only uses).
  crypto::CheckpointCert fence;
  /// Per key, one verification value per new slot: g^{x'_i}, or for the
  /// RSA keys v^{d'_i} carried as a residue mod N.
  std::array<std::vector<crypto::Element>, kDealtKeys> verification;
  /// RSA keys only: the compounded Δ scale of the post-epoch scheme
  /// (crypto/reshare.hpp ScaledScheme), i.e. the OLD scheme's effective
  /// delta, and the public width bound of the new (signed integer) shares.
  std::array<crypto::BigInt, kDealtKeys> scale;
  std::array<std::uint32_t, kDealtKeys> share_bits{};
  /// Combined OLD-reply-key threshold signature over statement().
  crypto::BigInt signature;

  /// The signed statement: domain-separated hash input covering every
  /// field above except the signature itself, bound to the instance tag.
  [[nodiscard]] Bytes statement(std::string_view tag, const crypto::Group& group) const;
  [[nodiscard]] bool verify(const crypto::ThresholdSigPublicKey& old_reply, std::string_view tag,
                            const crypto::Group& group) const;

  void encode(Writer& w, const crypto::Group& group) const;
  static NewConfig decode(Reader& r, const crypto::Group& group);
};

/// Everything one old member knows when its epoch concludes.
struct ReconfigResult {
  /// false: clean abort — old committee (and all old shares) stay intact.
  bool completed = false;
  NewConfig config;  ///< signed announcement (only when completed)
  /// This member's slot in the new committee, or -1 if it retires (wipe
  /// shares and stop serving).
  int new_slot = -1;
  /// All own sub-shares of the applied dealings verified; false means this
  /// member holds an unusable share (detectable Byzantine targeting) and
  /// must recover before serving.
  bool share_valid = false;
  /// New shares (new_slot >= 0): over Z_q, or SIGNED integers for RSA.
  std::array<crypto::BigInt, kDealtKeys> shares;
  /// Old slots fingered as misbehaving dealers (excluded dealings), plus
  /// those that sent this member an atomic-broadcast batch with bad
  /// signature shares.
  crypto::PartySet suspected = 0;
  int dealings_applied = 0;
};

/// The package an old member hands a joining replica after the epoch
/// completes: the signed announcement plus the applied dealings — enough
/// for the joiner to verify everything and interpolate its own shares.
/// Per key, the vectors are aligned with `applied` (old slots in ABC
/// dealing order; the first t_old+1 feed the low keys, all n_old-t_old the
/// cert key).  The sub-shares are still masked with the joiner's join
/// keys, so the package transits untrusted members verbatim; each dealer's
/// MAC over its rows tells the joiner whether the providing member altered
/// them.
struct JoinPackage {
  NewConfig config;
  std::vector<std::int32_t> applied;
  /// Each applied dealing's commitments (C_0 first; RSA values as residues).
  std::array<std::vector<std::vector<crypto::Element>>, kDealtKeys> commitments;
  std::array<std::vector<crypto::BigInt>, kDealtKeys> subshares;  ///< masked, joiner slot
  std::vector<Bytes> macs;  ///< per applied dealing: join_rows_mac over its rows

  void encode(Writer& w, const crypto::Group& group) const;
  static JoinPackage decode(Reader& r, const crypto::Group& group);
};

/// A dealer's MAC over its masked rows for joining slot `slot`: row k is
/// `rows[k][index]`, the dealer's masked sub-share of key k for that slot.
/// Keyed from the join key the dealer shares with the joiner (domain-
/// separated from the masks) and bound to the instance tag, the epoch, the
/// dealer and the slot; it rides inside the ordered dealing.
Bytes join_rows_mac(BytesView join_key, std::string_view tag, std::uint32_t epoch, int dealer,
                    int slot, const std::array<std::vector<crypto::BigInt>, kDealtKeys>& rows,
                    std::size_t index);

struct ReconfigOptions {
  /// Out-of-band provisioned pairwise secrets with joining replicas:
  /// new slot -> key this member shares with the joiner filling it.
  std::map<int, Bytes> join_keys;
  /// Test hook: deal syntactically valid dealings whose sub-shares fail
  /// verification everywhere (the Byzantine-dealer chaos scenario).
  bool deal_garbage = false;
};

class Reconfig final : public ProtocolInstance {
 public:
  using DoneFn = std::function<void(const ReconfigResult&)>;

  /// `plan` arrives via the service's totally ordered RECONFIG command, so
  /// every honest old member constructs the identical instance; `fence` is
  /// the checkpoint certificate the epoch cuts at (combined signatures are
  /// unique, so honest fences are bit-identical too).
  Reconfig(net::Party& host, std::string tag, ReconfigPlan plan,
           std::optional<crypto::CheckpointCert> fence, ReconfigOptions options, DoneFn done);

  /// Start the epoch (every honest old member calls this; replay-safe).
  void start();

  [[nodiscard]] bool done() const { return result_.has_value(); }
  [[nodiscard]] const std::optional<ReconfigResult>& result() const { return result_; }
  [[nodiscard]] const ReconfigPlan& plan() const { return plan_; }

  /// Build the join package for `joiner_slot` (completed epochs only).
  [[nodiscard]] JoinPackage join_package(int joiner_slot) const;

 private:
  enum MsgType : std::uint8_t { kDealing = 0, kVerdict = 1, kSig = 2 };

  void on_ordered(int origin, Bytes payload);
  void handle(int from, Reader& reader) override {
    (void)from;
    (void)reader;
    throw ProtocolError("reconfig: direct messages unused");
  }
  [[nodiscard]] Bytes pair_key(int dealer, int new_slot) const;
  /// The applied dealings as new slot `slot` receives them (-1: none).
  [[nodiscard]] JoinPackage applied_dealings(int slot) const;
  void handle_dealing(int origin, Reader& reader);
  void handle_verdict(int origin, Reader& reader);
  void handle_sig(int origin, Reader& reader);
  void maybe_submit_verdict();
  void maybe_conclude();
  void submit_sig_shares();

  ReconfigPlan plan_;
  std::optional<crypto::CheckpointCert> fence_;
  ReconfigOptions options_;
  DoneFn done_;
  AtomicBroadcast abc_;
  bool started_ = false;
  std::optional<ReconfigResult> result_;

  struct Dealing {
    int dealer = -1;
    std::array<std::vector<crypto::Element>, kDealtKeys> commitments;
    std::array<std::vector<crypto::BigInt>, kDealtKeys> subshares;  ///< masked, all new slots
    std::vector<Bytes> join_macs;  ///< join_rows_mac per joining slot, in slot order
  };
  /// ABC order, one per dealer; once concluded, only the applied ones.
  std::vector<Dealing> dealings_;
  crypto::PartySet dealers_seen_ = 0;
  crypto::PartySet dealers_valid_ = 0;  ///< my own sub-shares verify (or I hold no slot)
  bool verdict_sent_ = false;
  struct Verdict {
    crypto::PartySet seen = 0;
    crypto::PartySet valid = 0;
  };
  std::vector<Verdict> verdicts_;
  crypto::PartySet verdict_from_ = 0;
  /// Set once verdicts conclude successfully; kSig shares verify against
  /// pending_statement_.
  std::optional<ReconfigResult> pending_;
  Bytes pending_statement_;
  crypto::ShareTally<crypto::SigShare> sig_shares_;  ///< verified on arrival
  /// kSig payloads ordered before this member concluded (can only happen
  /// with a Byzantine early submitter); bounded by one per origin.
  std::map<int, Bytes> sig_stash_;
};

/// Provisioned join key between old member `dealer` and the joiner filling
/// new slot `joiner_slot` (the operator channel of PROTOCOLS.md).
using JoinKeyFn = std::function<Bytes(int dealer, int joiner_slot)>;

/// The full new-committee Deployment, every slot with its REAL share —
/// what an operator rolling the whole fleet to the new epoch holds
/// collectively.  `results` is indexed by new slot (joiner slots take the
/// JoinListener's result); each post-epoch channel key is derived from
/// `old`'s pair key, or from `join_key` for a pair with a joiner.  A
/// same-committee plan never asks for a join key.
adversary::Deployment assemble_committee(const adversary::Deployment& old,
                                         const ReconfigPlan& plan,
                                         const std::vector<ReconfigResult>& results,
                                         const JoinKeyFn& join_key = {});

/// Share-less view of the new committee for observers that only verify:
/// clients following a signed NEW-CONFIG announcement rebuild the quorum
/// system and all public keys from the announcement and the old public
/// keys alone (placeholder secret material at every slot).
adversary::Deployment reconfig_public_deployment(const NewConfig& config, crypto::GroupPtr group,
                                                 const crypto::PublicKeys& old_public);

/// Joining replica's verifier: accepts the first JoinPackage that fully
/// checks out against provisioned public material (old public keys, the
/// instance tag, and the per-dealer join keys) and exposes the same
/// ReconfigResult a surviving member gets.
class JoinListener {
 public:
  JoinListener(std::string tag, int new_slot, std::map<int, Bytes> join_keys,
               crypto::GroupPtr group, crypto::PublicKeys old_public);

  /// Verify a candidate package; true if accepted (first valid wins).
  bool offer(const JoinPackage& package);

  [[nodiscard]] bool ready() const { return result_.has_value(); }
  [[nodiscard]] const std::optional<ReconfigResult>& result() const { return result_; }
  /// Dealers fingered by rejected packages (a sub-share under its
  /// dealer's valid MAC that fails verification == provable misbehavior).
  [[nodiscard]] crypto::PartySet suspected() const { return suspected_; }

 private:
  std::string tag_;
  int new_slot_;
  std::map<int, Bytes> join_keys_;
  crypto::GroupPtr group_;
  crypto::PublicKeys old_public_;
  std::optional<ReconfigResult> result_;
  crypto::PartySet suspected_ = 0;
};

}  // namespace sintra::protocols
