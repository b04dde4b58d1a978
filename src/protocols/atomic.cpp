#include "protocols/atomic.hpp"

#include <algorithm>

#include "crypto/batch.hpp"
#include "crypto/sha256.hpp"

namespace sintra::protocols {

using crypto::QuorumSig;
using crypto::SigShare;

namespace {
crypto::Digest payload_digest(BytesView payload) {
  return crypto::hash_domain("sintra/abc/payload", payload);
}

crypto::Digest entry_digest(BytesView encoded_entry) {
  return crypto::hash_domain("sintra/abc/entry", encoded_entry);
}

std::vector<QuorumSig> decode_sigs(Reader& r, const crypto::Group& group) {
  return r.vec<QuorumSig>([&](Reader& rd) { return QuorumSig::decode(rd, group); });
}

void encode_sigs(Writer& w, const crypto::Group& group, const std::vector<QuorumSig>& sigs) {
  w.vec(sigs, [&](Writer& wr, const QuorumSig& s) { s.encode(wr, group); });
}

/// One party's signed round batch: (party, payload block, the party's
/// quorum-key signatures on batch_statement).
struct BatchEntry {
  int party = 0;
  std::vector<Bytes> payloads;
  std::vector<QuorumSig> sigs;

  [[nodiscard]] Bytes payload_block() const {
    Writer w;
    w.vec(payloads, [](Writer& wr, const Bytes& p) { wr.bytes(p); });
    return w.take();
  }

  void encode(Writer& w, const crypto::Group& group) const {
    w.u32(static_cast<std::uint32_t>(party));
    w.bytes(payload_block());
    encode_sigs(w, group, sigs);
  }

  static BatchEntry decode(Reader& r, const crypto::Group& group) {
    BatchEntry entry;
    entry.party = static_cast<int>(r.u32());
    const Bytes block_bytes = r.bytes();  // named: Reader views, must outlive it
    Reader block(block_bytes);
    entry.payloads = block.vec<Bytes>([](Reader& rd) { return rd.bytes(); });
    block.expect_done();
    entry.sigs = decode_sigs(r, group);
    return entry;
  }
};

/// True iff every signature in `sigs` verifies on `statement`.
bool all_verify(const crypto::QuorumSigPublicKey& pk, BytesView statement,
                const std::vector<QuorumSig>& sigs) {
  return std::all_of(sigs.begin(), sigs.end(),
                     [&](const QuorumSig& sig) { return pk.verify(statement, sig); });
}
}  // namespace

AtomicBroadcast::AtomicBroadcast(net::Party& host, std::string tag, DeliverFn deliver,
                                 RoundEndFn round_end)
    : ProtocolInstance(host, std::move(tag)), deliver_(std::move(deliver)),
      round_end_(std::move(round_end)) {
  host_.register_checkpoint(
      tag_, [this] { return checkpoint_save(); }, [this](Reader& r) { checkpoint_load(r); });
}

AtomicBroadcast::~AtomicBroadcast() { host_.unregister_checkpoint(tag_); }

Bytes AtomicBroadcast::checkpoint_save() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(last_finished_));
  w.u32(static_cast<std::uint32_t>(delivered_log_.size()));
  for (const auto& [origin, payload] : delivered_log_) {
    w.u32(static_cast<std::uint32_t>(origin));
    w.bytes(payload);
  }
  w.u32(static_cast<std::uint32_t>(queue_.size()));
  for (const Bytes& payload : queue_) w.bytes(payload);
  // The newest combined checkpoint certificate rides the snapshot: this is
  // what lets gc_completed_rounds prune the kCkptShare WAL records that
  // produced it without ever losing the most recent checkpoint.
  w.boolean(latest_cert_.has_value());
  if (latest_cert_) latest_cert_->encode(w);
  return w.take();
}

void AtomicBroadcast::checkpoint_load(Reader& reader) {
  last_finished_ = static_cast<int>(reader.u32());
  const std::uint32_t log_count = reader.u32();
  for (std::uint32_t i = 0; i < log_count; ++i) {
    const int origin = static_cast<int>(reader.u32());
    Bytes payload = reader.bytes();
    note_delivered(payload_digest(payload));
    ++delivered_count_;
    chain_digest_ = crypto::chain_extend(chain_digest_, origin, payload);
    delivered_log_.emplace_back(origin, payload);
    // Re-fire into the rebuilt parent/application — the WAL entries that
    // produced these deliveries were compacted away.
    deliver_(origin, std::move(payload));
  }
  const std::uint32_t queue_count = reader.u32();
  for (std::uint32_t i = 0; i < queue_count; ++i) queue_.push_back(reader.bytes());
  if (reader.boolean()) latest_cert_ = crypto::CheckpointCert::decode(reader);
  // Re-enter the next round (the pre-crash incarnation had broadcast its
  // batch for it; receivers dedup the fresh copy via batch_from).
  maybe_start_round(last_finished_ + 1);
}

void AtomicBroadcast::release_round_charges(RoundData& rd) {
  for (const auto& [peer, bytes] : rd.charges) host_.budget().release(peer, tag_, bytes);
  rd.charges.clear();
}

void AtomicBroadcast::note_delivered(const crypto::Digest& digest) {
  delivered_fifo_.push_back(digest);
  delivered_.insert(&delivered_fifo_.back());
  if (delivered_fifo_.size() > kDeliveredCap) {
    delivered_.erase(&delivered_fifo_.front());
    delivered_fifo_.pop_front();
  }
}

bool AtomicBroadcast::was_delivered(BytesView payload) const {
  const crypto::Digest digest = payload_digest(payload);
  return delivered_.contains(&digest);
}

Bytes AtomicBroadcast::batch_statement(int round, int party, BytesView payload_block) const {
  Writer w;
  w.str("sintra/abc/batch");
  w.str(tag_);
  w.u32(static_cast<std::uint32_t>(round));
  w.u32(static_cast<std::uint32_t>(party));
  auto digest = crypto::hash_domain("sintra/abc/block", payload_block);
  w.raw(BytesView(digest.data(), digest.size()));
  return w.take();
}

void AtomicBroadcast::submit(Bytes payload) {
  Writer w;
  w.u8(kSubmit);
  w.bytes(payload);
  send(me(), w.take());
}

void AtomicBroadcast::handle(int from, Reader& reader) {
  // Flush VBA instances parked by GC — we are at a fresh dispatch, no Vba
  // handler is on the stack.
  retired_vbas_.clear();
  const std::uint8_t type = reader.u8();
  if (type == kCkptShare) {
    handle_ckpt_share(from, reader);
    return;
  }
  if (type == kSubmit) {
    // A local submission looping back through the inbox (and the WAL).
    SINTRA_REQUIRE(from == me(), "abc: submission from another party");
    Bytes payload = reader.bytes();
    reader.expect_done();
    // Content dedupe: a checkpoint-restored queue plus a not-yet-pruned
    // kSubmit WAL entry must not enqueue the same payload twice.
    if (was_delivered(payload)) return;
    for (const Bytes& queued : queue_) {
      if (queued == payload) return;
    }
    queue_.push_back(std::move(payload));
    maybe_start_round(last_finished_ + 1);
    return;
  }
  SINTRA_REQUIRE(type == kBatch, "abc: unknown message type");
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(round >= 1 && round < 1 << 24, "abc: implausible round");
  const auto& pk = host_.public_keys().quorum_sig;
  Bytes payload_block = reader.bytes();
  auto sigs = decode_sigs(reader, pk.group());
  reader.expect_done();
  if (round <= last_finished_) return;  // stale: that round already completed
  if (round > last_finished_ + kRoundLookahead) {
    // Far-future spray: honest parties stay within a round or two of each
    // other, so this cannot matter yet — drop instead of buffering.
    host_.trace("abc", tag_ + " dropped far-future batch r" + std::to_string(round) +
                           " from " + std::to_string(from));
    return;
  }
  auto existing = rounds_.find(round);
  if (existing != rounds_.end() && crypto::contains(existing->second.batch_from, from)) {
    return;  // one batch per party per round
  }

  SINTRA_REQUIRE(crypto::covers_own_units(pk.scheme(), from, sigs),
                 "abc: batch signatures not the sender's units");
  BatchEntry entry;
  entry.party = from;
  Reader block(payload_block);
  entry.payloads = block.vec<Bytes>([](Reader& rd) { return rd.bytes(); });
  block.expect_done();
  entry.sigs = std::move(sigs);
  Writer encoded;
  entry.encode(encoded, pk.group());
  Bytes raw = encoded.take();
  const crypto::Digest digest = entry_digest(raw);

  // Verify before any state is allocated for the round — unverifiable
  // traffic must not create map entries — unless a proposal already
  // carried these exact bytes for this round.  This party's own batch is
  // its own signing and is not checked.
  if (from != me() &&
      (existing == rounds_.end() || !existing->second.verified.contains(digest))) {
    ++entries_checked_;
    if (!all_verify(pk, batch_statement(round, from, payload_block), entry.sigs)) {
      // The link authenticates the sender of a direct batch, so its bad
      // signatures are its own.  (An entry inside a VBA proposal proves
      // nothing about its party: the proposer can forge it.)
      suspected_ |= crypto::party_bit(from);
      throw ProtocolError("abc: invalid batch signature");
    }
  }

  // Even validly signed future batches are budget-metered: a corrupted
  // party *can* sign real batches for rounds far ahead and they sit here
  // until the round arrives.
  const std::size_t cost = payload_block.size() + 64;
  if (!host_.budget().try_charge(from, tag_, cost)) {
    host_.trace("abc", tag_ + " budget-dropped batch r" + std::to_string(round) + " from " +
                           std::to_string(from));
    return;
  }

  RoundData& rd = rounds_[round];
  rd.charges.emplace_back(from, cost);
  rd.batch_from |= crypto::party_bit(from);
  rd.verified.insert(digest);
  rd.batches.push_back(std::move(raw));

  maybe_start_round(last_finished_ + 1);
  maybe_propose(round);
}

void AtomicBroadcast::maybe_start_round(int round) {
  if (round != last_finished_ + 1) return;
  RoundData& rd = rounds_[round];
  if (rd.started) return;
  // A round begins when we have something to order or somebody else does.
  bool others_active = rd.batch_from != 0;
  if (!others_active) {
    // A batch for any later round also implies the system moved on.
    for (const auto& [r, data] : rounds_) {
      if (r >= round && data.batch_from != 0) {
        others_active = true;
        break;
      }
    }
  }
  if (queue_.empty() && !others_active) return;
  rd.started = true;

  // Sign and broadcast our batch (possibly empty).
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < queue_.size() && i < kMaxBatch; ++i) payloads.push_back(queue_[i]);
  Writer block;
  block.vec(payloads, [](Writer& wr, const Bytes& p) { wr.bytes(p); });
  Bytes payload_block = block.take();
  const auto& pk = host_.public_keys().quorum_sig;
  const auto sigs =
      host_.keys().quorum_sig.sign(pk, batch_statement(round, me(), payload_block));
  Writer w;
  w.u8(kBatch);
  w.u32(static_cast<std::uint32_t>(round));
  w.bytes(payload_block);
  encode_sigs(w, pk.group(), sigs);
  broadcast(w.take());

  // The first candidate rotates with the round, so no party's batch set
  // is examined first every time.
  rd.vba = std::make_unique<Vba>(
      host_, tag_ + "/" + std::to_string(round) + "/vba", round % host_.n(),
      [this, round](BytesView value) {
        const bool valid = validate_batch_set(round, value);
        if (!valid) ++batch_sets_rejected_;
        return valid;
      },
      [this, round](Bytes value) { on_round_decided(round, value); });
  maybe_propose(round);
}

void AtomicBroadcast::maybe_propose(int round) {
  RoundData& rd = rounds_[round];
  if (!rd.started || rd.proposed || rd.vba == nullptr) return;
  if (!quorum().is_quorum(rd.batch_from)) return;
  rd.proposed = true;
  Writer w;
  w.vec(rd.batches, [](Writer& wr, const Bytes& b) { wr.bytes(b); });
  rd.vba->propose(w.take());
}

bool AtomicBroadcast::validate_batch_set(int round, BytesView batch_set) {
  // Entries whose exact bytes already verified for this round skip the
  // signature check: the statement binds (tag, round, party, block
  // digest), so a byte-identical entry has the same verdict.  Every
  // structural check still runs on every entry.
  auto round_it = rounds_.find(round);
  std::set<crypto::Digest>* memo = round_it == rounds_.end() ? nullptr : &round_it->second.verified;
  try {
    Reader reader(batch_set);
    auto raw_entries = reader.vec<Bytes>([](Reader& rd) { return rd.bytes(); });
    reader.expect_done();
    const auto& pk = host_.public_keys().quorum_sig;
    crypto::PartySet senders = 0;
    std::vector<BatchEntry> unseen;
    std::vector<crypto::Digest> fresh;
    for (const Bytes& raw : raw_entries) {
      Reader entry_reader(raw);
      BatchEntry entry = BatchEntry::decode(entry_reader, pk.group());
      entry_reader.expect_done();
      if (entry.party < 0 || entry.party >= host_.n()) return false;
      if (crypto::contains(senders, entry.party)) return false;  // duplicate sender
      if (!crypto::covers_own_units(pk.scheme(), entry.party, entry.sigs)) return false;
      senders |= crypto::party_bit(entry.party);
      const crypto::Digest digest = entry_digest(raw);
      if (memo != nullptr && memo->contains(digest)) continue;
      fresh.push_back(digest);
      unseen.push_back(std::move(entry));
    }
    // The paper's external validity condition: properly signed batches from
    // a full quorum, so honest parties' payloads are represented.
    if (!quorum().is_quorum(senders)) return false;
    entries_checked_ += unseen.size();
    for (const BatchEntry& entry : unseen) {
      if (!all_verify(pk, batch_statement(round, entry.party, entry.payload_block()),
                      entry.sigs)) {
        return false;
      }
    }
    if (memo != nullptr) memo->insert(fresh.begin(), fresh.end());
    return true;
  } catch (const ProtocolError&) {
    return false;
  }
}

void AtomicBroadcast::on_round_decided(int round, const Bytes& batch_set) {
  SINTRA_INVARIANT(round == last_finished_ + 1, "abc: rounds decided out of order");

  Reader reader(batch_set);
  auto raw_entries = reader.vec<Bytes>([](Reader& rd) { return rd.bytes(); });
  std::vector<BatchEntry> entries;
  entries.reserve(raw_entries.size());
  for (const Bytes& raw : raw_entries) {
    Reader entry_reader(raw);
    entries.push_back(BatchEntry::decode(entry_reader, host_.public_keys().quorum_sig.group()));
  }
  // Deterministic delivery order: by originating party, then batch order.
  std::sort(entries.begin(), entries.end(),
            [](const BatchEntry& a, const BatchEntry& b) { return a.party < b.party; });

  delivering_round_ = true;
  for (const BatchEntry& entry : entries) {
    for (const Bytes& payload : entry.payloads) {
      const crypto::Digest digest = payload_digest(payload);
      if (delivered_.contains(&digest)) continue;
      note_delivered(digest);
      ++delivered_count_;
      chain_digest_ = crypto::chain_extend(chain_digest_, entry.party, payload);
      if (host_.wal_enabled()) delivered_log_.emplace_back(entry.party, payload);
      deliver_(entry.party, payload);
    }
  }
  delivering_round_ = false;
  // Drop our own now-delivered payloads.
  std::erase_if(queue_, [this](const Bytes& p) { return was_delivered(p); });

  last_finished_ = round;
  // The round's buffered batches did their job; only the VBA stays (for
  // kRetention more rounds, answering laggards' fetches).
  auto completed = rounds_.find(round);
  if (completed != rounds_.end()) {
    release_round_charges(completed->second);
    completed->second.batches.clear();
    completed->second.batches.shrink_to_fit();
  }
  if (round_end_) round_end_();
  if (ckpt_interval_ > 0 && round % ckpt_interval_ == 0) emit_checkpoint_share(round);
  gc_completed_rounds();
  host_.trace("abc", tag_ + " finished round " + std::to_string(round));
  maybe_start_round(round + 1);
}

void AtomicBroadcast::gc_completed_rounds() {
  const int gc_round = last_finished_ - kRetention;
  for (auto it = rounds_.begin(); it != rounds_.end() && it->first <= gc_round;) {
    release_round_charges(it->second);
    if (it->second.vba) {
      // Never destroy a Vba that may be on the call stack (this runs from
      // a *younger* round's decide callback, but defensive deferral is
      // cheap): park it; the next handle() entry flushes.
      retired_vbas_.push_back(std::move(it->second.vba));
    }
    const std::string vba_tag = tag_ + "/" + std::to_string(it->first) + "/vba";
    it = rounds_.erase(it);
    // Tombstone the round's VBA subtree (late traffic dropped, buffered
    // and logged messages for it freed)...
    host_.retire_tag(vba_tag);
  }
  // ...and compact this instance's own log: completed rounds' batches are
  // subsumed by the delivery-log checkpoint, as are all submissions (the
  // checkpoint carries the live queue_).  Checkpoint share records are only
  // prunable once a combined certificate covering their round rides the
  // snapshot — the most recent checkpoint record always survives
  // compaction, however tight the budget (shares for rounds past the
  // certificate still replay to rebuild the in-flight collection).
  const int cert_round = latest_cert_ ? static_cast<int>(latest_cert_->round) : 0;
  if (gc_round >= 1 && host_.wal_enabled()) {
    host_.prune_wal(tag_, [gc_round, cert_round](const net::Message& message) {
      if (message.payload.empty()) return false;
      const std::uint8_t type = message.payload[0];
      if (type == kSubmit) return true;
      if (message.payload.size() < 5) return false;
      if (type == kCkptShare) {
        Reader r(message.payload);
        r.u8();
        return static_cast<int>(r.u32()) <= cert_round;
      }
      if (type != kBatch) return false;
      Reader r(message.payload);
      r.u8();
      return static_cast<int>(r.u32()) <= gc_round;
    });
  }
}

void AtomicBroadcast::enable_checkpoints(int interval) {
  SINTRA_REQUIRE(interval >= 0, "abc: negative checkpoint interval");
  ckpt_interval_ = interval;
}

void AtomicBroadcast::release_ckpt_charges(CkptPending& cp) {
  for (const auto& [peer, bytes] : cp.charges) host_.budget().release(peer, tag_, bytes);
  cp.charges.clear();
}

void AtomicBroadcast::gc_checkpoints() {
  if (!latest_cert_) return;
  const int cert_round = static_cast<int>(latest_cert_->round);
  for (auto it = ckpts_.begin(); it != ckpts_.end() && it->first <= cert_round;) {
    release_ckpt_charges(it->second);
    it = ckpts_.erase(it);
  }
}

void AtomicBroadcast::emit_checkpoint_share(int round) {
  CkptPending& cp = ckpts_[round];
  cp.reached = true;
  cp.delivered = delivered_count_;
  cp.chain_digest = chain_digest_;

  crypto::CheckpointCert draft;
  draft.round = static_cast<std::uint32_t>(round);
  draft.delivered_count = cp.delivered;
  draft.chain_digest = cp.chain_digest;
  auto shares = host_.keys().cert_sig.sign(host_.public_keys().cert_sig, draft.statement(tag_),
                                           host_.rng());
  Writer w;
  w.u8(kCkptShare);
  w.u32(static_cast<std::uint32_t>(round));
  w.vec(shares, [](Writer& wr, const SigShare& s) { s.encode(wr); });
  broadcast(w.take());

  // Peers ahead of us may have sent their shares before we completed the
  // round; now that the local chain digest reached the boundary, the
  // statement they signed is known and the stash can be verified.
  auto waiting = std::move(cp.waiting);
  cp.waiting.clear();
  for (auto& [peer, raw] : waiting) {
    try {
      Reader r(raw);
      auto stashed = r.vec<SigShare>([](Reader& rd) { return SigShare::decode(rd); });
      r.expect_done();
      process_ckpt_shares(peer, round, std::move(stashed));
    } catch (const ProtocolError&) {
      host_.trace("abc", tag_ + " dropped malformed stashed ckpt shares from " +
                             std::to_string(peer));
    }
  }
}

void AtomicBroadcast::handle_ckpt_share(int from, Reader& reader) {
  if (ckpt_interval_ <= 0) return;  // this party is not running checkpoints
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(round >= 1 && round < 1 << 24, "abc: implausible checkpoint round");
  if (round % ckpt_interval_ != 0) return;  // not a boundary under our config
  if (latest_cert_ && round <= static_cast<int>(latest_cert_->round)) return;  // superseded
  if (round <= last_finished_ && !ckpts_.contains(round)) return;  // already collected + GCed
  if (round > last_finished_ + kRoundLookahead) {
    host_.trace("abc", tag_ + " dropped far-future ckpt share r" + std::to_string(round) +
                           " from " + std::to_string(from));
    return;
  }

  auto existing = ckpts_.find(round);
  if (existing != ckpts_.end() && existing->second.shares.seen(from)) return;
  if (existing != ckpts_.end() && !existing->second.reached) {
    for (const auto& [peer, raw] : existing->second.waiting) {
      if (peer == from) return;  // one stash per peer per round
    }
  }

  Bytes rest = reader.raw(reader.remaining());
  const std::size_t cost = rest.size() + 32;
  if (!host_.budget().try_charge(from, tag_, cost)) {
    host_.trace("abc", tag_ + " budget-dropped ckpt share r" + std::to_string(round) +
                           " from " + std::to_string(from));
    return;
  }
  CkptPending& cp = ckpts_[round];
  cp.charges.emplace_back(from, cost);

  if (!cp.reached) {
    // We have not completed this round yet, so the statement the shares
    // sign is unknown; stash raw and verify at the boundary.
    cp.waiting.emplace_back(from, std::move(rest));
    return;
  }
  Reader shares_reader(rest);
  auto shares = shares_reader.vec<SigShare>([](Reader& rd) { return SigShare::decode(rd); });
  shares_reader.expect_done();
  process_ckpt_shares(from, round, std::move(shares));
}

void AtomicBroadcast::process_ckpt_shares(int from, int round, std::vector<SigShare> shares) {
  auto it = ckpts_.find(round);
  if (it == ckpts_.end() || !it->second.reached) return;
  CkptPending& cp = it->second;
  const auto& cert_pk = host_.public_keys().cert_sig;
  crypto::CheckpointCert draft;
  draft.round = static_cast<std::uint32_t>(round);
  draft.delivered_count = cp.delivered;
  draft.chain_digest = cp.chain_digest;
  const Bytes stmt = draft.statement(tag_);
  const bool admitted = cp.shares.admit(
      cert_pk.scheme(), from, me(), std::move(shares), "abc: ckpt shares not the sender's units",
      "abc: invalid checkpoint signature share", [&](const std::vector<SigShare>& incoming) {
        return crypto::batch::verify_sig_shares(cert_pk, stmt, incoming, host_.rng());
      });
  if (!admitted || !cert_pk.scheme().qualified(cp.shares.support())) return;
  auto signature = cert_pk.combine(stmt, cp.shares.shares());
  if (!signature) return;  // cannot happen: every stored share verified
  draft.signature = std::move(*signature);
  latest_cert_ = std::move(draft);
  host_.trace("abc", tag_ + " certified checkpoint r" + std::to_string(round));
  gc_checkpoints();
}

Bytes AtomicBroadcast::certified_state(const crypto::CheckpointCert& cert) const {
  if (cert.delivered_count > delivered_log_.size()) return {};
  Writer w;
  w.u32(static_cast<std::uint32_t>(cert.delivered_count));
  for (std::size_t i = 0; i < cert.delivered_count; ++i) {
    w.u32(static_cast<std::uint32_t>(delivered_log_[i].first));
    w.bytes(delivered_log_[i].second);
  }
  return w.take();
}

bool AtomicBroadcast::install_checkpoint(const crypto::CheckpointCert& cert, BytesView state) {
  // Idempotent under WAL replay and repeated fetches: a certificate at or
  // behind our own progress has nothing to teach us.
  if (static_cast<int>(cert.round) <= last_finished_) return false;
  if (!cert.verify(host_.public_keys().cert_sig, tag_)) return false;

  // Decode the snapshot (same layout as the checkpoint delivery-log
  // section) without touching instance state yet.
  std::vector<std::pair<int, Bytes>> log;
  try {
    Reader r(state);
    const std::uint32_t count = r.u32();
    if (count != cert.delivered_count) return false;
    log.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const int origin = static_cast<int>(r.u32());
      if (origin < 0 || origin >= host_.n()) return false;
      log.emplace_back(origin, r.bytes());
    }
    r.expect_done();
  } catch (const ProtocolError&) {
    return false;
  }
  if (delivered_count_ > log.size()) return false;

  // The snapshot must re-hash to the certified chain digest, and our own
  // delivered prefix must be a prefix of it (same total order).
  Bytes chain = crypto::chain_initial();
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i == delivered_count_ && chain != chain_digest_) return false;
    chain = crypto::chain_extend(chain, log[i].first, log[i].second);
  }
  if (delivered_count_ == log.size() && chain != chain_digest_) return false;
  if (chain != cert.chain_digest) return false;

  // Commit: deliver the suffix beyond our own progress.
  for (std::size_t i = delivered_count_; i < log.size(); ++i) {
    const auto& [origin, payload] = log[i];
    note_delivered(payload_digest(payload));
    chain_digest_ = crypto::chain_extend(chain_digest_, origin, payload);
    ++delivered_count_;
    if (host_.wal_enabled()) delivered_log_.emplace_back(origin, payload);
    deliver_(origin, payload);
  }
  std::erase_if(queue_, [this](const Bytes& p) { return was_delivered(p); });

  // Fast-forward the round counter past everything the certificate covers
  // and retire the overtaken rounds' VBA subtrees.
  last_finished_ = static_cast<int>(cert.round);
  latest_cert_ = cert;
  for (auto it = rounds_.begin(); it != rounds_.end() && it->first <= last_finished_;) {
    release_round_charges(it->second);
    if (it->second.vba) retired_vbas_.push_back(std::move(it->second.vba));
    const std::string vba_tag = tag_ + "/" + std::to_string(it->first) + "/vba";
    it = rounds_.erase(it);
    host_.retire_tag(vba_tag);
  }
  gc_checkpoints();
  gc_completed_rounds();
  host_.trace("abc", tag_ + " installed certified checkpoint r" +
                         std::to_string(cert.round));
  maybe_start_round(last_finished_ + 1);
  return true;
}

}  // namespace sintra::protocols
